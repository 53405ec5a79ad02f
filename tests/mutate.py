"""One-at-a-time AST mutants of a plumbtau module, each run against chosen test files.

Not a test module (pytest collects only ``test_*.py``) and not a CI step:
a module of 150 sites takes tens of minutes.  Each mutant changes one site
of the module:

- ``+`` <-> ``-`` (binary and augmented);
- ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=`` (one operator of a chain);
- an int literal n -> n + 1;
- ``and`` <-> ``or``;
- ``min`` <-> ``max``.

The mutant, written with ``ast.unparse``, replaces the module in a copy of
``src`` under the work directory, beside copies of ``tests``, ``perfbench``
and ``README.md`` (tests import the benchmark's tracer and run the
README's example), and ``pytest -x``
runs the test files on it, with no bytecode written so every run compiles
the mutant.  A mutant
is killed when the run fails or passes its time limit, and survives when
it passes.  The unmutated module, unparsed the same way, must pass first.

    python tests/mutate.py linalg tests/test_linalg.py tests/test_surgery.py \\
        tests/test_obstruct.py --workdir /tmp/mutants --jobs 2

prints one line per survivor (its site, line and the mutated line) and a
count per module; ``--sites`` lists the sites without running anything, and
``--only 5,11`` runs those sites alone, such as a run's survivors against
the whole of ``tests``.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    """Every mutable site as (node, operator index or -1, description), in walk order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            out.append((node, -1, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    out.append((node, i, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, -1, f"{node.value} -> {node.value + 1}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max")):
            out.append((node, -1, f"{node.func.id} -> {'max' if node.func.id == 'min' else 'min'}"))
    return out


def mutant(source: str, k: int) -> tuple[str, int, str]:
    """The source with site k mutated, the site's line and its description."""
    tree = ast.parse(source)
    node, i, what = _sites(tree)[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Call):
        node.func.id = "max" if node.func.id == "min" else "min"
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), node.lineno, what


def _run(workdir: Path, tests: list[str], timeout: float) -> str:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module", help="a module of src/plumbtau, such as linalg")
    ap.add_argument("tests", nargs="*", help="test files, relative to the repository root")
    ap.add_argument("--workdir", type=Path, help="where each job copies src, tests and perfbench")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--sites", action="store_true", help="list the sites and stop")
    ap.add_argument("--only", type=lambda text: [int(k) for k in text.split(",")],
                    help="run only these sites, such as 5,11 (the survivors of a run)")
    args = ap.parse_args(argv)
    rel = Path("src", "plumbtau", f"{args.module}.py")
    source = (ROOT / rel).read_text(encoding="utf-8")
    count = len(_sites(ast.parse(source)))
    if args.sites:
        for k in range(count):
            _, line, what = mutant(source, k)
            print(f"{k} line {line}: {what}")
        return 0
    if not args.tests or args.workdir is None:
        ap.error("running mutants needs test files and --workdir")

    copies = []
    for j in range(args.jobs):
        copy = args.workdir / f"job{j}"
        shutil.rmtree(copy, ignore_errors=True)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for name in ("pyproject.toml", "README.md"):  # a test runs the README's example
            shutil.copy(ROOT / name, copy)
        copies.append(copy)

    start = time.perf_counter()
    (copies[0] / rel).write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if _run(copies[0], args.tests, timeout=600) != "passed":
        print("the unmutated module fails its tests: no audit", file=sys.stderr)
        return 1
    limit = max(30.0, 5 * (time.perf_counter() - start))
    free = list(copies)

    def one(k):
        copy = free.pop()
        try:
            text, line, what = mutant(source, k)
            (copy / rel).write_text(text, encoding="utf-8")
            return k, line, what, _run(copy, args.tests, limit)
        finally:
            free.append(copy)

    lines = source.splitlines()
    survivors = 0
    with ThreadPoolExecutor(args.jobs) as pool:
        for k, line, what, outcome in pool.map(one, args.only or range(count)):
            if outcome == "passed":
                survivors += 1
                print(f"survived {k} line {line}: {what}  | {lines[line - 1].strip()}", flush=True)
    print(f"{args.module}: {survivors} of {len(args.only or range(count))} mutants survived"
          f" ({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
