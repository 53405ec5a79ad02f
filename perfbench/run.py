"""plumbtau benchmark: one seeded corpus per workload, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-tables --seed 1 --seconds 30 --trace 0

Load is closed-loop with one client: one document at a time from this
process.  With ``--trace 0`` each document runs as a ``plumbtau`` CLI
subprocess and then in-process through ``plumbtau.cli.main``, in rounds
over the corpus until ``--seconds`` would be exceeded (at least one
round).  Each time is scaled by calibration ticks taken around it
(``calibrate.py``), so drift in the machine's speed cancels; the
end-to-end metrics are built from per-document medians over rounds.
With ``--trace 1`` the corpus runs in-process, alternately untraced and
under ``spans.Tracer``, and the per-layer metrics, the tracing overhead
and a growth report are printed; spans and the report are written to
``.bench_out/``.  Every output is checked against ``corpus`` references,
subprocess output against in-process output byte for byte, and on the
default seed against the digests in ``digests.json``.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import corpus
from calibrate import NOMINAL_S, Clock, pin_to_one_cpu
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
LAUNCH = "import sys; from plumbtau.cli import main; sys.exit(main())"
SETUP_ARGV = ["tau-qp", "--strands", "3", "--writhe", "5", "--components", "2"]
SETUP_TAU = "2"  # (writhe - strands + components) / 2
SETUP_CALLS = 9
DOC_TIMEOUT_S = 120
PROBE_LIMIT_S = 3
PROBE_MEMORY_BYTES = 2 << 30
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_wall_s": "s",
    "cli_p50_ms": "ms",
    "cli_tail_ms": "ms",
    "compute_wall_s": "s",
    "compute_p50_ms": "ms",
    "compute_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Outcome:
    __slots__ = ("rc", "out", "seconds")

    def __init__(self, rc, out, seconds):
        self.rc, self.out, self.seconds = rc, out, seconds


# --- running documents ----------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(argv, text, env, timeout=DOC_TIMEOUT_S, preexec_fn=None) -> Outcome:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *argv],
            input=text.encode(),
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
            preexec_fn=preexec_fn,
        )
    except subprocess.TimeoutExpired:
        return Outcome(None, "", time.perf_counter() - start)
    return Outcome(proc.returncode, proc.stdout.decode(), time.perf_counter() - start)


def run_inprocess(cli, argv, text) -> Outcome:
    """cli.main(argv) with stdin, stdout and stderr swapped for buffers.

    Exit codes follow the interpreter: SystemExit passes its code, any
    other exception gives 1.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
    finally:
        sys.stdin = saved_stdin
    return Outcome(rc, out.getvalue(), time.perf_counter() - start)


# --- checking --------------------------------------------------------------


def check_output(doc, out: str):
    """The document's reference check; output it cannot read is a failure too."""
    try:
        return doc.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {e!r}"


class Checker:
    """Reference checks, once per document; later runs must repeat the bytes."""

    def __init__(self, workload, seed):
        self.first: dict[str, str] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.digests = None
        if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as handle:
                self.digests = json.load(handle).get(workload)

    def record(self, doc, outcome: Outcome, mode: str):
        self.attempted += 1
        problem = self._problem(doc, outcome)
        if problem is not None:
            self.failed += 1
            self.failures.setdefault(doc.id, f"{mode}: {problem}")

    def _problem(self, doc, outcome: Outcome):
        if outcome.rc is None:
            return f"no answer within {DOC_TIMEOUT_S} s"
        if outcome.rc != 0:
            return f"exit code {outcome.rc}"
        if doc.id in self.first:
            if outcome.out != self.first[doc.id]:
                return "stdout differs from the document's first run"
            return None
        self.first[doc.id] = outcome.out
        problem = check_output(doc, outcome.out)
        if problem is None and self.digests is not None:
            want = self.digests.get(doc.id)
            if want != hashlib.sha256(outcome.out.encode()).hexdigest():
                problem = "stdout digest differs from the one recorded for the default seed"
        return problem


# --- statistics ------------------------------------------------------------


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1:
        raise ValueError(f"{len(ordered)} documents: too few for a tail")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def per_doc_medians(rounds):
    return [statistics.median(times) for times in zip(*rounds)]


def layer_metrics(tracer: Tracer, evaluated: int, needed: int) -> dict:
    stats = tracer.stats  # a defaultdict: functions never called read as zero

    def own(name):
        return stats[name].self

    def calls(name):
        return stats[name].calls

    def count(name):
        return stats[name].count

    vectors = count("plumbing.short_char_vectors")
    complexes = calls("floer.parse_complex")
    decompositions = sum(
        calls(f"floer.{n}") for n in ("homology_minus", "correction_term", "image_classes")
    )
    m = {
        "plumbing.spinc_classes.s": own("plumbing.spinc_classes"),
        "linalg.in_image_of.calls": calls("linalg.in_image_of"),
        "linalg.in_image_of.s": own("linalg.in_image_of"),
        "linalg.solve_exact.s": own("linalg.solve_exact"),
        "plumbing.same_class_tests_per_vector": calls("linalg.in_image_of") / vectors if vectors else 0.0,
        "plumbing.short_char_vectors.count": vectors,
        "plumbing.d_invariant.s": own("plumbing.d_invariant"),
        "linalg.inverse.s": own("linalg.inverse"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.pair.calls": calls("linalg.pair"),
        "linalg.pair.s": own("linalg.pair"),
        "plumbing.solve_square.s": own("plumbing.solve_square"),
        "plumbing.class_of.calls": calls("plumbing.class_of"),
        "plumbing.class_of.s": own("plumbing.class_of"),
        "tau.tau_detail.calls": calls("tau.tau_detail"),
        "tau.tau_detail.s": own("tau.tau_detail"),
        "tau.evaluated_per_needed": evaluated / needed if needed else 0.0,
        "obstruct.profile_from_link.s": own("obstruct.profile_from_link"),
        "obstruct.metaboliser_candidates.s": own("obstruct.metaboliser_candidates"),
        "obstruct.metaboliser_candidates.count": count("obstruct.metaboliser_candidates"),
        "linalg.smith_normal_form.s": own("linalg.smith_normal_form"),
        "floer.verify_axioms.s": own("floer.verify_axioms"),
        "floer.correction_term.s": own("floer.correction_term"),
        "floer.tau_top.s": own("floer.tau_top"),
        "floer.tau_bot.s": own("floer.tau_bot"),
        "floer.parse_complex.s": own("floer.parse_complex"),
        "floer.entries": count("floer.parse_complex"),
        "floer.decompositions_per_complex": decompositions / complexes if complexes else 0.0,
        "cli.load_document.s": own("cli.load_document"),
        "cli.build_form.s": own("cli.build_form"),
        "cli.render.s": own("cli.render"),
        "surgery.self_intersection.s": own("surgery.self_intersection"),
        "surgery.chern_evaluation.s": own("surgery.chern_evaluation"),
    }
    for layer in LAYERS:
        m[f"{layer}.self.s"] = tracer.module_self[layer]
    return m


LAYER_UNITS_BY_SUFFIX = {".s": "s", ".calls": "count", ".count": "count", ".entries": "count"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS_BY_SUFFIX.items():
        if name.endswith(suffix):
            return unit
    return "ratio"


def tau_values_needed(doc, outcome: Outcome, reads: set) -> int:
    """Tau values the command reads: rows printed, or classes its check consults."""
    out = json.loads(outcome.out)
    if doc.argv[0] == "tau":
        return len(out["classes"])
    if out.get("check") == "conjugation":
        w = out["witness"]
        return len({tuple(w["class"]), tuple(w["conjugate"])})
    return len(reads)


def slope(points):
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 1 and y > 0]
    if len({x for x, _ in pts}) < 3:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def growth_report(rows):
    """Per command and layer: exponent of self time against each size feature."""
    by_command = {}
    for row in rows:
        by_command.setdefault(row["doc"].split(":")[0], []).append(row)
    report = {}
    for command, group in sorted(by_command.items()):
        for layer in LAYERS:
            for feature in ("det", "box", "n", "entries"):
                s = slope([(r["features"].get(feature, 0), r["self_s"][layer]) for r in group])
                if s is not None:
                    report.setdefault(command, {}).setdefault(layer, {})[feature] = round(s, 2)
    return report


# --- runs ------------------------------------------------------------------


def timed_run(cli, docs, seconds, checker, say):
    """Rounds over the corpus, each document as a CLI call and then in-process.

    Every time is scaled by the calibration ticks around it
    (``calibrate.Clock``), so the machine's drift in speed cancels; the
    unscaled totals are printed next to the scaled ones.
    """
    env = cli_env()
    start = time.perf_counter()
    run_cli(SETUP_ARGV, "", env)  # first call may write bytecode caches
    clock = Clock()
    setup_ids = []
    for _ in range(SETUP_CALLS):
        outcome = run_cli(SETUP_ARGV, "", env)
        checker.attempted += 1
        if outcome.rc != 0 or json.loads(outcome.out or "{}").get("tau") != SETUP_TAU:
            checker.failed += 1
            checker.failures.setdefault("tau-qp", f"exit {outcome.rc} or wrong tau")
        setup_ids.append(clock.record(outcome.seconds))
    cli_rounds, inproc_rounds, raw_cli_walls, raw_inproc_walls = [], [], [], []
    while True:
        round_start = time.perf_counter()
        cli_ids, inproc_ids, raw_cli, raw_inproc = [], [], 0.0, 0.0
        for doc in docs:
            outcome = run_cli(doc.argv, doc.text, env)
            checker.record(doc, outcome, "cli")
            cli_ids.append(clock.record(outcome.seconds))
            raw_cli += outcome.seconds
            outcome = run_inprocess(cli, doc.argv, doc.text)
            checker.record(doc, outcome, "in-process")
            inproc_ids.append(clock.record(outcome.seconds))
            raw_inproc += outcome.seconds
        cli_rounds.append(cli_ids)
        inproc_rounds.append(inproc_ids)
        raw_cli_walls.append(raw_cli)
        raw_inproc_walls.append(raw_inproc)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scaled = clock.scaled()
    cli_docs = per_doc_medians([[scaled[i] for i in ids] for ids in cli_rounds])
    inproc_docs = per_doc_medians([[scaled[i] for i in ids] for ids in inproc_rounds])
    cli_tail, cli_pct = tail(cli_docs)
    inproc_tail, inproc_pct = tail(inproc_docs)
    metrics = {
        "setup_s": statistics.median(scaled[i] for i in setup_ids),
        "cli_wall_s": sum(cli_docs),
        "cli_p50_ms": 1000 * statistics.median(cli_docs),
        "cli_tail_ms": 1000 * cli_tail,
        "compute_wall_s": sum(inproc_docs),
        "compute_p50_ms": 1000 * statistics.median(inproc_docs),
        "compute_tail_ms": 1000 * inproc_tail,
        "peak_rss_mb": peak_kb / 1024,
    }
    ticks = sorted(clock.tick_seconds())
    say(f"rounds: {len(cli_rounds)} over {len(docs)} documents, each as CLI and in-process")
    say(f"calibration tick: median {1000 * statistics.median(ticks):.3f} ms, "
        f"min {1000 * ticks[0]:.3f}, max {1000 * ticks[-1]:.3f} (reference {1000 * NOMINAL_S:.3f} ms)")
    say(f"unscaled wall time per round: CLI {statistics.median(raw_cli_walls):.4f} s, "
        f"in-process {statistics.median(raw_inproc_walls):.4f} s")
    say(f"tail percentile: cli_tail_ms is p{cli_pct:.1f}, compute_tail_ms is p{inproc_pct:.1f} "
        f"of {len(docs)} per-document medians ({TAIL_BEYOND} beyond)")
    return metrics


def probe_run(say) -> bool:
    """dinv on (-40)x4 under a time limit; outside every timing and memory metric."""
    doc = corpus.budget_probe()

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))

    outcome = run_cli(doc.argv, doc.text, cli_env(), timeout=PROBE_LIMIT_S, preexec_fn=limit_memory)
    if outcome.rc is None:
        problem = f"no answer within {PROBE_LIMIT_S} s"
    elif outcome.rc == 3:
        problem = None
    elif outcome.rc == 0:
        problem = check_output(doc, outcome.out)
    else:
        problem = f"exit code {outcome.rc}"
    verdict = "pass" if problem is None else f"FAIL ({problem})"
    say(f"budget probe {doc.id}: exit {outcome.rc} after {outcome.seconds:.2f} s: {verdict}")
    return problem is None


def traced_run(cli, package, docs, workload, seed, seconds, checker, say):
    tracer = Tracer(package)
    clock = Clock()  # scales the untraced and traced passes alike, for the overhead
    start = time.perf_counter()
    plain_ids, traced_ids, traced_walls, top_levels, passes = [], [], [], [], []
    while True:
        pair_start = time.perf_counter()
        ids = []
        for doc in docs:
            outcome = run_inprocess(cli, doc.argv, doc.text)
            checker.record(doc, outcome, "in-process")
            ids.append(clock.record(outcome.seconds))
        plain_ids.append(ids)
        tracer.reset()
        ids, wall, rows, evaluated, needed = [], 0.0, [], 0, 0
        tracer.install()
        try:
            for doc in docs:
                before = dict(tracer.module_self)
                tau_before = tracer.stats["tau.tau_detail"].calls
                tracer.doc, tracer.reads = doc.id, set()
                outcome = run_inprocess(cli, doc.argv, doc.text)
                checker.record(doc, outcome, "traced")
                ids.append(clock.record(outcome.seconds))
                wall += outcome.seconds
                rows.append(
                    {
                        "doc": doc.id,
                        "features": doc.features,
                        "self_s": {k: tracer.module_self[k] - before[k] for k in LAYERS},
                    }
                )
                if doc.argv[0] in ("tau", "obstruct") and outcome.rc == 0:
                    evaluated += tracer.stats["tau.tau_detail"].calls - tau_before
                    needed += tau_values_needed(doc, outcome, tracer.reads)
        finally:
            tracer.uninstall()
        traced_ids.append(ids)
        traced_walls.append(wall)
        top_levels.append(tracer.top_level_seconds())
        passes.append(layer_metrics(tracer, evaluated, needed))
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    scaled = clock.scaled()
    plain = statistics.median(sum(scaled[i] for i in ids) for ids in plain_ids)
    traced = statistics.median(sum(scaled[i] for i in ids) for ids in traced_ids)
    overhead = traced - plain
    wall, top = statistics.median(traced_walls), statistics.median(top_levels)
    say(f"passes: {len(plain_ids)} untraced, {len(traced_ids)} traced over {len(docs)} documents")
    say(f"compute_wall_s (scaled) untraced {plain:.4f} s, traced {traced:.4f} s, "
        f"tracing overhead {overhead:.4f} s ({100 * overhead / plain:.1f}%)")
    say(f"top-level spans sum to {top:.4f} s; the traced calls took {wall:.4f} s unscaled, "
        f"{wall - top:.4f} s more, within the overhead: {abs(wall - top) <= abs(overhead)}")
    growth = growth_report(rows)
    say("growth exponents (d log self time / d log size), per command and layer:")
    for command, layers in growth.items():
        for layer, fits in layers.items():
            say(f"  {command:24s} {layer:9s} " + "  ".join(f"{k} {v:+.2f}" for k, v in fits.items()))
    say("per-document self time by layer (ms):")
    say("  " + f"{'document':32s} {'n':>3s} {'det':>7s} {'box':>7s} {'entries':>7s} "
        + " ".join(f"{layer:>8s}" for layer in LAYERS))
    for row in rows:
        f = row["features"]
        say("  " + f"{row['doc']:32s} {f.get('n', 0):3d} {f.get('det', 0):7d} {f.get('box', 0):7d} "
            f"{f.get('entries', 0):7d} " + " ".join(f"{1000 * row['self_s'][k]:8.2f}" for k in LAYERS))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "traced_wall_s": traced,
                "untraced_wall_s": plain,
                "traced_unscaled_wall_s": wall,
                "tracing_overhead_s": overhead,
                "top_level_span_s": top,
                "metrics": metrics,
                "growth": growth,
                "documents": rows,
                "spans": tracer.span_records(),
            },
            handle,
        )
    say(f"spans and growth report written to {os.path.relpath(path, ROOT)}")
    return metrics


def record_digests(cli, workload):
    """Store the default seed's stdout digests (run at a commit whose output is trusted)."""
    docs = corpus.build(workload, DEFAULT_SEED)
    table = {}
    for doc in docs:
        outcome = run_inprocess(cli, doc.argv, doc.text)
        problem = check_output(doc, outcome.out) if outcome.rc == 0 else f"exit {outcome.rc}"
        if problem is not None:
            raise SystemExit(f"perfbench: {doc.id}: {problem}; digests not recorded")
        table[doc.id] = hashlib.sha256(outcome.out.encode()).hexdigest()
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            data = json.load(handle)
    data[workload] = table
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store stdout digests of the default seed and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plumbtau", "cli.py")):
        print(f"perfbench: no plumbtau sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import plumbtau
    from plumbtau import cli  # imports every layer module

    if not os.path.abspath(plumbtau.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported plumbtau from {plumbtau.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(cli, args.workload)
        return 0

    def say(line):
        print(line, flush=True)

    docs = corpus.build(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)
    cpu = pin_to_one_cpu()
    say(f"workload {args.workload}, seed {args.seed}, {len(docs)} documents, "
        f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s, on CPU {cpu}")
    if args.trace:
        metrics = traced_run(cli, plumbtau, docs, args.workload, args.seed, args.seconds, checker, say)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = timed_run(cli, docs, args.seconds, checker, say)
        units = END_TO_END_UNITS
    attempted, failed = checker.attempted, checker.failed
    if args.workload == "lattice-tables" and not args.trace:
        attempted += 1
        failed += 0 if probe_run(say) else 1
    for doc_id, problem in sorted(checker.failures.items()):
        say(f"FAILED {doc_id}: {problem}")
    for name, value in metrics.items():
        say(f"{name} = {value:.6g} {units[name]}")
    say(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} documents fail "
        "their exit code or reference check, budget probe included)")
    say(json.dumps(
        {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
