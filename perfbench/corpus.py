"""Seeded documents for the three benchmark workloads.

A document is one ``plumbtau`` invocation: the argument vector, the JSON
text it reads on stdin, a reference check for its stdout and the size
features the growth report plots against.  The seed changes the inputs
(vertex labels, strand counts, representatives, presentations, braids,
complexes) but not the shape of the corpus, so one workload costs about
the same on every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import oracles

WORKLOADS = ("lattice-tables", "class-queries", "floer-complexes")


@dataclass
class Doc:
    id: str
    argv: list
    text: str
    check: Callable[[str], Optional[str]]
    features: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Form:
    """A plumbing tree: a linear chain, or a star with one-vertex arms."""

    name: str
    weights: tuple  # chain weights, or (centre, *arms) for a star
    star: bool = False

    @property
    def n(self) -> int:
        return len(self.weights)


def chain(*weights) -> Form:
    if len(weights) > 1 and len(set(weights)) == 1:
        name = f"({weights[0]})x{len(weights)}"
    else:
        name = "(" + ",".join(str(w) for w in weights) + ")"
    return Form(name, tuple(weights))


def star(centre, *arms) -> Form:
    return Form(f"({centre};{','.join(str(a) for a in arms)})", (centre, *arms), star=True)


LATTICE_FORMS = (
    chain(-3, -3),
    chain(-3, -3, -3),
    chain(-3, -3, -3, -3),
    star(-2, -2, -3, -5),
    star(-3, -3, -3, -3),
    chain(-10, -10),
    chain(-36),
    chain(*[-2] * 7),
)
# (-3)x5 takes seconds per document at the seed commit, so it enters the
# whole-table corpus once, as the lens-space-checked d table.
LARGE_CHAIN = chain(-3, -3, -3, -3, -3)
QUERY_CHECKS = ("tau", "slice-bennequin", "integrality", "conjugation")
# (-3)x2 answers only the first two, so that the median and the tail rank
# of the 35 single-class documents fall inside groups of documents of one
# form (same cost), not on the step between two forms
METABOLISER_FORMS = (chain(-16), chain(-36), chain(-49), chain(-64), star(-2, -2, -2, -2))
PROBE_FORM = chain(-40, -40, -40, -40)
TABLE_COMMANDS = ("spinc", "dinv", "tau", "pl-genus")
# concordance builds the same full profile as pl-genus, so it runs only
# where that is cheap, which keeps a run short; the (-2; -2,-3,-5) document
# makes 46 in all, whose median then averages paper-examples and spinc on
# (-3)x3, two documents of like cost, not the step between them and the
# cheaper (-3)x3 documents
CONCORDANCE_FORMS = (chain(-3, -3), chain(-3, -3, -3), chain(-36), star(-2, -2, -3, -5))
# (target entries, U^a-pairs, complexes); the pairs leave room to reach the
# target.  Cost varies by about 15% between complexes of one size, so the
# large tier has 36 of them to average that out between seeds.
FLOER_TIERS = ((50, 14, 12), (120, 24, 12), (450, 42, 36))


# --- plumbing documents ----------------------------------------------------


class Instance:
    """One seeded presentation of a form: fresh vertex labels, fixed order.

    The vertex order stays as the form lists it, because it sets the order
    of the short box and with it the cost of class grouping.
    """

    def __init__(self, form: Form, rng: random.Random):
        self.form = form
        ids = [f"v{label}" for label in rng.sample(range(100, 1000), form.n)]
        self.vertices = [[v, w] for v, w in zip(ids, form.weights)]
        if form.star:
            self.edges = [[ids[0], arm] for arm in ids[1:]]
            self.leaves = ids[1:]
        else:
            self.edges = [[ids[i], ids[i + 1]] for i in range(len(ids) - 1)]
            self.leaves = ids[:1] if len(ids) == 1 else [ids[0], ids[-1]]
        self.q = [[0] * form.n for _ in range(form.n)]
        for i, w in enumerate(form.weights):
            self.q[i][i] = w
        for a, b in self.edges:
            i, j = ids.index(a), ids.index(b)
            self.q[i][j] = self.q[j][i] = 1
        self.det = abs(oracles.det(self.q))
        self.box = math.prod(-w for w in form.weights)

    def plumbing(self) -> dict:
        return {"vertices": self.vertices, "edges": self.edges}

    def leaf_link(self, rng: random.Random) -> dict:
        first = rng.choice(self.leaves)
        link = {first: rng.randint(1, 6)}
        others = [v for v in self.leaves if v != first]
        if others and rng.random() < 0.5:
            link[rng.choice(others)] = rng.randint(1, 4)
        return link

    def random_char_vector(self, rng: random.Random) -> list[int]:
        """A characteristic vector, usually outside the short box."""
        return [
            w + 2 * rng.randint(0, -w) + 2 * rng.randint(-1, 1) * (-w)
            for w in (self.q[i][i] for i in range(self.form.n))
        ]

    def features(self) -> dict:
        return {"n": self.form.n, "det": self.det, "box": self.box, "entries": 0}

    def chain_weights(self) -> Optional[list[int]]:
        return None if self.form.star else list(self.form.weights)


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _class_table_check(inst: Instance, command: str, ell: Optional[int] = None):
    """Checks shared by spinc, dinv and tau over every class."""

    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        rows = doc["classes"]
        if len(rows) != inst.det:
            return f"{len(rows)} classes, |det Q| = {inst.det}"
        reps = [tuple(r["rep"]) for r in rows]
        if len(set(reps)) != len(reps) or not all(oracles.in_box(inst.q, r) for r in reps):
            return "class representatives are not distinct short vectors"
        if command in ("spinc", "dinv") and doc["order"] != inst.det:
            return f"order {doc['order']}, |det Q| = {inst.det}"
        if command == "spinc":
            pairing = {tuple(r["rep"]): tuple(r["conjugate"]) for r in rows}
            if any(pairing.get(c) != r for r, c in pairing.items()):
                return "conjugation is not an involution on the class list"
            if not all(
                oracles.same_class(inst.q, c, [-k for k in r]) for r, c in pairing.items()
            ):
                return "a conjugate is not the class of -rep"
        if command == "dinv":
            weights = inst.chain_weights()
            if weights is not None:
                got = sorted(Fraction(r["d"]) for r in rows)
                want = sorted(oracles.chain_d_multiset(weights).elements())
                if got != want:
                    return "d multiset differs from the lens-space recursion"
        if command == "tau" and doc["ell"] != ell:
            return f"ell {doc['ell']}, expected {ell}"
        return None

    return check


def _profile_check(check_name: str):
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if check_name == "pl-genus":
            raw = Fraction(doc["raw"])
            if doc["check"] != "pl_genus" or raw < 0 or doc["genus"] != math.ceil(raw):
                return "pl-genus bound is not the ceiling of a non-negative raw bound"
            return None
        w = doc["witness"]
        spread = Fraction(w["tau_max"]) - Fraction(w["tau_min"])
        expected = "fires" if spread != 0 else "does not fire"
        if (doc["check"], Fraction(doc["slack"]), doc["verdict"]) != ("concordance", spread, expected):
            return "concordance verdict disagrees with its tau spread"
        return None

    return check


def _chain_has_d_zero(inst: Instance) -> bool:
    weights = inst.chain_weights()
    return weights is not None and oracles.chain_d_multiset(weights)[Fraction(0)] > 0


def _table_docs(form: Form, commands, rng: random.Random) -> list[Doc]:
    inst = Instance(form, rng)
    docs = []
    for command in commands:
        doc = {"plumbing": inst.plumbing()}
        if command in ("spinc", "dinv"):
            argv = [command]
            check = _class_table_check(inst, command)
        elif command == "tau":
            link = inst.leaf_link(rng)
            doc["leaf_link"] = link
            argv = ["tau"]
            check = _class_table_check(inst, "tau", sum(link.values()))
        else:
            doc["leaf_link"] = inst.leaf_link(rng)
            # pl-genus needs a non-empty subset: d = 0 classes where the
            # lens-space oracle shows some, every class otherwise
            doc["subset"] = "d0" if _chain_has_d_zero(inst) else "all"
            argv = ["obstruct", "--check", command]
            check = _profile_check(command)
        docs.append(
            Doc(f"{command}:{form.name}", argv + ["--input", "-"], _dump(doc), check, inst.features())
        )
    return docs


# --- surgery documents -----------------------------------------------------


def random_presentation(rng: random.Random) -> dict:
    while True:
        t = rng.randint(1, 3)
        comps = []
        for _ in range(t):
            if rng.random() < 0.25:
                comps.append({"kind": "handle", "tb": 0, "rot": 0})
            else:
                comps.append({"kind": "surgery", "tb": rng.randint(-5, 3), "rot": rng.randint(-4, 4)})
        linking = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i + 1, t):
                linking[i][j] = linking[j][i] = rng.randint(-3, 3)
        node = {"components": comps, "linking": linking}
        if oracles.det(oracles.surgery_matrix(node)) != 0:
            break
    node["link_components"] = [
        [rng.randint(-3, 3) for _ in range(t)] for _ in range(rng.randint(1, 6))
    ]
    strands = rng.randint(1, 6)
    writhe = rng.randint(0, 10)
    node["braid"] = {
        "strands": strands,
        "writhe": writhe,
        "components": rng.randint(max(1, strands - writhe), strands),
    }
    return node


def _surgery_docs(rng: random.Random, count: int) -> list[Doc]:
    docs = []
    for k in range(count):
        node = random_presentation(rng)
        expected = oracles.surgery_values(node)
        q = oracles.surgery_matrix(node)
        features = {"n": len(q), "det": abs(oracles.det(q)), "box": 0, "entries": 0}
        for what in ("self-int", "chern", "sl", "tau-curve"):

            def check(out: str, what=what, want=expected[what]) -> Optional[str]:
                value = Fraction(json.loads(out)["value"])
                if value != want:
                    return f"{what} = {value}, Q^-1 pairing route gives {want}"
                return None

            docs.append(
                Doc(
                    f"surgery-{what}:{k}",
                    ["surgery", "--what", what, "--input", "-"],
                    _dump({"surgery": node}),
                    check,
                    features,
                )
            )
    return docs


def _paper_examples_doc() -> Doc:
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if doc.get("ok") is not True or sorted(doc["examples"]) != ["eq72", "l2d", "m3", "m3d", "nk"]:
            return "paper-examples did not regenerate every golden table"
        return None

    return Doc("paper-examples", ["paper-examples"], "", check, {})


# --- single-class documents ------------------------------------------------


def _query_docs(form: Form, checks, rng: random.Random) -> list[Doc]:
    inst = Instance(form, rng)
    docs = []
    for check_name in checks:
        rep = inst.random_char_vector(rng)
        link = inst.leaf_link(rng)
        ell = sum(link.values())
        doc = {"plumbing": inst.plumbing(), "leaf_link": link}
        if check_name == "tau":
            # argparse reads "-1,..." after a separate --spinc as a flag
            argv = ["tau", "--spinc=" + ",".join(map(str, rep)), "--input", "-"]
        else:
            doc["subset"] = [rep]
            argv = ["obstruct", "--check", check_name, "--input", "-"]
        braid = None
        if check_name == "slice-bennequin":
            strands = rng.randint(1, 6)
            braid = {"strands": strands, "writhe": rng.randint(0, 8), "components": 1}
            doc["surgery"] = {"braid": braid}
        docs.append(
            Doc(
                f"{check_name}:{form.name}",
                argv,
                _dump(doc),
                _query_check(inst, check_name, rep, ell, braid),
                inst.features(),
            )
        )
    return docs


def _query_check(inst: Instance, check_name: str, rep, ell: int, braid):
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if check_name == "tau":
            rows = doc["classes"]
            if len(rows) != 1 or doc["ell"] != ell:
                return "tau --spinc did not return one row for the link"
            got = rows[0]["rep"]
            if not (oracles.in_box(inst.q, got) and oracles.same_class(inst.q, got, rep)):
                return f"rep {got} is not a short vector of the class of {rep}"
            return None
        if doc["check"] != check_name.replace("-", "_"):
            return f"check {doc['check']!r} answered for {check_name!r}"
        w = doc["witness"]
        verdict = doc["verdict"]
        if check_name == "integrality":
            expected = "fires" if Fraction(w["tau"]).denominator != 1 else "does not fire"
            return None if verdict == expected else "integrality verdict disagrees with tau"
        if check_name == "conjugation":
            if not oracles.same_class(inst.q, w["class"], rep):
                return "conjugation witness is not the queried class"
            if not oracles.same_class(inst.q, w["conjugate"], [-k for k in rep]):
                return "conjugation witness is not the class of -rep"
            gap = Fraction(w["tau"]) - Fraction(w["tau_conjugate"])
            expected = "fires" if gap != 0 else "does not fire"
            if verdict != expected or Fraction(doc["slack"]) != gap:
                return "conjugation verdict disagrees with its witness"
            return None
        if check_name == "slice-bennequin":
            sl = braid["writhe"] - braid["strands"]
            slack = 2 * Fraction(w["tau"]) - ell - sl
            expected = "satisfied" if slack >= 0 else "violated"
            if (Fraction(w["sl"]), w["ell"], Fraction(doc["slack"]), verdict) != (sl, ell, slack, expected):
                return "slice-Bennequin verdict disagrees with sl = writhe - strands"
            return None
        # metaboliser: a named subgroup has the square-root order and an
        # integral linking form on its generators
        if verdict not in ("fires", "does not fire"):
            return f"metaboliser verdict {verdict!r}"
        if isinstance(w, dict):
            qinv = oracles.inverse(inst.q)
            if w["subgroup_order"] ** 2 != inst.det:
                return "metaboliser order is not sqrt |H1|"
            if not oracles.same_class(inst.q, w["class"], rep):
                return "metaboliser witness is not the queried class"
            gens = w["metaboliser"]
            if any(oracles.pair(qinv, a, b).denominator != 1 for a in gens for b in gens):
                return "metaboliser generators are not isotropic"
        return None

    return check


# --- filtered complexes ----------------------------------------------------


def random_floer_complex(rng: random.Random, target_entries: int, n_pairs: int):
    """A valid filtered complex with about ``target_entries`` entries.

    Towers in the model grading pattern plus U^a-cancelling pairs satisfy
    the axioms; graded, filtered basis changes e <- e + U^k f then mix the
    pieces without changing any invariant, until the differential has
    ``target_entries`` entries; ``n_pairs`` must leave room for that many.
    Returns the document, the invariants placed by construction and the
    entry count.
    """
    ell = rng.randint(1, 3)
    g0 = rng.randint(-4, 4)
    tower_grs = [g0 - i for i in range(ell) for _ in range(math.comb(ell - 1, i))]
    gr, level, names = {}, {}, []
    for i, g in enumerate(tower_grs):
        names.append(f"t{i}")
        gr[f"t{i}"] = g
        level[f"t{i}"] = rng.randint(-3, 3)
    top, bottom = names[0], names[-1]
    blocked = {g0, g0 - ell + 1}
    out: dict = {}  # x -> {y: U-power}
    inn: dict = {}  # y -> {x: U-power}
    for j in range(n_pairs):
        while True:
            a = rng.randint(0, 3)
            gy = rng.randint(-5, 5)
            # keep extra hat homology away from the distinguished gradings
            if a == 0 or not ({gy, gy - 2 * a + 1} & blocked):
                break
        x, y = f"p{j}", f"q{j}"
        gr[y], gr[x] = gy, gy - 2 * a + 1
        level[y] = rng.randint(-3, 3)
        level[x] = level[y] - a + rng.randint(0, 3)
        names += [x, y]
        out.setdefault(x, {})[y] = a
        inn.setdefault(y, {})[x] = a
    moves = [
        (e, f)
        for e in names
        for f in names
        if e != f
        and (gr[f] - gr[e]) % 2 == 0
        and gr[f] >= gr[e]
        and level[f] - (gr[f] - gr[e]) // 2 <= level[e]
    ]

    def toggle(x, y, m):
        row = out.setdefault(x, {})
        if y in row:
            del row[y]
            del inn[y][x]
        else:
            row[y] = m
            inn.setdefault(y, {})[x] = m

    count = n_pairs
    while count < target_entries:
        e, f = rng.choice(moves)
        delta = (gr[f] - gr[e]) // 2
        for z, m in sorted(out.get(f, {}).items()):
            toggle(e, z, m + delta)
        for w, k in sorted(inn.get(e, {}).items()):
            toggle(w, f, k + delta)
        count = sum(len(row) for row in out.values())
    order = list(range(len(names)))
    rng.shuffle(order)
    rename = {old: f"g{order[i]}" for i, old in enumerate(names)}
    lines = [f"{rename[n]} {gr[n]} {level[n]}" for n in sorted(names, key=rename.get)]
    lines += [
        f"{rename[x]} -> {rename[y]} pow {m}"
        for x, row in sorted(out.items())
        for y, m in sorted(row.items())
    ]
    placed = {"d": g0, "tau-top": level[top], "tau-bot": level[bottom], "rank": 2 ** (ell - 1)}
    return {"floer_complex": lines, "basepoints": ell}, placed, count


def _floer_docs(rng: random.Random) -> list[Doc]:
    """One question per complex, rotating verify, d, tau-top and tau-bot."""
    docs = []
    whats = ("verify", "d", "tau-top", "tau-bot")
    for target, pairs, copies in FLOER_TIERS:
        for k in range(copies):
            what = whats[k % len(whats)]
            doc, placed, entries = random_floer_complex(rng, target, pairs)
            features = {"n": len(doc["floer_complex"]) - entries, "det": 0, "box": 0, "entries": entries}

            def check(out: str, what=what, placed=placed) -> Optional[str]:
                got = json.loads(out)
                if what == "verify":
                    if got["ok"] is not True or got["failures"]:
                        return f"valid complex reported invalid: {got['failures'][:1]}"
                    return None
                if got["value"] != str(placed[what]):
                    return f"{what} = {got['value']}, generator placed {placed[what]}"
                return None

            docs.append(
                Doc(
                    f"floer-{what}:{target}.{k}",
                    ["floer", "--what", what, "--input", "-"],
                    _dump(doc),
                    check,
                    features,
                )
            )
    return docs


# --- workloads -------------------------------------------------------------


def build(workload: str, seed: int) -> list[Doc]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lattice-tables":
        docs = []
        for form in LATTICE_FORMS:
            extra = ("concordance",) if form in CONCORDANCE_FORMS else ()
            docs += _table_docs(form, TABLE_COMMANDS + extra, rng)
        docs += _table_docs(LARGE_CHAIN, ("dinv",), rng)
        docs += _surgery_docs(rng, 2)
        docs.append(_paper_examples_doc())
        return docs
    if workload == "class-queries":
        docs = []
        for form in LATTICE_FORMS:
            docs += _query_docs(form, QUERY_CHECKS[: 2 if form == LATTICE_FORMS[0] else 4], rng)
        for form in METABOLISER_FORMS:
            docs += _query_docs(form, ("metaboliser",), rng)
        return docs
    if workload == "floer-complexes":
        return _floer_docs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def budget_probe() -> Doc:
    """dinv on the (-40)x4 chain: a 2.56M-vector box, |det Q| = 2555201."""
    inst = Instance(PROBE_FORM, random.Random("probe"))
    return Doc(
        f"dinv:{PROBE_FORM.name}",
        ["dinv", "--input", "-"],
        _dump({"plumbing": inst.plumbing()}),
        _class_table_check(inst, "dinv"),
        inst.features(),
    )
