"""The four workloads: inputs made from the seed, ops, and answer checks.

A workload's set-up turns ``--seed`` into one *pass*: a list of groups.  A
group holds the ops on one input graph; ops of a group run in order, in one
process, and later ops and checks may read earlier answers.  An op is one
public call (with the input preparation it needs) that answers one
question; its answer check runs untimed right after it.

Why these four:

* ``corpus-exhaustive`` - exhaustive DP questions on the n <= 6 corpus:
  cover sweeps and extension surveys in ``solver`` do almost all the work.
* ``grid-ladder`` - a few large triangulated grids, one cover per question,
  no sweep: per-instance set-up and recursion depth in ``solver``, cycle
  enumeration and class membership.  The opposite use of ``solver``.
* ``lattice-audit`` - class members (kagome patches, square grids) and one
  non-member: the lemma branches and the discharging audit's cycle
  hypotheses.  The opposite use of ``structure`` to ``grid-ladder``.
* ``cli-batch`` - in-process ``dpcolor.cli.main`` calls on files in all
  three formats: the only workload through ``io`` parsing and the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io as stdio
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from dpcolor import (RULESET_G1, RULESET_G2, ColorabilityVerdict, CorpusSpec,
                     DischargingReport, ExtensionSurvey, PlaneGraph,
                     Precoloring, Transversal, audit, build_from_rotation,
                     chromatic, class_membership, corpus_generate,
                     cover_graph, diagonal_cover, dp_chromatic, dp_colorable,
                     enumerate_cycles, extend_precoloring, find_transversal,
                     full_cover, initial_charges, list_chromatic,
                     load_document, parse, random_chooser, run_discharging,
                     serialize_rotation_text, survey_precoloring_extensions,
                     verify_structural_lemmas)
from dpcolor.cli import main as cli_main

import checks
import encode
import grids
from spans import Tracer

# -- sizing -------------------------------------------------------------------
# The budgets below are the program's own budget arguments.  They keep one
# corpus pass near twenty seconds on two shared cores while every pass still
# holds the whole beta >= 4 part of the corpus; the ops they cut off answer
# BudgetExceeded and count as unresolved.  The list_chromatic budget also
# keeps its cut-off searches cheaper than the k = 4 sweeps, so that the tail
# percentile falls inside the dense cluster of those sweeps.  Grid covers and
# lattice copies are sized the same way: the ops around the median and the
# tail come in clusters of similar cost.

CORPUS_SPEC = CorpusSpec(3, 6)
CORPUS_K_MAX = 6
DP_CHROMATIC_BUDGET = 2_000_000   # raw covers, as in acceptance criterion 02
DP4_BUDGET = 24 ** 4              # k = 4 sweeps: beta <= 4
SURVEY3_BUDGET = 6 ** 6           # k = 3 surveys: beta <= 6
SURVEY4_BUDGET = 24 ** 3          # k = 4 survey cut-off: beta <= 3
LIST_BUDGET = 10_000              # list_chromatic search nodes
CORPUS_SAMPLED_BETA = 3           # graphs with beta <= this are sampled ...
CORPUS_SAMPLE_SHARE = 0.75        # ... at this share; all others are kept

# triangulated grid side -> seeded 5-covers; n = 100 ... 2025.  Fewer covers
# on the two smallest grids put the median inside the n = 900 cluster.
GRID_LADDER = {10: 7, 20: 7, 25: 10, 30: 10, 32: 10, 45: 10}

LATTICES = (("trihexagonal", (7, 7)), ("trihexagonal", (9, 9)),
            ("trihexagonal", (11, 11)), ("trihexagonal", (13, 12)),
            ("trihexagonal", (15, 13)),
            ("square", (6,)), ("square", (7,)), ("square", (8,)),
            ("square", (9,)), ("square", (10,)),
            ("triangulated", (5,)), ("triangulated", (7,)))
LATTICE_COPIES = 2                # differently relabelled copies of each
EXPECTED_TAG = {"trihexagonal": "both", "square": "g1",
                "triangulated": "neither"}

# one fixed corpus: n <= 5 in full, seeded random graphs at n = 6 and 7; the
# workload seed picks the sample, so set-up work does not depend on it
CLI_CORPUS = CorpusSpec(3, 7, exhaustive_limit=5, per_size_samples=40)
CLI_PER_BETA = {1: 14, 2: 14, 3: 14, 4: 10}   # sampled graphs per beta
CLI_K = 4
CLI_EXTEND_SAMPLES = 60           # sampled `extend` when beta > 3


# -- groups and ops -----------------------------------------------------------


@dataclass
class Op:
    """One timed question.  ``run(tr, state)`` makes the public calls."""

    name: str
    run: Callable[[Tracer, dict], Any]
    check: Optional[Callable[[Tracer, dict, Any], list[str]]] = None
    unresolved: Callable[[Any], Optional[str]] = lambda answer: None
    counts: Callable[[Any], dict[str, float]] = lambda answer: {}


@dataclass
class Group:
    label: str
    ops: list[Op] = field(default_factory=list)


def beta(g: PlaneGraph) -> int:
    return g.edge_count - g.vertex_count + 1


def none_unresolved(answer: Any) -> Optional[str]:
    return "none-within-k-max" if answer is None else None


# -- answer fingerprints ------------------------------------------------------


def canon(x: Any) -> Any:
    """JSON-ready form of an answer that does not depend on set order."""
    if isinstance(x, DischargingReport):
        return [x.to_text(), x.conservation_ok, x.replay_ok,
                x.per_rule_balanced, [canon(b) for b in x.bound_checks],
                canon(x.accounting)]
    if isinstance(x, PlaneGraph):
        return [x.vertex_count, canon(x.rotations),
                [list(f.boundary) for f in x.faces], x.outer_face_id]
    if isinstance(x, ExtensionSurvey):
        # failure lists run to 10^5 covers; the count and a prefix suffice
        return [x.mode, list(x.cycle), x.k, x.covers_checked,
                x.precolorings_checked, len(x.failures),
                canon(x.failures[:3])]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=repr)
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=repr)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if hasattr(x, "lines"):           # ChargeLedger, TransferLog
        return x.lines()
    return repr(x)


def digest(answer: Any) -> str:
    text = json.dumps(canon(answer), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- corpus-exhaustive --------------------------------------------------------


def _corpus(tr: Tracer) -> list[PlaneGraph]:
    return tr.call("io.corpus_generate",
                   lambda: list(corpus_generate(CORPUS_SPEC)))


def _sample_corpus(graphs: list[PlaneGraph], rng: random.Random
                   ) -> list[PlaneGraph]:
    """Every graph with beta > CORPUS_SAMPLED_BETA, and a seeded share of
    each smaller-beta stratum, in a seeded order."""
    strata: dict[int, list[PlaneGraph]] = {}
    for g in graphs:
        strata.setdefault(beta(g), []).append(g)
    picked = []
    for b, members in sorted(strata.items()):
        if b <= CORPUS_SAMPLED_BETA:
            members = rng.sample(members,
                                 math.ceil(CORPUS_SAMPLE_SHARE * len(members)))
        picked.extend(members)
    rng.shuffle(picked)
    return picked


def _relabelled(tr: Tracer, g: PlaneGraph, seed: int) -> PlaneGraph:
    return tr.call("plane_graph.build_from_rotation", build_from_rotation,
                   *grids.relabel(g, seed))


def _survey_check(g: PlaneGraph):
    def check(tr: Tracer, state: dict, s: ExtensionSurvey) -> list[str]:
        out = []
        if s.covers_checked < 1:
            out.append("survey checked no cover")
        for f in s.failures[:2]:
            out += tr.call("check.extend_precoloring",
                           checks.failed_extension_failures, g, f.cover,
                           f.precoloring)
        return out
    return check


def _survey_counts(s: ExtensionSurvey) -> dict[str, float]:
    return {"solver.survey_covers": s.covers_checked,
            "solver.survey_precolorings": s.precolorings_checked}


def _corpus_group(tr: Tracer, g: PlaneGraph) -> Group:
    cycles = tr.call("plane_graph.enumerate_cycles", enumerate_cycles, g,
                     g.vertex_count)
    group = Group(f"n={g.vertex_count} beta={beta(g)}")

    def chain_check(tr: Tracer, state: dict, dp: Optional[int]) -> list[str]:
        return checks.chain_failures(state.get("chromatic"),
                                     state.get("list_chromatic"), dp)

    def dp4_check(tr: Tracer, state: dict, v: ColorabilityVerdict) -> list[str]:
        out = []
        if v.counterexample is not None:
            out += tr.call("check.find_transversal",
                           checks.counterexample_failures, g, v.counterexample)
        dp = state.get("dp_chromatic")
        if dp is not None and (dp <= 4) != v.all_colorable:
            out.append(f"dp_chromatic={dp} disagrees with k=4 verdict "
                       f"{v.all_colorable}")
        return out

    def dp4_counts(v: ColorabilityVerdict) -> dict[str, float]:
        return {"solver.covers_checked": v.covers_checked,
                "solver.covers_raw": math.factorial(4) ** beta(g)}

    group.ops += [
        Op("chromatic", lambda tr, s: tr.call(
            "solver.chromatic", chromatic, g, CORPUS_K_MAX),
           unresolved=none_unresolved),
        Op("list_chromatic", lambda tr, s: tr.call(
            "solver.list_chromatic", list_chromatic, g, CORPUS_K_MAX,
            budget=LIST_BUDGET), unresolved=none_unresolved),
        Op("dp_chromatic", lambda tr, s: tr.call(
            "solver.dp_chromatic", dp_chromatic, g, CORPUS_K_MAX,
            budget=DP_CHROMATIC_BUDGET),
           check=chain_check, unresolved=none_unresolved),
        Op("dp_colorable_4", lambda tr, s: tr.call(
            "solver.dp_colorable", dp_colorable, g, 4, budget=DP4_BUDGET),
           check=dp4_check, counts=dp4_counts),
    ]
    if cycles:
        shortest = cycles[0].vertices
        for k, budget in ((3, SURVEY3_BUDGET), (4, SURVEY4_BUDGET)):
            group.ops.append(Op(
                f"survey_k{k}",
                lambda tr, s, k=k, budget=budget: tr.call(
                    "solver.survey_precoloring_extensions",
                    survey_precoloring_extensions, g, shortest, k,
                    budget=budget),
                check=_survey_check(g), counts=_survey_counts))
    return group


def setup_corpus_exhaustive(seed: int, tr: Tracer, workdir: Path
                            ) -> list[Group]:
    rng = random.Random(seed)
    sample = _sample_corpus(_corpus(tr), rng)
    graphs = [_relabelled(tr, g, rng.randrange(2 ** 32)) for g in sample]
    return [_corpus_group(tr, g) for g in graphs]


# -- grid-ladder ----------------------------------------------------------------


def _transversal_op(box: dict, seed: int, state_key: str) -> Op:
    """find_transversal on a seeded 5-cover of the group's graph."""
    def run(tr: Tracer, state: dict) -> Optional[Transversal]:
        cover = tr.call("cover.full_cover", full_cover, box["g"], 5,
                        random_chooser(seed))
        state[state_key] = cover
        h = tr.call("cover.cover_graph", cover_graph, box["g"], cover)
        t = tr.call("solver.find_transversal", find_transversal, h)
        state[state_key + ".transversal"] = t
        return t

    def check(tr: Tracer, state: dict, t: Optional[Transversal]) -> list[str]:
        if t is None:
            return checks.planar_five_cover_failures(t)
        return checks.transversal_failures(box["g"], state[state_key], t)

    return Op("find_transversal", run, check=check)


def _grid_group(side: int, covers: int, data: tuple, seed: int) -> Group:
    rng = random.Random(seed)
    cover_seeds = [rng.randrange(2 ** 32) for _ in range(covers)]
    corner_pick = rng.randrange(2)
    group = Group(f"triangulated {side}x{side}")
    box: dict[str, PlaneGraph] = {}

    def build(tr: Tracer, state: dict) -> PlaneGraph:
        box["g"] = tr.call("plane_graph.build_from_rotation",
                           build_from_rotation, *data)
        return box["g"]

    def build_check(tr: Tracer, state: dict, g: PlaneGraph) -> list[str]:
        n, m = side * side, 3 * side * side - 4 * side + 1
        if (g.vertex_count, g.edge_count) != (n, m):
            return [f"grid has n={g.vertex_count} m={g.edge_count}, "
                    f"expected {n}, {m}"]
        return []

    def cycles_check(tr: Tracer, state: dict, cycles) -> list[str]:
        # each cell holds two triangles; every 4-cycle is two triangles
        # glued along a diagonal or a grid edge
        cells = (side - 1) ** 2
        want3 = 2 * cells
        got3 = sum(1 for c in cycles if c.length == 3)
        if got3 != want3 or any(c.length > 6 for c in cycles):
            return [f"{got3} triangles, expected {want3}"]
        return []

    def class_check(tr: Tracer, state: dict, tag) -> list[str]:
        if tag.label != "neither":
            return [f"triangulated grid tagged {tag.label}"]
        return []

    def extend_run(tr: Tracer, state: dict) -> Optional[Transversal]:
        # The precolored face is the 3-face at a degree-2 corner.  Its colors
        # come from the program's own transversal of the same cover, so the
        # search meets no conflict at the precolored vertices; without one
        # (RecursionError) the smallest valid colors are used, and the
        # corner sits at the end of the smallest-last order.  A precolored
        # face chosen otherwise can send the backtracking search into
        # exponential time on these grids (seen at n = 100).
        g = box["g"]
        cover = state["cover0"]
        corner = sorted(v for v in range(g.vertex_count)
                        if g.degree(v) == 2)[corner_pick]
        face = next(f for f in g.faces
                    if f.id != g.outer_face_id and corner in f.boundary)
        t = state.get("cover0.transversal")
        if t is not None:
            pre = Precoloring.of({v: t.color(v) for v in face.boundary})
        else:
            pre = checks.valid_precoloring(g, cover, face.boundary)
        state["pre"] = pre
        return tr.call("solver.extend_precoloring", extend_precoloring, g,
                       cover, pre)

    def extend_check(tr: Tracer, state: dict, t) -> list[str]:
        if t is None:
            return []
        return checks.transversal_failures(box["g"], state["cover0"], t,
                                           state["pre"])

    group.ops += [
        Op("build_from_rotation", build, check=build_check),
        Op("enumerate_cycles", lambda tr, s: tr.call(
            "plane_graph.enumerate_cycles", enumerate_cycles, box["g"], 6),
           check=cycles_check,
           counts=lambda cs: {"plane_graph.cycles_found": len(cs)}),
        Op("class_membership", lambda tr, s: tr.call(
            "structure.class_membership", class_membership, box["g"]),
           check=class_check),
        Op("verify_structural_lemmas", lambda tr, s: tr.call(
            "structure.verify_structural_lemmas", verify_structural_lemmas,
            box["g"]),
           counts=lambda rs: {"structure.lemma_reports": len(rs)}),
    ]
    for i, s in enumerate(cover_seeds):
        group.ops.append(_transversal_op(box, s, f"cover{i}"))
    group.ops.append(Op("extend_precoloring", extend_run, check=extend_check))
    return group


def setup_grid_ladder(seed: int, tr: Tracer, workdir: Path) -> list[Group]:
    rng = random.Random(seed)
    groups = []
    for side, covers in GRID_LADDER.items():
        plain = tr.call("bench.grids", grids.triangulated_grid, side)
        data = grids.relabel(plain, rng.randrange(2 ** 32))
        groups.append(_grid_group(side, covers, data,
                                  rng.randrange(2 ** 32)))
    return groups


# -- lattice-audit --------------------------------------------------------------


GENERATORS = {"trihexagonal": grids.trihexagonal_patch,
              "square": grids.square_grid,
              "triangulated": grids.triangulated_grid}


def _lattice_group(kind: str, g: PlaneGraph) -> Group:
    expected = EXPECTED_TAG[kind]

    def lemma_check(tr: Tracer, state: dict, reports) -> list[str]:
        ids = {r.check_id for r in reports}
        has_g1 = "g1-short-cycles-good" in ids
        has_g2 = "g2-triangle-patch-size-bound" in ids
        if (has_g1, has_g2) != (expected in ("g1", "both"),
                                expected in ("g2", "both")):
            return [f"lemma branches {sorted(ids)} do not fit tag {expected}"]
        return [f"theorem {r.check_id} fails on a {kind} lattice"
                for r in reports if r.kind == "theorem" and not r.holds]

    def run_check(tr: Tracer, state: dict, result) -> list[str]:
        final, log = result
        initial = initial_charges(g)
        if final.total() != 0 or log.replay(initial).charges != final.charges:
            return ["run_discharging: total charge or log replay broken"]
        return []

    group = Group(f"{kind} n={g.vertex_count}")
    group.ops.append(Op(
        "verify_structural_lemmas", lambda tr, s: tr.call(
            "structure.verify_structural_lemmas", verify_structural_lemmas, g),
        check=lemma_check,
        counts=lambda rs: {"structure.lemma_reports": len(rs)}))
    for label, rules in (("g1", RULESET_G1), ("g2", RULESET_G2)):
        group.ops.append(Op(
            f"run_discharging_{label}",
            lambda tr, s, rules=rules: tr.call(
                "discharging.run_discharging", run_discharging, g, rules),
            check=run_check,
            counts=lambda r: {"discharging.transfers": len(r[1].entries)}))
    for label, rules in (("g1", RULESET_G1), ("g2", RULESET_G2)):
        group.ops.append(Op(
            f"audit_{label}",
            lambda tr, s, label=label, rules=rules: tr.call(
                f"discharging.audit_{label}", audit, g, rules),
            check=lambda tr, s, r: checks.audit_failures(r),
            counts=lambda r: {"discharging.transfers": len(r.log.entries)}))
    return group


def setup_lattice_audit(seed: int, tr: Tracer, workdir: Path) -> list[Group]:
    rng = random.Random(seed)
    groups = []
    for kind, dims in LATTICES:
        plain = tr.call("bench.grids", GENERATORS[kind], *dims)
        for _ in range(LATTICE_COPIES):
            g = _relabelled(tr, plain, rng.randrange(2 ** 32))
            groups.append(_lattice_group(kind, g))
    rng.shuffle(groups)
    return groups


# -- cli-batch ------------------------------------------------------------------


def _cli(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """``dpcolor.cli.main(argv)`` with its output captured."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tr.call(f"cli.{argv[0].replace('-', '_')}", cli_main, argv)
    return code, out.getvalue()


def _cli_unresolved(answer: tuple[int, str]) -> Optional[str]:
    return "exceeds-max" if "exceeds" in answer[1] else None


def _proper_colors(g: PlaneGraph, vertices: tuple[int, ...]) -> list[int]:
    """Colors 1..CLI_K for the cycle, proper on the edges among its vertices."""
    colors: dict[int, int] = {}
    for v in vertices:
        used = {colors[u] for u in g.neighbors(v) if u in colors}
        colors[v] = min(c for c in range(1, CLI_K + 1) if c not in used)
    return [colors[v] for v in vertices]


def _cli_group(tr: Tracer, g: PlaneGraph, path: Path, fmt: str,
               seed: int) -> Group:
    file = str(path)
    b = beta(g)
    cycle = tr.call("plane_graph.enumerate_cycles", enumerate_cycles, g,
                    g.vertex_count)[0].vertices
    colors = _proper_colors(g, cycle)
    parsed: dict[str, PlaneGraph] = {}

    def graph(tr: Tracer) -> PlaneGraph:
        """The file as the library reads it, parsed once per group."""
        if "g" not in parsed:
            doc = tr.call("io.load_document", load_document, path.read_bytes())
            parsed["g"] = tr.call("io.parse", parse, doc)
        return parsed["g"]

    def answered(fn: Callable[[Tracer, dict, int, str], list[str]]):
        def check(tr: Tracer, state: dict, answer: tuple[int, str]):
            code, text = answer
            if code not in (0, 1):
                return [f"exit code {code}"]
            return fn(tr, state, code, text)
        return check

    def faces_check(tr, state, code, text):
        h = graph(tr)
        want = h.edge_count - h.vertex_count + 2
        got = text.count("\nface ") + text.startswith("face ")
        return [] if got == want else [f"{got} faces listed, expected {want}"]

    def solve_check(tr, state, code, text):
        h = graph(tr)
        m = re.search(r"transversal: (.*)", text)
        if code != 0 or m is None:
            return ["no transversal for a 4-list diagonal cover"]
        colors_of = dict(tuple(map(int, tok.split(":")))
                         for tok in m.group(1).split())
        t = Transversal(tuple(colors_of[v] for v in range(h.vertex_count)))
        cover = diagonal_cover(h, [range(1, CLI_K + 1)] * h.vertex_count)
        return checks.transversal_failures(h, cover, t)

    def number(text: str) -> Optional[int]:
        m = re.search(r"chromatic: (\d+)$", text.strip())
        return int(m.group(1)) if m else None

    def dp_check(tr, state, code, text):
        ch, dp = number(state["list-chromatic"][1]), number(text)
        if None not in (ch, dp) and ch > dp:
            return [f"list-chromatic {ch} exceeds dp-chromatic {dp}"]
        return []

    def extend_check(tr, state, code, text):
        m = re.match(r"covers=(\d+) valid-for-precoloring=(\d+) failures=(\d+)",
                     text)
        if m is None:
            return [f"unreadable extend output {text!r}"]
        if (int(m.group(3)) > 0) != (code == 1):
            return [f"extend exit {code} with {m.group(3)} failures"]
        return []

    def discharge_check(tr, state, code, text):
        if "conservation=ok replay=ok" not in text:
            return ["discharge summary reports broken conservation or replay"]
        return []

    def plain(tr, state, code, text):
        return [] if text else ["no output"]

    extend_argv = ["extend", file, "--cycle", ",".join(map(str, cycle)),
                   "--colors", ",".join(map(str, colors)), "--k", str(CLI_K)]
    if b > 3:
        extend_argv += ["--samples", str(CLI_EXTEND_SAMPLES),
                        "--seed", str(seed)]
    commands = [
        (["faces", file], faces_check),
        (["cycles", file, "--max", "6"], plain),
        (["class", file], plain),
        (["structure", file, "--lemmas"], plain),
        (["solve", file, "--k", str(CLI_K)], solve_check),
        (["list-chromatic", file, "--max", str(CLI_K)], plain),
        (["dp-chromatic", file, "--max", str(CLI_K)], dp_check),
        (extend_argv, extend_check),
        (["discharge", file, "--rules", "g1"], discharge_check),
        (["discharge", file, "--rules", "g2"], discharge_check),
    ]
    group = Group(f"{fmt} n={g.vertex_count} beta={b}")
    for argv, fn in commands:
        group.ops.append(Op(
            argv[0], lambda tr, s, argv=argv: _cli(tr, argv),
            check=answered(fn),
            unresolved=_cli_unresolved if "chromatic" in argv[0] else
            (lambda answer: None)))
    return group


def _corpus_cli_group(seed: int) -> Group:
    def check(tr, state, answer):
        code, text = answer
        if code != 0 or "# corpus graph 0" not in text:
            return [f"corpus exit {code} without graphs"]
        return []

    group = Group("corpus")
    for cls in ("g1", "g2"):
        argv = ["corpus", "--n", "3..5", "--class", cls, "--seed", str(seed)]
        group.ops.append(Op("corpus", lambda tr, s, argv=argv: _cli(tr, argv),
                            check=check))
    return group


def setup_cli_batch(seed: int, tr: Tracer, workdir: Path) -> list[Group]:
    rng = random.Random(seed)
    pool = tr.call("io.corpus_generate",
                   lambda: list(corpus_generate(CLI_CORPUS)))
    sample = []
    for b, want in CLI_PER_BETA.items():
        stratum = [g for g in pool if beta(g) == b]
        sample += rng.sample(stratum, min(want, len(stratum)))
    rng.shuffle(sample)
    workdir.mkdir(parents=True, exist_ok=True)
    groups = []
    for i, g in enumerate(sample):
        g = _relabelled(tr, g, rng.randrange(2 ** 32))
        fmt = ("rotation-text", "graph6", "planar-code")[i % 3]
        path = workdir / f"g{i:03d}.{fmt}"
        if fmt == "rotation-text":
            path.write_text(serialize_rotation_text(g))
        elif fmt == "graph6":
            path.write_text(encode.graph6(g))
        else:
            path.write_bytes(encode.planar_code(g))
        groups.append(_cli_group(tr, g, path, fmt, rng.randrange(1000)))
    groups.insert(rng.randrange(len(groups) + 1), _corpus_cli_group(seed))
    return groups


WORKLOADS: dict[str, Callable[[int, Tracer, Path], list[Group]]] = {
    "corpus-exhaustive": setup_corpus_exhaustive,
    "grid-ladder": setup_grid_ladder,
    "lattice-audit": setup_lattice_audit,
    "cli-batch": setup_cli_batch,
}
