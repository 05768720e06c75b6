"""Command-line surface.

Every command that reads a graph takes a file path (or ``-`` for stdin)
holding rotation-text, graph6 or planar code; the format is detected
automatically unless ``--format`` overrides it.

Exit codes: 0 when a verdict was computed, 1 when a counterexample or
violation was found, 2 on input errors, when an exhaustive request
exceeds its budget, when ``extend`` would give a vacuous verdict, or
when ``corpus`` is given an empty size range.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import io as gio
from .cover import CoverError, cover_graph, diagonal_cover
from .discharging import RULESETS, audit
from .plane_graph import PlaneGraphError, enumerate_cycles
from .solver import (BudgetExceeded, Precoloring, _check_cycle,
                     _extension_counts, dp_chromatic, find_transversal,
                     list_chromatic)
from .structure import (class_membership, classify_vertices_and_faces,
                        find_triangle_patches, verify_structural_lemmas)


def _read_graph(args):
    data = sys.stdin.buffer.read() if args.graph == "-" else \
        open(args.graph, "rb").read()
    doc = gio.load_document(data, args.format)
    return gio.parse(doc), doc


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (rotation-text/graph6/planar code), - for stdin")
    p.add_argument("--format", default="auto",
                   choices=["auto", "rotation-text", "graph6", "planar-code"])


def cmd_faces(args) -> int:
    g, _ = _read_graph(args)
    for f in g.faces:
        mark = " (outer)" if f.id == g.outer_face_id else ""
        print(f"face {f.id} len {f.length}: {' '.join(map(str, f.boundary))}{mark}")
    return 0


def cmd_cycles(args) -> int:
    g, _ = _read_graph(args)
    for c in enumerate_cycles(g, args.max):
        print(f"cycle len {c.length}: {' '.join(map(str, c.vertices))}")
    return 0


def cmd_class(args) -> int:
    g, _ = _read_graph(args)
    tag = class_membership(g)
    print(f"g1 (no 4-cycle adjacent to a 5-cycle): {'yes' if tag.in_g1 else 'no'}")
    print(f"g2 (no 4-cycle adjacent to a 6-cycle): {'yes' if tag.in_g2 else 'no'}")
    return 0


def cmd_structure(args) -> int:
    g, _ = _read_graph(args)
    failed_theorem = False
    if args.lemmas:
        for r in verify_structural_lemmas(g):
            state = "holds" if r.holds else f"VIOLATED witnesses={r.witnesses!r}"
            print(f"{r.check_id} [{r.kind}] {state}")
            if not r.holds and r.kind == "theorem":
                failed_theorem = True
        return 1 if failed_theorem else 0
    tags = classify_vertices_and_faces(g)
    for p in find_triangle_patches(g):
        print(f"triangle patch size {p.size}: faces {p.face_ids}")
    print(f"bad 4-vertices: {sorted(tags.bad4)}")
    print(f"bad 5-vertices: {sorted(tags.bad5)}")
    print(f"diamond 3-faces: {sorted(tags.diamond_faces)}")
    print(f"internal vertices: {sorted(tags.internal_vertices)}")
    return 0


def cmd_solve(args) -> int:
    g, doc = _read_graph(args)
    if args.cover:
        cdoc = gio.load_document(open(args.cover, "rb").read(), "rotation-text")
        cover = gio.document_cover(cdoc, g, args.k)
    elif doc.cover_pairs:
        cover = gio.document_cover(doc, g, args.k)
    else:
        cover = diagonal_cover(g, [range(1, args.k + 1)] * g.vertex_count)
    t = find_transversal(cover_graph(g, cover))
    if t is None:
        print("no transversal")
        return 1
    print("transversal: " + " ".join(f"{v}:{c}" for v, c in
                                     enumerate(t.assignment)))
    return 0


def cmd_chromatic(args) -> int:
    g, _ = _read_graph(args)
    value = args.number(g, args.max)
    print(f"{args.command}: "
          f"{value if value is not None else f'exceeds {args.max}'}")
    return 0


def cmd_extend(args) -> int:
    g, _ = _read_graph(args)
    cycle = [int(t) for t in args.cycle.split(",")]
    colors = [int(t) for t in args.colors.split(",")]
    if len(cycle) != len(colors):
        raise gio.DocumentSyntaxError("cycle and colors differ in length")
    _check_cycle(g, cycle)
    if not all(1 <= c <= args.k for c in colors):
        raise ValueError(f"colors must lie in 1..{args.k}")
    pre = Precoloring.of(dict(zip(cycle, colors)))
    checked, valid, failures = _extension_counts(g, pre, args.k, args.samples,
                                                 args.seed)
    if args.samples:
        note = f"mode=sampled samples={args.samples} seed={args.seed}"
    else:
        note = "mode=exhaustive"
    if not valid:
        print(f"error: covers={checked} valid-for-precoloring=0 ({note}): "
              "the precoloring is valid under no cover, so the result is "
              "vacuous", file=sys.stderr)
        return 2
    print(f"covers={checked} valid-for-precoloring={valid} "
          f"failures={failures} ({note})")
    return 1 if failures else 0


def cmd_discharge(args) -> int:
    g, _ = _read_graph(args)
    report = audit(g, RULESETS[args.rules])
    print(report.to_text(), end="")
    summary = []
    summary.append(f"conservation={'ok' if report.conservation_ok else 'BROKEN'}")
    summary.append(f"replay={'ok' if report.replay_ok else 'BROKEN'}")
    a = report.accounting
    summary.append(f"s={a.s} s'={a.s_prime} f3={a.f3} f3'={a.f3_prime} "
                   f"t1={a.t1} t2={a.t2} b={a.b} k={a.k}")
    print("# " + " ".join(summary))
    for e, q in report.negative_elements:
        print(f"# negative: {e[0]}{e[1]} = {q}")
    return 1 if report.negative_elements else 0


def cmd_corpus(args) -> int:
    lo, _, hi = args.n.partition("..")
    spec = gio.CorpusSpec(int(lo), int(hi or lo), args.cls, seed=args.seed)
    if spec.n_min > spec.n_max:
        raise ValueError(f"empty size range {args.n}")
    for i, g in enumerate(gio.corpus_generate(spec)):
        print(f"# corpus graph {i}")
        print(gio.serialize_rotation_text(g))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="dpcolor",
        description="correspondence-coloring laboratory for plane graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("faces", help="list the faces of the embedding")
    _add_graph_arg(p)
    p.set_defaults(fn=cmd_faces)

    p = sub.add_parser("cycles", help="list simple cycles up to a length")
    _add_graph_arg(p)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("class", help="membership in the g1/g2 classes")
    _add_graph_arg(p)
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("structure", help="triangle patches, tags, checks")
    _add_graph_arg(p)
    p.add_argument("--lemmas", action="store_true",
                   help="run the structural checks")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("solve", help="find a transversal for one cover")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cover", help="rotation-text file with a covers: section")
    p.set_defaults(fn=cmd_solve)

    for name, number, text in (
            ("dp-chromatic", dp_chromatic,
             "exhaustive correspondence chromatic number"),
            ("list-chromatic", list_chromatic, "exact list-chromatic number")):
        p = sub.add_parser(name, help=text)
        _add_graph_arg(p)
        p.add_argument("--max", type=int, required=True)
        p.set_defaults(fn=cmd_chromatic, number=number)

    p = sub.add_parser("extend", help="check one cycle precoloring extends")
    _add_graph_arg(p)
    p.add_argument("--cycle", required=True, help="comma-separated vertices")
    p.add_argument("--colors", required=True, help="comma-separated colors")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=0,
                   help="sample covers instead of exhausting them")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("discharge", help="run and audit a discharging ruleset")
    _add_graph_arg(p)
    p.add_argument("--rules", required=True, choices=["g1", "g2"])
    p.set_defaults(fn=cmd_discharge)

    p = sub.add_parser("corpus", help="generate a graph corpus")
    p.add_argument("--n", required=True, help="size range A..B")
    p.add_argument("--class", dest="cls", choices=["g1", "g2"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_corpus)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (gio.DocumentError, PlaneGraphError, CoverError, FileNotFoundError,
            ValueError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
