"""Answer checks, written against the public API of ``dpcolor`` only.

Each check returns a list of failure messages; an empty list means the
answer passed.  Checks run outside the timed part of an op.
"""

from __future__ import annotations

from typing import Optional, Sequence

from dpcolor import (Cover, PlaneGraph, Precoloring, Transversal, cover_graph,
                     extend_precoloring, find_transversal)


def transversal_failures(g: PlaneGraph, cover: Cover, t: Transversal,
                         pre: Optional[Precoloring] = None) -> list[str]:
    """Re-check a transversal against its cover, edge by edge."""
    out = []
    if len(t.assignment) != g.vertex_count:
        return [f"transversal has {len(t.assignment)} colors for "
                f"{g.vertex_count} vertices"]
    for v, c in enumerate(t.assignment):
        if c not in cover.lists[v]:
            out.append(f"vertex {v}: color {c} not in its list")
    for u, v in g.edges():
        if cover.matched_color(u, t.color(u), v) == t.color(v):
            out.append(f"edge ({u},{v}): colors {t.color(u)},{t.color(v)} "
                       "are matched")
    if pre is not None:
        for v, c in pre.items:
            if t.color(v) != c:
                out.append(f"precolored vertex {v} changed {c}->{t.color(v)}")
    return out


def counterexample_failures(g: PlaneGraph, cover: Cover) -> list[str]:
    """A reported bad cover must have no transversal."""
    t = find_transversal(cover_graph(g, cover))
    if t is not None:
        return [f"counterexample cover has transversal {t.assignment}"]
    return []


def failed_extension_failures(g: PlaneGraph, cover: Cover,
                              pre: Precoloring) -> list[str]:
    """A reported non-extendable precoloring must not extend."""
    t = extend_precoloring(g, cover, pre)
    if t is not None:
        return [f"reported failure {pre.items} extends to {t.assignment}"]
    return []


def chain_failures(chi: Optional[int], ch: Optional[int],
                   dp: Optional[int]) -> list[str]:
    """chromatic <= list_chromatic <= dp_chromatic, wherever all resolve."""
    if None in (chi, ch, dp):
        return []
    if not chi <= ch <= dp:
        return [f"chain broken: chi={chi} ch={ch} chi_DP={dp}"]
    return []


def planar_five_cover_failures(t: Optional[Transversal]) -> list[str]:
    """Planar graphs are DP-5-colorable, so a 5-cover always has one."""
    if t is None:
        return ["no transversal for a 5-cover of a planar graph"]
    return []


def audit_failures(report) -> list[str]:
    """Every audit must conserve charge, replay its log and balance per rule."""
    out = []
    for flag in ("conservation_ok", "replay_ok", "per_rule_balanced"):
        if not getattr(report, flag):
            out.append(f"audit {report.ruleset_id}: {flag} is false")
    return out


def valid_precoloring(g: PlaneGraph, cover: Cover,
                      vertices: Sequence[int]) -> Optional[Precoloring]:
    """Smallest-color precoloring of ``vertices`` valid under ``cover``."""
    chosen: dict[int, int] = {}
    for v in vertices:
        for c in cover.lists[v]:
            if all(cover.matched_color(u, chosen[u], v) != c
                   for u in g.neighbors(v) if u in chosen):
                chosen[v] = c
                break
        else:
            return None
    return Precoloring.of(chosen)
