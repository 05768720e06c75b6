"""Exact-rational discharging: charges, rules, transfer logs, and audits.

Charges live on vertices and faces: d(x) - 4 everywhere except the outer
face, which starts at d(D) + 4, so the grand total is exactly zero on any
accepted embedding.  A ruleset moves charge in numbered phases; every move
is logged and the log replays bit-exactly.  Two rulesets are provided:

* G1 - for graphs with no 4-cycle adjacent to a 5-cycle;
* G2 - for graphs with no 4-cycle adjacent to a 6-cycle.

Floating point is never used; all amounts are fractions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .plane_graph import PlaneGraph
from .structure import VertexFaceBadness, _Analysis, _face_groups

Element = tuple[str, int]  # ("v", vertex id) or ("f", face id)


class DischargingError(Exception):
    pass


class TagUnavailable(DischargingError):
    """Precomputed tags were supplied but lack something the rules need."""


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class ChargeLedger:
    """Exact charge per element plus a stage marker."""

    charges: dict[Element, Fraction]
    stage: str

    def total(self) -> Fraction:
        return sum(self.charges.values(), Fraction(0))

    def copy(self, stage: Optional[str] = None) -> "ChargeLedger":
        return ChargeLedger(dict(self.charges), stage or self.stage)

    def __getitem__(self, elem: Element) -> Fraction:
        return self.charges[elem]

    def lines(self) -> list[str]:
        out = []
        for (kind, i), q in sorted(self.charges.items()):
            out.append(f"{kind} {i} {_fmt(q)}")
        return out


@dataclass(frozen=True)
class Transfer:
    rule: str
    sender: Element
    receiver: Element
    amount: Fraction
    note: str = ""

    def line(self) -> str:
        s = f"{self.sender[0]}{self.sender[1]}"
        r = f"{self.receiver[0]}{self.receiver[1]}"
        return f"{self.rule} {s} {r} {_fmt(self.amount)}"


@dataclass
class TransferLog:
    entries: tuple[Transfer, ...]

    def replay(self, initial: ChargeLedger) -> ChargeLedger:
        led = initial.copy("final")
        for t in self.entries:
            led.charges[t.sender] -= t.amount
            led.charges[t.receiver] += t.amount
        return led

    def by_rule(self) -> dict[str, list[Transfer]]:
        out: dict[str, list[Transfer]] = {}
        for t in self.entries:
            out.setdefault(t.rule, []).append(t)
        return out

    def lines(self) -> list[str]:
        return [t.line() for t in self.entries]


Charges = dict[Element, Fraction]
RuleEmit = Callable[[_Analysis, Charges], Iterator[Transfer]]


@dataclass(frozen=True)
class Rule:
    """One numbered discharging rule: a guarded sender/receiver/amount
    recipe that reads the graph's analysis and the live charges."""

    id: str
    description: str
    emit: RuleEmit


@dataclass(frozen=True)
class RuleSet:
    id: str
    rules: tuple[Rule, ...]
    surplus_rule_id: str


def _outer_collects(rule_id: str, per_triangle: Fraction) -> RuleEmit:
    def emit(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
        g = an.g
        outer: Element = ("f", g.outer_face_id)
        for v in sorted(g.outer_vertices()):
            yield Transfer(rule_id, ("v", v), outer, Fraction(g.degree(v) - 4))
        for fid in an.outer_triangles:
            yield Transfer(rule_id, outer, ("f", fid), per_triangle)
    return emit


def _surplus(rule_id: str, min_len: int) -> RuleEmit:
    def emit(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
        outer: Element = ("f", an.g.outer_face_id)
        for f in an.bounded_faces(min_len):
            bal = charges[("f", f.id)]
            if bal > 0:
                yield Transfer(rule_id, ("f", f.id), outer, bal)
    return emit


# -- G1 rules ---------------------------------------------------------------


def _g1_r1(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    g = an.g
    for v in sorted(an.badness.internal_vertices):
        if g.degree(v) < 5:
            continue
        fs = an.badness.triangles_at_vertex[v]
        if not fs:
            continue  # no incident 3-face: the vertex keeps its charge
        share = Fraction(g.degree(v) - 4, len(fs))
        for fid in fs:
            yield Transfer("R1", ("v", v), ("f", fid), share)


def _g1_r2(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    for f in an.bounded_faces(5, 5):
        for fid in an.adjacency.neighbors(f.id):
            if fid in an.internal_triangles:
                amt = (Fraction(1, 3) if fid in an.all4_triangles
                       else Fraction(1, 6))
                yield Transfer("R2", ("f", f.id), ("f", fid), amt)


def _g1_r3(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    for f in an.bounded_faces(6):
        for fid in an.adjacency.neighbors(f.id):
            if fid in an.internal_triangles:
                t = an.adjacency.shared_edges(f.id, fid)
                rate = (Fraction(1, 2) if fid in an.badness.diamond_faces
                        else Fraction(1, 3))
                yield Transfer("R3", ("f", f.id), ("f", fid), rate * t)


RULESET_G1 = RuleSet("G1", (
    Rule("R1", "internal 5+-vertex splits its charge over incident 3-faces",
         _g1_r1),
    Rule("R2", "5-face pays 1/3 per adjacent internal all-4 triangle, "
               "1/6 per other adjacent internal 3-face", _g1_r2),
    Rule("R3", "6+-face pays t/2 per adjacent internal diamond 3-face, "
               "t/3 otherwise (t = shared edges)", _g1_r3),
    Rule("R4", "outer face collects d(v)-4 from its vertices and pays 1 "
               "per non-internal 3-face", _outer_collects("R4", Fraction(1))),
    Rule("R5", "every bounded face sends its positive balance to the outer "
               "face", _surplus("R5", 0)),
), surplus_rule_id="R5")


# -- G2 rules ---------------------------------------------------------------


def _g2_r1(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    g, tags = an.g, an.badness
    for v in sorted(tags.internal_vertices):
        d = g.degree(v)
        fs = tags.triangles_at_vertex[v]
        if d >= 6:
            for fid in fs:
                yield Transfer("R1", ("v", v), ("f", fid), Fraction(1, 2))
        elif d == 5 and v in tags.bad5:
            isolated = tags.isolated_triangles_at(v, an.adjacency)
            for fid in fs:
                amt = Fraction(1, 4) if fid in isolated else Fraction(3, 8)
                yield Transfer("R1", ("v", v), ("f", fid), amt)
        elif d == 5 and fs:
            share = Fraction(1, len(fs))
            for fid in fs:
                yield Transfer("R1", ("v", v), ("f", fid), share)


def _g2_r2(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    g = an.g
    for f in an.bounded_faces(5, 5):
        special = an.badness.special_faces.get(f.id, frozenset())
        for fid in an.adjacency.neighbors(f.id):
            if fid in an.internal_triangles and fid in an.all4_triangles:
                yield Transfer("R2", ("f", f.id), ("f", fid), Fraction(1, 3))
            elif (fid != g.outer_face_id and g.face(fid).length in (3, 4)
                  and fid not in special):
                yield Transfer("R2", ("f", f.id), ("f", fid), Fraction(1, 6))


def _g2_r3(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    for f in an.bounded_faces(4, 6):
        if f.length == 5:
            continue
        for fid in an.adjacency.neighbors(f.id):
            if fid in an.triangle_ids:
                yield Transfer("R3", ("f", f.id), ("f", fid), Fraction(1, 3))


def _g2_r4(an: _Analysis, charges: Charges) -> Iterator[Transfer]:
    g = an.g
    for f in an.bounded_faces(7):
        fv = f.vertex_set()
        for fid in an.adjacency.neighbors(f.id):
            ln = g.face(fid).length
            if fid == g.outer_face_id or ln not in (3, 4):
                continue
            t = an.adjacency.shared_edges(f.id, fid)
            if ln == 4:
                rate = Fraction(3, 7)
            else:
                shared_bad = len(fv & g.face(fid).vertex_set()
                                 & an.badness.bad4)
                rate = (Fraction(6, 7) if shared_bad >= 2
                        else Fraction(9, 14) if shared_bad == 1
                        else Fraction(3, 7))
            yield Transfer("R4", ("f", f.id), ("f", fid), rate * t)


RULESET_G2 = RuleSet("G2", (
    Rule("R1", "internal 6+-vertex pays 1/2 per incident 3-face; good "
               "5-vertex splits 1 evenly; bad 5-vertex pays 1/4 to its "
               "isolated 3-face and 3/8 to the adjacent pair", _g2_r1),
    Rule("R2", "5-face pays 1/3 per adjacent internal all-4 triangle and "
               "1/6 per other adjacent non-special 3- or 4-face", _g2_r2),
    Rule("R3", "4- and 6-faces pay 1/3 per adjacent 3-face", _g2_r3),
    Rule("R4", "7+-face pays 6t/7, 9t/14 or 3t/7 per adjacent small face "
               "by shared bad-4-vertex count (t = shared edges)", _g2_r4),
    Rule("R5", "outer face collects d(v)-4 from its vertices and pays 5/7 "
               "per non-internal 3-face",
         _outer_collects("R5", Fraction(5, 7))),
    Rule("R6", "every bounded 5+-face sends its positive balance to the "
               "outer face", _surplus("R6", 5)),
), surplus_rule_id="R6")


RULESETS = {"g1": RULESET_G1, "g2": RULESET_G2}


# -- operations --------------------------------------------------------------


def initial_charges(g: PlaneGraph) -> ChargeLedger:
    """d(x) - 4 on vertices and bounded faces, d(D) + 4 on the outer face."""
    charges: dict[Element, Fraction] = {}
    for v in range(g.vertex_count):
        charges[("v", v)] = Fraction(g.degree(v) - 4)
    for f in g.faces:
        if f.id == g.outer_face_id:
            charges[("f", f.id)] = Fraction(f.length + 4)
        else:
            charges[("f", f.id)] = Fraction(f.length - 4)
    led = ChargeLedger(charges, "initial")
    if led.total() != 0:
        raise DischargingError("initial charges do not sum to zero")
    return led


def run_discharging(g: PlaneGraph, ruleset: RuleSet,
                    tags: Optional[VertexFaceBadness] = None
                    ) -> tuple[ChargeLedger, TransferLog]:
    """Apply the ruleset's phases in order; returns final ledger and log.

    Within a phase, senders fire in element-id order, receivers in id
    order, so the log is reproducible; replaying it over the initial
    ledger reconstructs the final ledger exactly.  Supplied ``tags`` stand
    in for the graph's own vertex and face tags.
    """
    an = _Analysis(g)
    if tags is not None:
        if len(tags.triangles_at_vertex) != g.vertex_count:
            raise TagUnavailable("tags were computed for a different graph")
        an.badness = tags
    return _discharge(an, ruleset, initial_charges(g))


def _discharge(an: _Analysis, ruleset: RuleSet, initial: ChargeLedger
               ) -> tuple[ChargeLedger, TransferLog]:
    led = initial.copy("final")
    entries: list[Transfer] = []
    for rule in ruleset.rules:
        for t in rule.emit(an, led.charges):
            led.charges[t.sender] -= t.amount
            led.charges[t.receiver] += t.amount
            entries.append(t)
    return led, TransferLog(tuple(entries))


@dataclass
class BoundCheck:
    """One conditional inequality; ``holds`` is None when not applicable."""

    id: str
    applicable: bool
    holds: Optional[bool]
    violations: tuple = ()


@dataclass
class OuterAccounting:
    d_outer: int
    s: int
    s_prime: int
    f3: int
    f3_prime: int
    t1: int
    t2: int
    b: Fraction
    k: int
    g1_identity_applicable: bool = False
    g1_identity_holds: Optional[bool] = None
    g2_identity_applicable: bool = False
    g2_identity_holds: Optional[bool] = None


@dataclass
class DischargingReport:
    """One audited run.

    ``per_rule_balanced`` is True by construction: every transfer takes its
    amount from one element and gives it to another, so each rule sends
    exactly what it receives.
    """

    ruleset_id: str
    initial: ChargeLedger
    final: ChargeLedger
    log: TransferLog
    negative_elements: tuple[tuple[Element, Fraction], ...]
    accounting: OuterAccounting
    bound_checks: list[BoundCheck]
    conservation_ok: bool
    replay_ok: bool
    per_rule_balanced: bool
    nonneg_with_positive_outer: bool

    def to_text(self) -> str:
        lines = [f"ruleset {self.ruleset_id}"]
        lines += self.final.lines()
        lines += self.log.lines()
        return "\n".join(lines) + "\n"


def audit(g: PlaneGraph, ruleset: RuleSet) -> DischargingReport:
    """Run the ruleset and cross-check everything checkable.

    Conservation and log replay are always verified.  The outer-face
    accounting identities and the compensation lower bounds are evaluated
    only when their structural hypotheses hold for ``g`` (they come from
    arguments about highly constrained embeddings and are simply not
    claims about arbitrary graphs).
    """
    an = _Analysis(g)
    tags, tag = an.badness, an.tag
    initial = initial_charges(g)
    final, log = _discharge(an, ruleset, initial)
    by_rule = log.by_rule()

    conservation_ok = initial.total() == 0 and final.total() == 0
    replay_ok = log.replay(initial).charges == final.charges

    negative = tuple((e, q) for e, q in sorted(final.charges.items()) if q < 0)
    outer_id = g.outer_face_id
    outer_elem: Element = ("f", outer_id)
    nonneg_rest = all(q >= 0 for e, q in final.charges.items() if e != outer_elem)
    combo = nonneg_rest and final.charges[outer_elem] > 0

    # outer accounting ------------------------------------------------
    outer_verts = g.outer_vertices()
    d_outer = g.outer_face.length
    cross_edges = [(u, v) for u, v in g.edges()
                   if (u in outer_verts) != (v in outer_verts)]
    s = len(cross_edges)
    tri_edges = {e for f in an.triangles for e in f.edge_set()}
    s_prime = sum(1 for e in cross_edges if e not in tri_edges)
    f3 = len(an.outer_triangles)
    rpatches = _face_groups(an.adjacency, an.outer_triangles)
    t1 = sum(1 for p in rpatches if len(p) == 1)
    t2 = sum(1 for p in rpatches if len(p) == 2)
    touching = set(an.outer_triangles)
    f3_prime = sum(1 for p in an.patches if touching.issuperset(p.face_ids))
    surplus = {t.sender[1]: t.amount
               for t in by_rule.get(ruleset.surplus_rule_id, ())
               if t.receiver == outer_elem}
    b = sum(surplus.values(), Fraction(0))
    k = s - f3
    acct = OuterAccounting(d_outer, s, s_prime, f3, f3_prime, t1, t2, b, k)

    # a simple outer cycle with no chord and no shared interior neighbour
    chordless = an.outer_witnesses == ()

    def touch_outer(edges: Iterable[tuple[int, int]]) -> bool:
        return all(u in outer_verts or v in outer_verts for u, v in edges)

    if tag.in_g1:
        acct.g1_identity_applicable = (
            chordless
            and all(len(p) <= 2 for p in rpatches)
            and all(touch_outer(g.face(p[0]).edge_set() & g.face(p[1]).edge_set())
                    for p in rpatches if len(p) == 2))
        if acct.g1_identity_applicable:
            acct.g1_identity_holds = (f3 == t1 + 2 * t2
                                      and s == s_prime + 2 * t1 + 3 * t2)
    if tag.in_g2:
        # no patch partly touches the outer face; each is a tree (bounded
        # 3-faces share at most one edge) whose glued edges touch it
        acct.g2_identity_applicable = (
            chordless
            and all(touching.issuperset(p.face_ids)
                    or touching.isdisjoint(p.face_ids) for p in an.patches)
            and all(len(p.edges - p.boundary_edges) == p.size - 1
                    and touch_outer(p.edges - p.boundary_edges)
                    for p in an.patches))
        if acct.g2_identity_applicable:
            acct.g2_identity_holds = (s == s_prime + f3 + f3_prime)

    checks: list[BoundCheck] = []

    def check(check_id: str, applicable: bool, violations: list) -> None:
        checks.append(BoundCheck(check_id, applicable,
                                 not violations if applicable else None,
                                 tuple(violations)))

    # the preconditions verify_structural_lemmas reports, on the same facts
    hypotheses = chordless and bool(an.internal_vertices) and not an.low_degree

    if ruleset.id == "G1":
        applicable = (tag.in_g1 and hypotheses and d_outer >= 5
                      and not any(an.separating(7)))
        viol = []
        if applicable:
            bound = (Fraction(d_outer, 3) if k == 1
                     else Fraction(d_outer - k, 3))
            if not (k >= 1 and b >= bound):
                viol.append((k, b, bound))
        check("g1-outer-compensation", applicable, viol)
        # every internal 3-face receives >= 1/3 from each incident
        # 5+-vertex, provided that vertex obeys the incidence bound
        check("g1-vertex-share-floor", tag.in_g1, [
            t for t in by_rule.get("R1", ()) if tag.in_g1
            and t.receiver[1] in an.internal_triangles
            and (len(tags.triangles_at_vertex[t.sender[1]])
                 <= g.degree(t.sender[1]) - 2)
            and t.amount < Fraction(1, 3)])

    if ruleset.id == "G2":
        applicable = (tag.in_g2 and hypotheses and d_outer <= 8
                      and not an.bad_witnesses(g.outer_face.boundary)
                      and not any(an.separating(8, good=True)))
        share_viol, comp_viol = [], []
        if applicable:
            for f in an.bounded_faces(5):
                kf = an.adjacency.shared_edges(f.id, outer_id)
                if kf == 0:
                    continue
                sent = surplus.get(f.id, Fraction(0))
                floor = (Fraction(kf, 6) if f.length == 5
                         else Fraction(kf, 3) if f.length == 6
                         else Fraction(3 * kf, 7))
                if sent < floor:
                    share_viol.append((f.id, kf, sent, floor))
            comp_bound = Fraction(d_outer - 3 * f3_prime - s_prime, 3)
            if b < comp_bound:
                comp_viol.append((b, comp_bound))
        check("g2-face-share-lower-bounds", applicable, share_viol)
        check("g2-outer-compensation", applicable, comp_viol)
        # total sent by each 7+-face under R4 is at most 3/7 of its length
        sent_by_face: Counter[int] = Counter()
        for t in by_rule.get("R4", ()) if tag.in_g2 else ():
            sent_by_face[t.sender[1]] += t.amount
        check("g2-edge-carry-bound", tag.in_g2, [
            (fid, total) for fid, total in sent_by_face.items()
            if total > Fraction(3 * g.face(fid).length, 7)])

    return DischargingReport(
        ruleset_id=ruleset.id,
        initial=initial,
        final=final,
        log=log,
        negative_elements=negative,
        accounting=acct,
        bound_checks=checks,
        conservation_ok=conservation_ok,
        replay_ok=replay_ok,
        per_rule_balanced=True,
        nonneg_with_positive_outer=combo)
