"""Charge ledgers, rule execution, logs, and audits."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dpcolor import (RULESET_G1, RULESET_G2, Face, PlaneGraph, TagUnavailable,
                     audit, build_from_rotation, classify_vertices_and_faces,
                     initial_charges, run_discharging)
from dpcolor.discharging import DischargingError


def test_initial_charges_c7(c7):
    led = initial_charges(c7)
    outer = ("f", c7.outer_face_id)
    inner = ("f", 1 - c7.outer_face_id)
    assert led[outer] == 11
    assert led[inner] == 3
    assert all(led[("v", v)] == -2 for v in range(7))
    assert led.total() == 0


def test_initial_charges_k4(k4):
    led = initial_charges(k4)
    assert led[("f", k4.outer_face_id)] == 7
    inner = [f.id for f in k4.faces if f.id != k4.outer_face_id]
    assert all(led[("f", i)] == -1 for i in inner)
    assert all(led[("v", v)] == -1 for v in range(4))
    assert led.total() == 0


def test_initial_charges_w4(w4):
    led = initial_charges(w4)
    assert led[("f", w4.outer_face_id)] == 8
    assert led[("v", 4)] == 0
    assert all(led[("v", v)] == -1 for v in range(4))
    assert led.total() == 0


def test_initial_charges_reject_faces_that_do_not_close(k4):
    # built through the constructor, past build_from_rotation's checks: the
    # outer face has lost a corner, so the charges no longer sum to zero
    faces = tuple(Face(f.id, f.boundary[:-1]) if f.id == k4.outer_face_id
                  else f for f in k4.faces)
    broken = PlaneGraph(k4.vertex_count, k4.rotations, faces,
                        k4.outer_face_id, {})
    with pytest.raises(DischargingError):
        initial_charges(broken)


def test_c7_g1_run_matches_hand_replay(c7):
    final, log = run_discharging(c7, RULESET_G1)
    # independent replay: only the vertex collection and the inner-face
    # surplus move; every balance finishes at exactly zero
    balances = {e: q for e, q in initial_charges(c7).charges.items()}
    for t in log.entries:
        balances[t.sender] -= t.amount
        balances[t.receiver] += t.amount
    assert balances == final.charges
    assert all(q == 0 for q in final.charges.values())
    rules_used = {t.rule for t in log.entries}
    assert rules_used == {"R4", "R5"}
    r4 = [t for t in log.entries if t.rule == "R4"]
    assert len(r4) == 7 and all(t.amount == -2 for t in r4)
    r5 = [t for t in log.entries if t.rule == "R5"]
    assert len(r5) == 1 and r5[0].amount == 3


def test_vacuous_rules_on_quad(c4):
    _, log = run_discharging(c4, RULESET_G1)
    assert {t.rule for t in log.entries} == {"R4"}
    assert all(t.sender[0] == "v" for t in log.entries)


def test_replay_deterministic(w4, octahedron):
    for g in (w4, octahedron):
        for ruleset in (RULESET_G1, RULESET_G2):
            a = run_discharging(g, ruleset)
            b = run_discharging(g, ruleset)
            assert a[1].entries == b[1].entries
            assert a[0].charges == b[0].charges


def test_supplied_tags_drive_the_rules(corpus_n6, k4, octahedron):
    # the graph's own tags, passed in, reproduce the default run exactly
    for g in corpus_n6:
        tags = classify_vertices_and_faces(g)
        for ruleset in (RULESET_G1, RULESET_G2):
            final, log = run_discharging(g, ruleset)
            final_t, log_t = run_discharging(g, ruleset, tags=tags)
            assert final_t.lines() == final.lines()
            assert log_t.lines() == log.lines()
    # tags of another graph do not fit
    with pytest.raises(TagUnavailable):
        run_discharging(k4, RULESET_G1, tags=classify_vertices_and_faces(
            octahedron))


def test_audit_basics(corpus_n6):
    rng = random.Random(23)
    for g in rng.sample(corpus_n6, 25):
        for ruleset in (RULESET_G1, RULESET_G2):
            rep = audit(g, ruleset)
            assert rep.conservation_ok
            assert rep.replay_ok
            assert rep.per_rule_balanced
            assert not rep.nonneg_with_positive_outer


def test_audit_negative_elements_reported(k4):
    rep = audit(k4, RULESET_G1)
    assert (("v", 3), Fraction(-1)) in rep.negative_elements


def test_g2_fixture_outer_compensation_bound():
    # an 8-ring with one inner ear: in-class, chordless outer 8-cycle
    ring = [((v - 1) % 8, (v + 1) % 8) for v in range(8)]
    rot = [tuple(r) for r in ring]
    rot[0] = (7, 8, 1)   # vertex 0 also sees the ear
    rot[1] = (0, 8, 2)
    rot.append((1, 0))   # ear vertex 8 between 0 and 1, drawn inside
    g = build_from_rotation(9, rot, outer_face_hint=list(range(8)))
    assert g.outer_face.length == 8
    rep = audit(g, RULESET_G2)
    a = rep.accounting
    assert a.f3 == 1 and a.f3_prime == 1 and a.s_prime == 0 and a.s == 2
    # measured compensation beats the (d(D) - 3 f3' - s')/3 floor
    assert a.b >= Fraction(g.outer_face.length - 3 * a.f3_prime - a.s_prime, 3)
    assert rep.conservation_ok and rep.replay_ok


def test_g1_identity_on_ear_fixture():
    ring = [((v - 1) % 7, (v + 1) % 7) for v in range(7)]
    rot = [tuple(r) for r in ring]
    rot[0] = (6, 7, 1)
    rot[1] = (0, 7, 2)
    rot.append((1, 0))
    g = build_from_rotation(8, rot, outer_face_hint=list(range(7)))
    rep = audit(g, RULESET_G1)
    a = rep.accounting
    assert a.g1_identity_applicable
    assert a.g1_identity_holds
    assert a.f3 == a.t1 + 2 * a.t2
    assert a.s == a.s_prime + 2 * a.t1 + 3 * a.t2


def test_bound_checks_never_fail_on_corpus(corpus_n6):
    rng = random.Random(29)
    for g in rng.sample(corpus_n6, 30):
        for ruleset in (RULESET_G1, RULESET_G2):
            rep = audit(g, ruleset)
            for check in rep.bound_checks:
                assert check.holds is not False, (g.rotations, check)


def test_report_text_format(c7):
    rep = audit(c7, RULESET_G1)
    text = rep.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "ruleset G1"
    assert any(line.startswith("v 0 ") for line in lines)
    assert any(line.startswith("R4 v0 f") for line in lines)
    # charge lines are kind id num/den
    for line in lines[1:]:
        parts = line.split()
        assert "/" in parts[-1]


def test_exact_rational_denominators(corpus_n6):
    rng = random.Random(31)
    for g in rng.sample(corpus_n6, 15):
        _, log = run_discharging(g, RULESET_G2)
        for t in log.entries:
            assert isinstance(t.amount, Fraction)


def test_denominators_stay_within_rule_lcm(corpus_g1_n6, corpus_g2_n6):
    # sums of the rule amounts keep denominators inside lcm(1..8, 14, 28)
    bound = 840
    for corpus, ruleset in ((corpus_g1_n6, RULESET_G1),
                            (corpus_g2_n6, RULESET_G2)):
        for g in corpus[:40]:
            final, log = run_discharging(g, ruleset)
            for t in log.entries:
                assert bound % t.amount.denominator == 0
            for q in final.charges.values():
                assert bound % q.denominator == 0
