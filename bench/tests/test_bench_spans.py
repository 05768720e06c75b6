"""Span recording and self time."""

import time

from spans import Tracer, self_times


def test_spans_nest_and_self_time_excludes_children():
    tr = Tracer(True)
    tr.op_id, tr.phase = 7, "op"

    def inner():
        time.sleep(0.02)
        return "inner"

    def outer():
        time.sleep(0.01)
        return tr.call("child", inner)

    assert tr.call("parent", outer) == "inner"
    (name0, s0, e0, p0, op0, ph0), (name1, s1, e1, p1, op1, ph1) = tr.spans
    assert (name0, p0, op0, ph0) == ("parent", -1, 7, "op")
    assert (name1, p1) == ("child", 0)
    own = self_times(tr.spans)
    assert abs(own[0] - ((e0 - s0) - (e1 - s1))) < 1e-9
    assert own[1] == e1 - s1


def test_untraced_calls_record_nothing():
    tr = Tracer(False)
    assert tr.call("x", max, 1, 2) == 2
    assert tr.spans == []
