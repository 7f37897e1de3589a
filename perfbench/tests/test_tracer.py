from __future__ import annotations

import pytest

import gaquot
from gqbench import tracer as tracing


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 10]
    #    1: [1, 3] and 2: [2, 4] overlap, so they cover [1, 4] once
    #    3: [5, 6] with grandchild 4: [5.2, 5.5]
    #    5: [9, 12] runs past its parent; only [9, 10] counts against the root
    start = [0.0, 1.0, 2.0, 5.0, 5.2, 9.0]
    end = [10.0, 3.0, 4.0, 6.0, 5.5, 12.0]
    parent = [-1, 0, 0, 0, 3, 0]
    got = tracing.self_times(start, end, parent)
    want = [10 - 3 - 1 - 1, 2.0, 2.0, 1 - 0.3, 0.3, 3.0]
    assert got == pytest.approx(want)


def test_totals_split_by_phase():
    t = tracing.Tracer()
    t.names[:] = ["a", "b"]
    for op_phase, spans in (("setup", [(0, 0.0, 4.0, -1), (1, 1.0, 2.0, 0)]),
                            ("pass", [(1, 5.0, 8.0, -1)])):
        op = t.begin_op(op_phase)
        base = len(t.span_name)
        for sid, s, e, p in spans:
            t.span_name.append(sid)
            t.span_op.append(op)
            t.parent.append(p if p < 0 else base + p)
            t.start.append(s)
            t.end.append(e)
        t.count("x.found", 2)
        t.end_op()
    totals = t.totals()
    assert totals["setup"]["a.self_s"] == pytest.approx(3.0)
    assert totals["setup"]["b.calls"] == 1
    assert totals["pass"]["b.self_s"] == pytest.approx(3.0)
    assert totals["pass"]["x.found"] == 2


def test_install_reaches_every_binding_site_and_uninstall_restores_them():
    assert tracing.wrapped_sites() == []
    fx = gaquot.fixture("winkelmann")
    t = tracing.Tracer()
    t.install()
    try:
        assert "gaquot.classify.extend" in tracing.wrapped_sites()
        assert "Poly.__mul__" in tracing.wrapped_sites()
        t.begin_op("pass")
        report = gaquot.classify(fx.spec, fx.f, fx.graph)
        t.end_op()
        gaquot.classify(fx.spec, fx.f, fx.graph)  # no op open: not recorded
    finally:
        t.uninstall()
    assert tracing.wrapped_sites() == []
    assert report.verdict is fx.expected_verdict
    totals = t.totals()["pass"]
    # a certified classify extends f itself, then f and f - f(0) inside the crosscheck
    assert totals["transfer.extend.calls"] == 3
    assert totals["classify.classify.calls"] == 1
    assert totals["transfer.extend.terms_out"] > 0
    assert totals["linalg.rref.cells"] > 0
    assert totals["poly.mul.calls"] > 0
