"""Gradient flow traces, event bookkeeping, boundary values on the unknot."""

import numpy as np
import pytest

from cordalg.energy import energy, find_critical_points
from cordalg.errors import GenericityViolation
from cordalg.flow import (
    FlowContext,
    FlowTrace,
    _Step,
    _Tracer,
    _state,
    _torus_delta,
    boundary_D,
    dhat_of_trace,
    select_k_pm,
    terminal_generator_values,
)
from cordalg.knots import build_curve, build_framing
from cordalg.ring import AlgebraElement as A, parse, serialize


@pytest.fixture(scope="module")
def unknot():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.875})
    framing = build_framing(curve)
    points = find_critical_points(curve)
    ctx = FlowContext(curve, framing, points)
    return curve, framing, ctx


def test_unknot_boundary_values_golden(unknot):
    curve, framing, ctx = unknot
    got = {}
    for k in ctx.saddles:
        D, _, _ = boundary_D(curve, framing, k, ctx)
        got[k.label] = D
    assert got["h1_s"] == parse("1 - u - l^-1 + l^-1 u")
    assert got["h1_t"] == parse("-1 + u + l - l u")


def test_trace_event_structure(unknot):
    curve, framing, ctx = unknot
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    plus, minus, flagged = select_k_pm(curve, framing, k, ctx)
    assert not flagged
    trp = _Tracer(ctx, origin_saddle=k).run(*plus)
    trm = _Tracer(ctx, origin_saddle=k).run(*minus)
    assert trp.terminal == "contractible" and trp.events == []
    assert trm.terminal == "contractible"
    assert [(e.kind, e.sigma) for e in trm.events] == [("B-end", 1)]


def test_energy_monotone_along_path(unknot):
    curve, framing, ctx = unknot
    for k in ctx.saddles:
        plus, minus, _ = select_k_pm(curve, framing, k, ctx)
        for start in (plus, minus):
            tr = _Tracer(ctx, origin_saddle=k).run(*start)
            es = [energy(curve, s, t) for (_tau, s, t) in tr.path]
            assert all(b < a for a, b in zip(es, es[1:]))
            assert tr.energy_drop[1] < tr.energy_drop[0]


def test_trace_inside_basin_is_trivial(unknot):
    curve, framing, ctx = unknot
    # no index-0 minima on the unknot besides the diagonal: a cord close to
    # the diagonal terminates contractible immediately
    tr = _Tracer(ctx).run(1.0, 1.0 + 0.1)
    assert tr.terminal == "contractible"
    assert tr.events == []
    assert dhat_of_trace(tr, {}) == A.one() - A.mu()


def test_select_k_pm_descends_both_sides(unknot):
    curve, framing, ctx = unknot
    k = ctx.saddles[0]
    plus, minus, _ = select_k_pm(curve, framing, k, ctx)
    e0 = energy(curve, k.s, k.t)
    assert energy(curve, *plus) < e0
    assert energy(curve, *minus) < e0
    # startpoint offset follows the knot orientation
    L = curve.L
    assert (plus[0] - k.s) % L < L / 2


def test_dhat_fold_with_synthetic_split():
    child1 = FlowTrace(initial=(0, 0), events=[], terminal="g1",
                       left=(0, 1), right=(0, 0), splits=[], energy_drop=(1, 0))
    child2 = FlowTrace(initial=(0, 0), events=[], terminal="contractible",
                       left=(0, 0), right=(-1, 0), splits=[], energy_drop=(1, 0))
    parent = FlowTrace(
        initial=(0, 0), events=[], terminal="g2", left=(0, 0), right=(1, 0),
        splits=[{
            "time": 1.0, "sign": -1,
            "left": (0, -1), "right": (0, 0),
            "children": (child1, child2), "hit": (0, 0.5), "lengths": (3, 1, 1),
        }],
        energy_drop=(2, 0),
    )
    vals = {"g1": A.gen("g1"), "g2": A.gen("g2")}
    got = dhat_of_trace(parent, vals)
    expect = (A.gen("g2") * A.lam()
              - A.mu(-1) * (A.mu() * A.gen("g1"))
              * ((A.one() - A.mu()) * A.lam(-1)))
    assert got == expect


def test_end_point_basepoint_crossing_gives_inverse_lambda(unknot):
    """The pinned rule: an end-point event with direction sigma contributes
    lambda^-sigma on the right."""
    curve, framing, ctx = unknot
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    _plus, minus, _ = select_k_pm(curve, framing, k, ctx)
    trm = _Tracer(ctx, origin_saddle=k).run(*minus)
    assert [(e.kind, e.sigma, e.exponent) for e in trm.events] == [("B-end", 1, -1)]
    assert (trm.left, trm.right) == ((0, 0), (-1, 0))
    vals = terminal_generator_values(ctx)
    assert dhat_of_trace(trm, vals) == (A.one() - A.mu()) * A.lam(-1)


def test_contractible_value_is_one_minus_mu(unknot):
    curve, framing, ctx = unknot
    # a cord displaced from the saddle toward the diagonal contracts and
    # yields exactly 1 - u
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    plus, _minus, _ = select_k_pm(curve, framing, k, ctx)
    tr = _Tracer(ctx, origin_saddle=k).run(*plus)
    assert tr.terminal == "contractible"
    assert dhat_of_trace(tr, {}) == A.one() - A.mu()


def test_interpolant_endpoint_is_the_accepted_step(unknot):
    curve, framing, ctx = unknot
    L = curve.L
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    _plus, minus, _ = select_k_pm(curve, framing, k, ctx)
    y0 = np.array(minus)
    f, _e, (h11, h12, h22), _terms = _state(ctx, y0)
    h = 0.7
    step = _Step(y0, h, f, (h11, h12, h22), L)
    # Rosenbrock-Euler: y0 + h (I + h H)^-1 f at theta = 1, y0 at theta = 0
    expect = y0 + h * np.linalg.solve(
        np.eye(2) + h * np.array([[h11, h12], [h12, h22]]), f)
    assert np.allclose(step.at(1.0), expect % L, rtol=0, atol=1e-12 * L)
    assert np.allclose(step.at(0.0), y0, rtol=0, atol=0)
    # every accepted step of a real trace is the interpolant's endpoint
    tr = _Tracer(ctx, origin_saddle=k).run(*minus)
    assert len(tr.path) > 2
    for (tau0, s0, t0), (tau1, s1, t1) in zip(tr.path, tr.path[1:]):
        ya = np.array([s0, t0])
        fa, _ea, Ha, _terms = _state(ctx, ya)
        yb = _Step(ya, tau1 - tau0, fa, Ha, L).at(1.0)
        assert np.hypot(*_torus_delta(yb, (s1, t1), L)) < 1e-9 * L


def test_saddle_guard_checks_the_whole_segment(unknot):
    curve, framing, ctx = unknot
    L = curve.L
    p = ctx.saddles[0]
    r = ctx.tol.trajectory_tol * L
    center = np.array([p.s, p.t])
    tracer = _Tracer(ctx)
    # both endpoints outside the ball, the segment through its center
    y0 = (center + [-1.5 * r, 0.2 * r]) % L
    y1 = (center + [1.5 * r, -0.2 * r]) % L
    assert np.hypot(*_torus_delta(y0, center, L)) > r
    assert np.hypot(*_torus_delta(y1, center, L)) > r
    with pytest.raises(GenericityViolation):
        tracer._saddle_guard(y0, y1)
    # a parallel segment that passes outside the ball
    tracer._saddle_guard((y0 + [0.0, 2.0 * r]) % L, (y1 + [0.0, 2.0 * r]) % L)
    # the trace's own origin saddle is exempt
    _Tracer(ctx, origin_saddle=p)._saddle_guard(y0, y1)
