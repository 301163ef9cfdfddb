"""Gradient flow traces, event bookkeeping, boundary values on the unknot."""

import json
from pathlib import Path

import numpy as np
import pytest

from cordalg import flow
from cordalg.energy import cord_terms, energy, find_critical_points, mirror_partners
from cordalg.errors import GenericityViolation, MirrorMismatch
from cordalg.flow import (
    FlowContext,
    FlowTrace,
    TraceEvent,
    _contracts_at_basepoint,
    _Step,
    _Tracer,
    _event_free,
    _nearest_branch,
    _state,
    _torus_delta,
    boundary_D,
    dhat_of_trace,
    mirror_boundary_D,
    mirror_trace,
    select_k_pm,
    terminal_generator_values,
)
from cordalg.knots import build_curve, build_framing
from cordalg.pipeline import compute_cord_algebra, setup_knot
from cordalg.ring import AlgebraElement as A, parse
from cordalg.tolerances import DEFAULT_TOL


@pytest.fixture(scope="module")
def unknot():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.875})
    framing = build_framing(curve)
    points = find_critical_points(curve)
    ctx = FlowContext(curve, framing, points)
    return curve, framing, ctx


@pytest.fixture(scope="module")
def bare_ellipse():
    """The ellipse at its own basepoint, whose k- contracts next to it."""
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1})
    framing = build_framing(curve)
    return curve, framing, FlowContext(curve, framing, find_critical_points(curve))


def test_unknot_boundary_values_golden(unknot):
    curve, framing, ctx = unknot
    got = {}
    for k in ctx.saddles:
        D, _, _ = boundary_D(curve, framing, k, ctx)
        got[k.label] = D
    assert got["h1_s"] == parse("1 - u - l^-1 + l^-1 u")
    assert got["h1_t"] == parse("-1 + u + l - l u")


def test_swapped_saddle_is_the_mirror_of_its_partner(unknot):
    """Flowing h1_t directly gives the value derived from h1_s's traces,
    along the mirrored paths bit for bit."""
    curve, framing, ctx = unknot
    saddles = {k.label: k for k in ctx.saddles}
    partners = mirror_partners(ctx.minima + ctx.saddles)
    assert partners["h1_t"] == "h1_s"
    _D, trp, trm = boundary_D(curve, framing, saddles["h1_s"], ctx)
    derived, dp, dm = mirror_boundary_D(curve, saddles["h1_t"], (trp, trm),
                                        partners, ctx)
    flowed, fp, fm = boundary_D(curve, framing, saddles["h1_t"], ctx)
    assert derived == flowed
    assert (dp.path, dm.path) == (fp.path, fm.path)
    assert {dp.terminal, dm.terminal} == {fp.terminal, fm.terminal}
    assert (dp.left, dp.right, dm.left, dm.right) == \
        (fp.left, fp.right, fm.left, fm.right)
    # the unswapped saddle's start points are not the mirrored ones
    with pytest.raises(MirrorMismatch):
        mirror_boundary_D(curve, saddles["h1_s"], (trp, trm), partners, ctx)


def test_mirror_of_a_synthetic_split():
    """A split's sign, birth meridian, monomials, children and chord
    fraction follow the cord reversal."""
    child1 = FlowTrace(initial=(1.0, 3.0), events=[], terminal="g_s",
                       left=(0, 1), right=(0, 0), splits=[])
    child2 = FlowTrace(initial=(3.0, 2.0), events=[], terminal="contractible",
                       left=(0, 0), right=(-1, 0), splits=[])
    parent = FlowTrace(
        initial=(1.0, 2.0), events=[], terminal="g_t", left=(1, 0), right=(0, 2),
        splits=[{"time": 1.0, "sign": -1, "birth_mu": -1, "left": (0, -1),
                 "right": (2, 0), "children": (child1, child2),
                 "hit": (3.0, 0.25)}],
        path=[(0.0, 1.0, 2.0)],
    )
    m = mirror_trace(parent, {"g_s": "g_t", "g_t": "g_s"})
    assert (m.initial, m.terminal, m.left, m.right, m.path) == \
        ((2.0, 1.0), "g_s", (0, -2), (-1, 0), [(0.0, 2.0, 1.0)])
    sp = m.splits[0]
    assert (sp["sign"], sp["birth_mu"], sp["left"], sp["right"], sp["hit"]) == \
        (1, 0, (-2, 0), (0, 1), (3.0, 0.75))
    c1, c2 = sp["children"]
    assert (c1.initial, c1.terminal, c1.left, c1.right) == \
        ((2.0, 3.0), "contractible", (1, 0), (0, 0))
    assert (c2.initial, c2.terminal, c2.left, c2.right) == \
        ((3.0, 1.0), "g_t", (0, 0), (0, -1))
    assert mirror_trace(m, {"g_s": "g_t", "g_t": "g_s"}) == parent


def _contracts(curve, tr):
    return _contracts_at_basepoint(curve, tr.path[-1][1:], tr.events)


def test_contraction_rule_is_swap_invariant(unknot, bare_ellipse):
    """The contraction-point rule gives a trace and its mirror the same
    answer: on the unknot's traces, on the bare ellipse's, and on synthetic
    traces whose last event is a B-start near the diagonal or a split after
    it."""
    answers = []
    for c, _f, cx in (unknot, bare_ellipse):
        partners = mirror_partners(cx.minima + cx.saddles)
        for k in cx.saddles:
            for start in select_k_pm(c, k, cx):
                tr = _Tracer(cx).run(*start)   # a free trace is exempt
                assert tr.terminal == "contractible"
                answers.append(_contracts(c, tr))
                assert _contracts(c, mirror_trace(tr, partners)) == answers[-1]
    assert answers == [False] * 4 + [False, True, True, False]

    curve = unknot[0]
    L = curve.L
    tube = DEFAULT_TOL.diag_tube * L
    b_start = TraceEvent(time=0.5, kind="B-start", sigma=1, exponent=1,
                         state=(1e-12, 2.0 * tube))
    split = TraceEvent(time=0.7, kind="split", sigma=-1, exponent=0,
                       state=(0.1 * L, 0.1 * L + 5.0 * tube))
    end = (0.3 * L, 0.3 * L + 0.5 * tube)   # far from the basepoint
    for events, expect in (([b_start], True), ([b_start, split], False)):
        tr = FlowTrace(initial=(0.2 * L, 0.4 * L), events=events,
                       terminal="contractible", left=(1, 0), right=(0, 0),
                       splits=[], path=[(0.0, 0.2 * L, 0.4 * L), (1.0, *end)])
        assert _contracts(curve, tr) == expect
        assert _contracts(curve, mirror_trace(tr, {})) == expect


def test_boundary_value_refuses_a_contraction_at_the_basepoint(bare_ellipse):
    """The flow itself raises the basepoint retry, for either saddle of the
    pair."""
    curve, framing, ctx = bare_ellipse
    for k in ctx.saddles:
        with pytest.raises(GenericityViolation, match="contraction point") as info:
            boundary_D(curve, framing, k, ctx)
        assert info.value.reason == "basepoint"


def test_trace_event_structure(unknot):
    curve, framing, ctx = unknot
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    plus, minus = select_k_pm(curve, k, ctx)
    trp = _Tracer(ctx, origin_saddle=k).run(*plus)
    trm = _Tracer(ctx, origin_saddle=k).run(*minus)
    assert trp.terminal == "contractible" and trp.events == []
    assert trm.terminal == "contractible"
    assert [(e.kind, e.sigma) for e in trm.events] == [("B-end", 1)]


def test_energy_monotone_along_path(unknot):
    curve, framing, ctx = unknot
    for k in ctx.saddles:
        for start in select_k_pm(curve, k, ctx):
            tr = _Tracer(ctx, origin_saddle=k).run(*start)
            es = [energy(curve, s, t) for (_tau, s, t) in tr.path]
            assert len(es) > 1
            assert all(b < a for a, b in zip(es, es[1:]))


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
    plus, minus = select_k_pm(curve, k, ctx)
    e0 = energy(curve, k.s, k.t)
    assert energy(curve, *plus) < e0
    assert energy(curve, *minus) < e0
    # startpoint offset follows the knot orientation
    L = curve.L
    assert (plus[0] - k.s) % L < L / 2


def test_dhat_fold_with_synthetic_split():
    child1 = FlowTrace(initial=(0, 0), events=[], terminal="g1",
                       left=(0, 1), right=(0, 0), splits=[])
    child2 = FlowTrace(initial=(0, 0), events=[], terminal="contractible",
                       left=(0, 0), right=(-1, 0), splits=[])
    parent = FlowTrace(
        initial=(0, 0), events=[], terminal="g2", left=(0, 0), right=(1, 0),
        splits=[{
            "time": 1.0, "sign": -1, "birth_mu": 0,
            "left": (0, -1), "right": (0, 0),
            "children": (child1, child2), "hit": (0, 0.5),
        }],
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
    _plus, minus = select_k_pm(curve, k, ctx)
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
    plus, _minus = select_k_pm(curve, k, ctx)
    tr = _Tracer(ctx, origin_saddle=k).run(*plus)
    assert tr.terminal == "contractible"
    assert dhat_of_trace(tr, {}) == A.one() - A.mu()


def test_interpolant_endpoint_is_the_accepted_step(unknot):
    curve, framing, ctx = unknot
    L = curve.L
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    _plus, minus = select_k_pm(curve, k, ctx)
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


def test_interpolant_stays_within_the_step(unknot):
    """|y(theta) - y0| grows with theta, also where H has a negative
    eigenvalue, so the whole interpolant lies within |y(1) - y0| of y0."""
    curve, framing, ctx = unknot
    k = next(p for p in ctx.saddles if p.label == "h1_s")
    plus, _minus = select_k_pm(curve, k, ctx)
    y0 = np.array(plus)
    f, _e, H, _terms = _state(ctx, y0)
    h11, h12, h22 = H
    lam_min = 0.5 * (h11 + h22) - np.hypot(0.5 * (h11 - h22), h12)
    assert lam_min < 0.0
    step = _Step(y0, 0.49 / -lam_min, f, H, curve.L)
    norms = [np.hypot(*step.delta(theta)) for theta in np.linspace(0.0, 1.0, 65)]
    assert norms[0] == 0.0
    assert all(a < b for a, b in zip(norms, norms[1:]))
    # the growth is more than the first-order step h |f|
    assert norms[-1] > step.h * np.hypot(*f)


def test_branch_matching_takes_the_nearest(unknot):
    """A new branch is matched to the nearest previous branch in the
    window, not to the first one listed."""
    curve, _framing, ctx = unknot
    w = 8.0 * ctx.screen.step
    far = (1.0 + 0.7 * w, 1.0, 0.5, None, 0.0)
    near = (1.0 - 0.2 * w, -1.0, 0.5, None, 0.0)
    assert _nearest_branch(curve, [far, near], 1.0, w) is near
    assert _nearest_branch(curve, [near, far], 1.0, w) is near
    assert _nearest_branch(curve, [far], 1.0, w) is far
    assert _nearest_branch(curve, [far], 1.0, 0.5 * w) is None
    assert _nearest_branch(curve, [], 1.0, w) is None
    # across the basepoint: L - 0.1 w is 0.2 w from 0.1 w
    ahead = (0.6 * w, 1.0, 0.5, None, 0.0)
    wrapped = (curve.L - 0.1 * w, 1.0, 0.5, None, 0.0)
    assert _nearest_branch(curve, [ahead, wrapped], 0.1 * w, w) is wrapped


def test_step_bisect_finds_the_crossing_fraction():
    """On a straight interpolant (H = 0) y(theta) = y0 + theta h f, the
    bisection returns the fraction where the side changes to within
    stop / h, and None as soon as the side cannot be told."""
    h = 3.0
    step = _Step(np.array([1.0, 2.0]), h, np.array([1.0, 0.0]), (0.0, 0.0, 0.0), 100.0)
    cross = 0.3217
    calls = []

    def same_side(y):
        calls.append(y)
        return y[0] < 1.0 + h * cross

    for stop in (1e-9, 1e-3, 0.5):
        calls.clear()
        frac = step.bisect(same_side, stop)
        assert abs(frac - cross) < stop / h
        assert len(calls) <= 60
    assert len(calls) < 5  # a coarse stop ends the halving early
    assert step.bisect(lambda y: None if y[0] > 2.0 else True, 1e-9) is None


def test_event_free_ignores_the_far_side_of_the_basepoint(unknot):
    """B marks a basepoint crossing only where s or t passes 0: cords whose
    s crosses L/2, where B jumps from L/2 to -L/2, are event-free, and cords
    whose s crosses 0 are not."""
    curve, _framing, ctx = unknot
    L = curve.L
    offsets = np.linspace(-0.01, 0.01, 8) * L

    def event_free(s_mid):
        ys = np.stack([(s_mid + offsets) % L, (s_mid + offsets + 0.3 * L) % L],
                      axis=1)
        return _event_free(ctx, ys, cord_terms(curve, ys[:, 0], ys[:, 1]))

    assert event_free(0.5 * L)
    assert not event_free(0.0)


def test_saddle_guard_checks_the_whole_segment(unknot):
    curve, framing, ctx = unknot
    L = curve.L
    p = ctx.saddles[0]
    r = DEFAULT_TOL.trajectory_tol * L
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


TREFOIL_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "specs" / "trefoil.json").read_text())


def _lazy_and_eager(run):
    """repr of ``run()`` and its number of branch Newtons, as the flow
    gives them, then with every cord's branch values read at once
    (``_values_wait`` forced False: the eager flow, which brackets every
    step)."""
    out = []
    kernel = flow._refine_crossings
    for eager in (False, True):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            if eager:
                mp.setattr(flow, "_values_wait", lambda zone: False)
            mp.setattr(flow, "_refine_crossings",
                       lambda *a: calls.append(1) or kernel(*a))
            out.append((repr(run()), len(calls)))
    return out


def test_waiting_branch_values_flow_the_eager_traces():
    """boundary_D(k11_s) on the pinned trefoil: the traces equal the eager
    flow's bit for bit, with at most 60% of its branch Newtons."""
    curve, framing = setup_knot(TREFOIL_SPEC)
    ctx = FlowContext(curve, framing, find_critical_points(curve))
    k = next(p for p in ctx.saddles if p.label == "k11_s")
    (lazy, n_lazy), (eager, n_eager) = _lazy_and_eager(
        lambda: boundary_D(curve, framing, k, ctx)[1:])
    assert lazy == eager
    assert n_lazy <= 0.6 * n_eager


@pytest.mark.slow
@pytest.mark.parametrize("spec, framing", [
    pytest.param(TREFOIL_SPEC, "seifert", id="trefoil"),
    pytest.param(TREFOIL_SPEC, "blackboard", id="trefoil blackboard"),
    pytest.param({"type": "torus_knot", "p": 2, "q": 3}, "blackboard",
                 id="T(2,3) blackboard"),
])
def test_waiting_branch_values_compute_the_eager_traces(spec, framing):
    """The whole computation flows the eager flow's traces bit for bit and
    gives its presentation and retries."""
    def run():
        res = compute_cord_algebra(spec, framing=framing)
        return (res.traces, res.presentation.to_dict(), res.metadata["retries"])

    (lazy, n_lazy), (eager, n_eager) = _lazy_and_eager(run)
    assert lazy == eager
    assert n_lazy < n_eager
