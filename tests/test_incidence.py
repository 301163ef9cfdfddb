"""Event functions for B, F and S, boundary cords, F-arc end counts."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cordalg.energy import cord_terms
from cordalg.errors import TangentialContact, VerticalTangent, ZeroProjection
from cordalg.flow import _events, _group_runs
from cordalg.incidence import (
    ChordScreen,
    _framing_coordinates,
    _refine_crossings,
    chord_knot_intersections,
    cord_events,
    framing_event,
)
from cordalg.knots import Framing, KnotCurve, build_curve, build_framing
from cordalg.tolerances import DEFAULT_TOL

from boundary_cords import (
    F_ARC_RADIUS,
    f_arc_ends,
    f_start_value,
    tangency_residual,
    tangent_boundary_cords,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

# a circle in the xz-plane, whose tangent is vertical at s = 0
_VERTICAL_CIRCLE = [[math.cos(2 * math.pi * k / 64), 0.0,
                     math.sin(2 * math.pi * k / 64)] for k in range(64)]


@pytest.fixture(scope="module")
def ellipse():
    return build_curve({"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture(scope="module")
def trefoil():
    return build_curve({"type": "braid", "word": [1, 1, 1]})


@pytest.fixture(scope="module")
def trefoil_framing(trefoil):
    return build_framing(trefoil, rotation=0.15)


def basepoint_event(curve, s):
    """B-start at the cord (s, s + L/3), read off the event kernel."""
    t = (s + curve.L / 3.0) % curve.L
    pts, tans = curve.spline.eval_multi(np.array([s, t]), (0, 1))
    value = cord_events(build_framing(curve), s, t, pts, tans)["B-start"]
    return SimpleNamespace(value=value)


def test_vertical_tangent_is_one_error():
    """Wherever nu is evaluated, a vertical tangent raises VerticalTangent;
    ZeroProjection is left to a chord along the tangent."""
    curve = build_curve({"type": "samples", "points": _VERTICAL_CIRCLE})
    with pytest.raises(VerticalTangent):
        build_framing(curve)
    for turned in (Framing(curve, rotation=0.15), Framing(curve, winding=1)):
        with pytest.raises(VerticalTangent):
            turned.nu(np.array([0.0, curve.L / 4.0]))
    framing = Framing(curve)
    t = curve.L / 3.0
    with pytest.raises(VerticalTangent):
        framing.nu(np.array([0.0]))
    with pytest.raises(VerticalTangent):
        framing_event(curve, framing, 0.0, t, "start")
    assert f_start_value(curve, framing, 0.0, t) is None
    # at s = L/4 the tangent is horizontal
    s = curve.L / 4.0
    tangent = curve.tangent(s).tolist()
    with pytest.raises(ZeroProjection):
        _framing_coordinates(framing, s, tangent, *tangent)


def test_basepoint_event_values(ellipse):
    assert abs(basepoint_event(ellipse, 0.0).value) < 1e-12
    v = basepoint_event(ellipse, ellipse.L / 2 + 1.0)
    assert v.value != 0.0
    # crossing direction: value increases through zero with the parameter
    before = basepoint_event(ellipse, ellipse.L - 0.01).value
    after = basepoint_event(ellipse, 0.01).value
    assert before < 0 < after


def test_framing_event_zero_set_nonempty(trefoil, trefoil_framing):
    """The gated F^s value function takes both signs: the set F^s is a curve."""
    rng = np.random.default_rng(8)
    pos = neg = 0
    for _ in range(3000):
        s, t = rng.random(2) * trefoil.L
        if trefoil.circ_dist(s, t) < 0.5:
            continue
        ev = framing_event(trefoil, trefoil_framing, s, t, "start")
        if not ev.positive:
            continue
        if ev.value > 0:
            pos += 1
        else:
            neg += 1
        if pos and neg:
            break
    assert pos and neg


def test_f_symmetry_start_end(trefoil, trefoil_framing):
    """(s,t) in F^s iff (t,s) in F^e: the event data agree exactly."""
    rng = np.random.default_rng(3)
    n_checked = 0
    for _ in range(1000):
        s, t = rng.random(2) * trefoil.L
        if trefoil.circ_dist(s, t) < 0.3:
            continue
        a = framing_event(trefoil, trefoil_framing, s, t, "start")
        b = framing_event(trefoil, trefoil_framing, t, s, "end")
        assert a.value == b.value
        assert a.positive == b.positive
        n_checked += 1
    assert n_checked > 900


def test_flow_f_values_are_framing_event_values(trefoil, trefoil_framing):
    """The F values the flow brackets, read off the same spline call as its
    energy terms, are framing_event's bits on the +nu side and the sign of
    the value elsewhere."""
    ctx = SimpleNamespace(framing=trefoil_framing)
    rng = np.random.default_rng(12)
    n_positive = 0
    for _ in range(200):
        y = rng.random(2) * trefoil.L
        if trefoil.circ_dist(y[0], y[1]) < 0.3:
            continue
        terms = cord_terms(trefoil, y[:1], y[1:])
        flow_ev = _events(ctx, y, terms.points, terms.tangents)
        for endpoint in ("start", "end"):
            ev = framing_event(trefoil, trefoil_framing, y[0], y[1], endpoint)
            if ev.positive:
                assert flow_ev[f"F-{endpoint}"] == ev.value
                n_positive += 1
            else:
                assert flow_ev[f"F-{endpoint}"] == math.copysign(1.0, ev.value)
    assert n_positive > 20


def test_ellipse_has_no_interior_hits(ellipse):
    screen = ChordScreen(ellipse)
    rng = np.random.default_rng(0)
    for _ in range(300):
        s, t = rng.random(2) * ellipse.L
        if ellipse.circ_dist(s, t) < 0.1:
            continue
        assert chord_knot_intersections(ellipse, s, t, screen=screen) == []


def test_chord_screen_candidates_match_per_call_geometry(trefoil):
    """The screen's cached midpoints and half-lengths give the same
    candidates as recomputing them from the segment ends on every call."""
    screen = ChordScreen(trefoil)
    a = trefoil.point(screen.params)
    b = np.roll(a, -1, axis=0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        s, t = rng.random(2) * trefoil.L
        p = trefoil.point(s)
        d = trefoil.point(t) - p
        mid = 0.5 * (a + b)
        half = 0.5 * np.linalg.norm(b - a, axis=1)
        u = np.clip(((mid - p) @ d) / float(d @ d), 0.0, 1.0)
        dist = np.linalg.norm(mid - (p + u[:, None] * d), axis=1) - half
        for radius in (0.05, 0.5, 2.0):
            assert np.array_equal(screen.candidates(s, t, radius),
                                  np.nonzero(dist < radius)[0])


def test_chord_screen_block_rows_are_the_scalar_calls(trefoil):
    """A block of chords screens to the scalar calls' segments, cord by cord."""
    screen = ChordScreen(trefoil)
    s, t = np.random.default_rng(5).random((2, 40)) * trefoil.L
    rows = screen.candidates(s, t, 0.5)
    for i in range(len(s)):
        assert np.array_equal(rows[rows[:, 0] == i, 1],
                              screen.candidates(s[i], t[i], 0.5))
    assert len(rows) > len(s)


def test_chord_screen_gaps_bound_the_cell_distance(trefoil):
    """A cell's gap is the gap of its column of the full screen, on any
    subset of cells, and no point of the cell's segment lies closer to the
    chord than its gap."""
    screen = ChordScreen(trefoil)
    a = trefoil.point(screen.params)
    b = np.roll(a, -1, axis=0)
    rng = np.random.default_rng(7)
    w = np.linspace(0.0, 1.0, 11)[:, None]
    for _ in range(20):
        s, t = rng.random(2) * trefoil.L
        p = trefoil.point(s)[None]
        d = trefoil.point(t)[None] - p
        full = screen.gaps(p, d)[0]
        cells = np.sort(rng.choice(len(screen.params), 30, replace=False))
        assert np.array_equal(screen.gaps(p, d, cells)[0], full[cells])
        for c in cells:
            x = a[c] + w * (b[c] - a[c])
            u = np.clip((x - p) @ d[0] / float(d[0] @ d[0]), 0.0, 1.0)
            dist = np.linalg.norm(x - (p + u[:, None] * d), axis=1)
            assert dist.min() >= full[c] - 1e-12


@pytest.mark.parametrize("name", ["ellipse", "trefoil"])
def test_array_call_is_the_scalar_calls(name, request):
    """On the 12 x 12 grid off the diagonal tube (more cords than one block),
    plus the constructed hit cords of the trefoil both ways round, the array
    call gives every cord the hits of its scalar call bit for bit, and None
    where the scalar call raises."""
    curve = request.getfixturevalue(name)
    axis = np.arange(12) * (curve.L / 12)
    tube = DEFAULT_TOL.diag_tube * curve.L
    si, ti = np.nonzero(~(curve.circ_dist(axis[:, None], axis[None, :]) < tube))
    s, t = list(axis[si]), list(axis[ti])
    if name == "trefoil":
        for a, b in request.getfixturevalue("trefoil_hit_cords"):
            s += [a, b]
            t += [b, a]
    assert len(s) > 64
    screen = ChordScreen(curve)
    batch = chord_knot_intersections(curve, s, t, screen=screen)
    assert len(batch) == len(s)
    for a, b, hits in zip(s, t, batch):
        try:
            assert hits == chord_knot_intersections(curve, a, b, screen=screen)
        except TangentialContact:
            assert hits is None
    if name == "trefoil":
        assert sum(1 for hits in batch if hits) >= 6


def test_synthetic_transverse_hit():
    # chord from (0,0,0) to (2,0,0) with a curve passing through (1,0,0):
    # builds a closed curve whose plane crosses the chord transversely
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    pts = np.stack([np.full_like(th, 1.0), np.sin(th), np.cos(th) - 1.0], axis=1)
    c = build_curve({"type": "samples", "points": pts.tolist()})
    params = np.linspace(0, c.L, 200, endpoint=False)
    i = int(np.argmin(np.linalg.norm(c.point(params) - np.array([1, 0, 0]), axis=1)))
    _u, tau, dist, flat = _refine_crossings(c, np.zeros(3), np.array([2.0, 0, 0]),
                                            [params[i]])[:4]
    assert not flat[0]
    assert dist[0] < 1e-9
    assert abs(tau[0] - 0.5) < 1e-9


def _signed_crossing_value(curve, s, t, u):
    """Reference: the signed offset of the knot at u from the chord (s, t),
    its chord fraction and the unit normal chord x tangent(u) that carries
    the sign, one scalar spline call per quantity."""
    p = curve.point(s)
    d = curve.point(t) - p
    x = curve.point(u)
    v = curve.unit_tangent(u)
    n = np.cross(d, v)
    nn = np.linalg.norm(n)
    if nn < 1e-12:
        raise TangentialContact("chord parallel to the knot tangent at the hit")
    n = n / nn
    dd = float(d @ d)
    tau = float((x - p) @ d) / dd
    r = x - (p + tau * d)
    return float(r @ n), tau, n


@pytest.fixture(scope="module")
def trefoil_hit_cords(trefoil):
    """Up to five trefoil cords (s, t) with interior hits, constructed.

    A cord through a knot point gamma(u) is built by choosing the chord
    through gamma(u) between two other curve parameters solved to pass
    exactly through it.  Each draw scans t over a grid, with the Newton of
    one seed run against every chord of the scan at once (one chord per row
    of ``_refine_crossings``), for a sign change of the branch's signed
    crossing value, then bisects the bracket.
    """
    screen = ChordScreen(trefoil)
    rng = np.random.default_rng(11)
    t_grid = np.linspace(0, trefoil.L, 120, endpoint=False)

    def branch_value(s, t2, u_seed, u=None):
        """Signed offset and chord fraction of the closest branch point
        near u_seed, or None; ``u`` is the refined point when known."""
        if u is None:
            p = trefoil.point(s)
            u, _tau, dist, flat = _refine_crossings(
                trefoil, p, trefoil.point(t2) - p, [u_seed])[:4]
            if flat[0] or not np.isfinite(dist[0]):
                return None
            u = u[0]
        if trefoil.circ_dist(u, u_seed) > 1.0:
            return None
        try:
            v, tau, _n = _signed_crossing_value(trefoil, s, t2, u)
        except TangentialContact:
            return None
        return v, tau

    cords = []
    for _ in range(400):
        s = rng.random() * trefoil.L
        u = rng.random() * trefoil.L
        if trefoil.circ_dist(s, u) < 1.0:
            continue
        scan = t_grid[~((trefoil.circ_dist(t_grid, s) < 1.0)
                        | (trefoil.circ_dist(t_grid, u) < 1.0))]
        p = trefoil.point(s)
        ds = trefoil.point(scan) - p
        refined, tau, dist, flat = _refine_crossings(
            trefoil, np.broadcast_to(p, ds.shape), ds, np.full(len(scan), u))[:4]
        ok = ~flat & np.isfinite(dist)
        # the reference's chord fraction, read off first: most rows end there
        ok &= (0.1 < tau) & (tau < 0.9)
        prev = None
        bracket = None
        for t2 in t_grid:
            if trefoil.circ_dist(t2, s) < 1.0 or trefoil.circ_dist(t2, u) < 1.0:
                prev = None
                continue
            i = int(np.searchsorted(scan, t2))
            got = branch_value(s, t2, u, refined[i]) if ok[i] else None
            if got is None or not (0.1 < got[1] < 0.9):
                prev = None
                continue
            v = got[0]
            if prev is not None and prev[1] * v < 0:
                bracket = (prev[0], t2, prev[1])
                break
            prev = (t2, v)
        if bracket is None:
            continue
        lo, hi, v_lo = bracket
        ok = True
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            got = branch_value(s, mid, u)
            if got is None:
                ok = False
                break
            if got[0] * v_lo > 0:
                lo, v_lo = mid, got[0]
            else:
                hi = mid
        if not ok:
            continue
        t2 = 0.5 * (lo + hi)
        if not chord_knot_intersections(trefoil, s, t2, screen=screen):
            continue
        cords.append((s, t2))
        if len(cords) >= 5:
            break
    return cords


def test_s_symmetry_on_trefoil(trefoil, trefoil_hit_cords):
    """(s,t) hits at (u, tau) iff (t,s) hits at (u, 1-tau).

    Interior hits are constructed (``trefoil_hit_cords``), then both
    orientations are intersected.
    """
    screen = ChordScreen(trefoil)
    for s, t2 in trefoil_hit_cords:
        hits = chord_knot_intersections(trefoil, s, t2, screen=screen)
        rev = chord_knot_intersections(trefoil, t2, s, screen=screen)
        assert len(rev) == len(hits)
        for (u1, tau), (u2, tau2) in zip(
                sorted(hits), sorted(rev, key=lambda h: 1 - h[1])):
            assert trefoil.circ_dist(u1, u2) < 1e-5 * trefoil.L
            assert abs((1.0 - tau) - tau2) < 1e-5
    assert len(trefoil_hit_cords) >= 3


# -- the batched Newton kernel against the scalar loop it replaced ------------

def _refine_hit_scalar(curve, p, d, u0, iters=40):
    """Reference: Newton on the closest-point system, one seed at a time."""
    dd = float(d @ d)
    u = u0
    for _ in range(iters):
        x = curve.point(u)
        v = curve.tangent(u)
        tau = float((x - p) @ d) / dd
        r = x - (p + tau * d)
        g = float(r @ v)
        h = float(v @ v - ((v @ d) ** 2) / dd + r @ curve.spline(u, d=2))
        if abs(h) < 1e-12:
            raise TangentialContact("flat distance minimum along the chord")
        step = g / h
        step = max(-0.25, min(0.25, step))
        u = (u - step) % curve.L
        if abs(step) < 1e-13 * curve.L:
            break
    x = curve.point(u)
    tau = float((x - p) @ d) / dd
    r = x - (p + tau * d)
    dist = float(np.linalg.norm(r))
    if not np.isfinite(dist):
        return None
    return u, tau, dist


def _assert_matches_scalar(curve, p, d, seeds):
    """`_refine_crossings` on all seeds equals the scalar loop seed by seed;
    p and d are one chord, or one chord per seed."""
    u, tau, dist, flat = _refine_crossings(curve, p, d, seeds)[:4]
    for k, u0 in enumerate(seeds):
        pk, dk = (p[k], d[k]) if d.ndim == 2 else (p, d)
        try:
            ref = _refine_hit_scalar(curve, pk, dk, u0)
        except TangentialContact:
            assert flat[k]
            continue
        assert not flat[k]
        if ref is None:
            assert not np.isfinite(dist[k])
        else:
            assert (u[k], tau[k], dist[k]) == ref
    return u, tau, dist, flat


def test_refine_hits_matches_scalar_on_synthetic_hit():
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    pts = np.stack([np.full_like(th, 1.0), np.sin(th), np.cos(th) - 1.0], axis=1)
    c = build_curve({"type": "samples", "points": pts.tolist()})
    params = np.linspace(0, c.L, 200, endpoint=False)
    p, d = np.zeros(3), np.array([2.0, 0, 0])
    u, tau, dist, flat = _assert_matches_scalar(c, p, d, params)
    i = int(np.argmin(np.linalg.norm(c.point(params) - np.array([1, 0, 0]), axis=1)))
    assert dist[i] < 1e-9 and abs(tau[i] - 0.5) < 1e-9
    # one seed alone gives the bits it gets in the batch
    alone = _refine_crossings(c, p, d, [params[i]])[:3]
    assert tuple(a[0] for a in alone) == (u[i], tau[i], dist[i])


@pytest.mark.parametrize("name", ["ellipse", "trefoil"])
def test_refine_hits_matches_scalar_on_random_seeds(name, request):
    curve = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    for _ in range(3):
        s, t = rng.random(2) * curve.L
        p = curve.point(s)
        d = curve.point(t) - p
        _assert_matches_scalar(curve, p, d, rng.random(200) * curve.L)
    # one chord per seed
    s, t = rng.random((2, 200)) * curve.L
    p = curve.point(s)
    _assert_matches_scalar(curve, p, curve.point(t) - p, rng.random(200) * curve.L)


def test_refine_hits_matches_scalar_on_constructed_hits(trefoil, trefoil_hit_cords):
    screen = ChordScreen(trefoil)
    assert len(trefoil_hit_cords) >= 3
    for s, t in trefoil_hit_cords:
        for a, b in ((s, t), (t, s)):
            cand = screen.candidates(a, b, 3.0 * screen.step)
            p = trefoil.point(a)
            d = trefoil.point(b) - p
            _, _, dist, _ = _assert_matches_scalar(
                trefoil, p, d, screen.params[cand] + 0.5 * screen.step)
            assert np.min(dist) < DEFAULT_TOL.intersect_tol * trefoil.L


class _StubCurve:
    """Two straight pieces: u < 5 crosses the x-axis chord transversely at
    u = 2, u >= 5 runs along it, so every seed there has a flat minimum."""

    L = 12.0
    circ_dist = KnotCurve.circ_dist

    class spline:
        @staticmethod
        def eval_multi(u, ders):
            u = np.asarray(u, dtype=float)
            across = (u < 5.0)[:, None]
            zero = np.zeros_like(u)
            x = np.where(across, np.stack([zero + 1.0, u - 2.0, zero], axis=1),
                         np.stack([u - 6.0, zero, zero], axis=1))
            v = np.where(across, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
            return [{0: x, 1: v, 2: np.zeros_like(x)}[k] for k in ders]

    def point(self, s):
        return self.spline.eval_multi([s], (0,))[0][0]


def test_flat_seed_raises_but_leaves_other_seeds_valid():
    curve = _StubCurve()
    p, d = curve.point(6.0), curve.point(8.0) - curve.point(6.0)
    u, tau, dist, flat = _refine_crossings(curve, p, d, [1.5, 7.0])[:4]
    assert list(flat) == [False, True]
    assert (u[0], tau[0], dist[0]) == (2.0, 0.5, 0.0)

    def screen(seeds, pairs):
        """A screen whose candidates are the (cord, seed) rows ``pairs``."""
        return SimpleNamespace(params=np.array(seeds) - 0.5, step=1.0,
                               candidates=lambda s, t, r, points: np.array(pairs))

    one = screen([1.5], [[0, 0]])
    assert chord_knot_intersections(curve, 6.0, 8.0, screen=one) == [(2.0, 0.5)]
    with pytest.raises(TangentialContact):
        chord_knot_intersections(curve, 6.0, 8.0,
                                 screen=screen([1.5, 7.0], [[0, 0], [0, 1]]))
    # in a batch only the cord with the flat seed gets None
    both = screen([1.5, 7.0], [[0, 0], [0, 1], [1, 0]])
    assert chord_knot_intersections(curve, [6.0, 6.0], [8.0, 9.0],
                                    screen=both) == [None, [(2.0, 1 / 3)]]


# -- the S-branch kernel of the flow ---------------------------------------------

@pytest.fixture(scope="module")
def k11_s_flow():
    """The pinned trefoil's saddle k11_s flowed, with every branch the flow
    read, as (cord, branch tuples), and every kernel call, as (p, d, seeds).

    The flow reads the branch values at every cord (``_values_wait`` is
    False), so that every cord with a live branch is read."""
    import cordalg.flow as flow
    from cordalg.energy import find_critical_points
    from cordalg.pipeline import setup_knot
    curve, frame = setup_knot(json.loads((SPECS / "trefoil.json").read_text()))
    ctx = flow.FlowContext(curve, frame, find_critical_points(curve))
    branches, calls = [], []
    read = flow._Tracer._branch_values
    kernel = flow._refine_crossings

    def branch_values(tracer, y, ends, seeds):
        out = read(tracer, y, ends, seeds)
        branches.append((tuple(y), [res for res in out if res is not None]))
        return out

    def refine_crossings(curve, p, d, u0):
        calls.append((p, d, np.array(u0)))
        return kernel(curve, p, d, u0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_values_wait", lambda zone: False)
        mp.setattr(flow._Tracer, "_branch_values", branch_values)
        mp.setattr(flow, "_refine_crossings", refine_crossings)
        k = next(p for p in ctx.saddles if p.label == "k11_s")
        flow.boundary_D(curve, frame, k, ctx)
    return curve, branches, calls


def test_crossing_value_is_the_reference_formula(k11_s_flow):
    """(value, tau, n_hat) read off the Newton's last iterate equal the
    separate scalar formula bit for bit on every branch of the k11_s flow."""
    curve, branches, _calls = k11_s_flow
    n = 0
    for (s, t), found in branches:
        for u, value, tau, n_hat, _dist in found:
            ref_value, ref_tau, ref_n = _signed_crossing_value(curve, s, t, u)
            assert (value, tau) == (ref_value, ref_tau)
            assert np.array_equal(n_hat, ref_n)
            n += 1
    assert n > 500


def _cycle_start(curve, p, d, u0, iters=40):
    """First iteration after which the scalar Newton iterate equals its
    value two iterations back while still moving, or None."""
    dd = float(d @ d)
    seen = [u0]
    for i in range(iters):
        u = seen[-1]
        x, v = curve.point(u), curve.tangent(u)
        tau = float((x - p) @ d) / dd
        r = x - (p + tau * d)
        h = float(v @ v - ((v @ d) ** 2) / dd + r @ curve.spline(u, d=2))
        if abs(h) < 1e-12:
            return None
        step = max(-0.25, min(0.25, float(r @ v) / h))
        if abs(step) < 1e-13 * curve.L:
            return None
        seen.append((u - step) % curve.L)
        if i >= 1 and seen[-1] == seen[-3]:
            return i
    return None


def test_two_cycling_seeds_stop_early(k11_s_flow, monkeypatch):
    """Seeds of the k11_s flow that jump back and forth between two points
    stop once the pair repeats, on the point the 40th iteration reaches,
    for either parity of the iterations left."""
    curve, _branches, calls = k11_s_flow
    found = {}
    for p, d, seeds in calls:
        for u0 in seeds:
            i = _cycle_start(curve, p, d, u0)
            if i is not None:
                found.setdefault((40 - i) % 2, (p, d, u0, i))
        if len(found) == 2:
            break
    assert sorted(found) == [0, 1]
    counted = []
    eval_multi = curve.spline.eval_multi
    monkeypatch.setattr(curve.spline, "eval_multi",
                        lambda *a: counted.append(1) or eval_multi(*a))
    for p, d, u0, i in found.values():
        counted.clear()
        u, tau, dist, flat = _refine_crossings(curve, p, d, [u0])[:4]
        # iterations 0 .. i, then the final evaluation
        assert len(counted) == i + 2 < 41
        assert not flat[0]
        assert (u[0], tau[0], dist[0]) == _refine_hit_scalar(curve, p, d, u0)


def _group_contiguous(indices, n):
    """Reference: group sorted indices into circularly contiguous runs."""
    if len(indices) == 0:
        return []
    indices = np.sort(indices)
    breaks = np.nonzero(np.diff(indices) > 4)[0]
    groups = np.split(indices, breaks + 1)
    if len(groups) > 1 and (indices[0] + n - indices[-1]) <= 4:
        groups[0] = np.concatenate([groups[-1], groups[0] + 0])
        groups = groups[:-1]
    return [list(g) for g in groups]


def test_group_midpoints_match_contiguous_runs():
    n = 1024
    rng = np.random.default_rng(6)
    cases = [np.arange(40, 47), np.array([5]), np.r_[0:3, 1019:1024],
             np.r_[0:2, 200:209, 1022:1024], np.r_[3:9, 1020:1022]]
    for k in range(300):
        starts = rng.integers(0, n, size=rng.integers(1, 6))
        if k % 2:
            starts[0] = n - rng.integers(1, 10)  # a run near the wrap
        runs = [(a + np.arange(rng.integers(1, 12))) % n for a in starts]
        cases.append(np.unique(np.concatenate(runs)))
    wraps = 0
    for cand in cases:
        groups = _group_contiguous(cand, n)
        wraps += len(groups) > 1 and groups[0][0] > groups[0][-1]
        lo, hi = _group_runs(cand, n)
        assert list(cand[lo + (hi - lo) // 2]) == [g[len(g) // 2] for g in groups]
        assert [list(cand[np.arange(a, b)]) for a, b in zip(lo, hi)] == groups
    assert wraps > 50


def test_tangent_boundary_cords_ellipse_empty(ellipse):
    assert tangent_boundary_cords(ellipse) == []


# the d^sS cords of specs/trefoil.json, pinned from the Newton refinement on
# the Frenet-frame components with a finite-difference Jacobian that the
# batched Gauss-Newton replaced
TREFOIL_TANGENCY_CORDS = [
    (5.297728123588162, 21.738881180651486),
    (5.909574549283576, 21.30230525303017),
    (20.807061067738505, 4.42562604110768),
    (22.30646032260991, 6.970792221388669),
    (22.89378693052245, 21.54230106242078),
    (22.998110877609797, 6.480703651899005),
]


def test_tangent_boundary_cords_trefoil(trefoil):
    spec_trefoil = build_curve(json.loads((SPECS / "trefoil.json").read_text()))
    cords = tangent_boundary_cords(spec_trefoil)
    assert len(cords) == len(TREFOIL_TANGENCY_CORDS)
    for (s, t), (s_ref, t_ref) in zip(cords, TREFOIL_TANGENCY_CORDS):
        assert spec_trefoil.circ_dist(s, s_ref) < 1e-8 * spec_trefoil.L
        assert spec_trefoil.circ_dist(t, t_ref) < 1e-8 * spec_trefoil.L
    plain = tangent_boundary_cords(trefoil)
    assert 0 < len(plain) < 40
    for curve, found in ((spec_trefoil, cords), (trefoil, plain)):
        for s, t in found:
            chord = curve.point(t) - curve.point(s)
            chord = chord / np.linalg.norm(chord)
            tang = curve.unit_tangent(s)
            assert np.linalg.norm(np.cross(chord, tang)) < 1e-7


def test_tangency_jacobian_matches_central_differences(trefoil):
    """The exact Jacobian of r = (gamma(t) - gamma(s)) x gamma'(s) agrees
    with central differences of r at 50 random cords."""
    rng = np.random.default_rng(21)
    s, t = rng.random((2, 50)) * trefoil.L
    _r, J = tangency_residual(trefoil, s, t)
    h = 1e-6 * trefoil.L
    fd = np.stack([
        (tangency_residual(trefoil, s + h, t)[0]
         - tangency_residual(trefoil, s - h, t)[0]) / (2 * h),
        (tangency_residual(trefoil, s, t + h)[0]
         - tangency_residual(trefoil, s, t - h)[0]) / (2 * h),
    ], axis=2)
    assert np.max(np.abs(J - fd)) < 1e-6 * max(1.0, np.max(np.abs(J)))


def _f_start_crossing(curve, framing, s0, t0, rho, n=360):
    """A cord on the gated F^s zero set where it crosses the circle of
    radius ``rho`` around (s0, t0), bisected in the angle."""
    L = curve.L

    def value(a):
        ev = f_start_value(curve, framing, (s0 + rho * math.cos(a)) % L,
                           (t0 + rho * math.sin(a)) % L)
        return ev.value if ev is not None and ev.positive else None

    angles = np.arange(n + 1) * (2.0 * math.pi / n)
    vals = [value(a) for a in angles]
    lo, hi, v_lo = next((lo, hi, a) for lo, hi, a, b
                        in zip(angles, angles[1:], vals, vals[1:])
                        if a is not None and b is not None and a * b < 0.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if value(mid) * v_lo > 0.0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return (s0 + rho * math.cos(a)) % L, (t0 + rho * math.sin(a)) % L


def test_f_arc_terminates_at_tangency(trefoil, trefoil_framing):
    """dF^s = d^sS: one F^s arc ends at every dS cord.

    A small circle around each tangency cord counts exactly one gated sign
    change of F-start, at radius F_ARC_RADIUS L and at three times that.
    The same circle around a cord further along the arc, where it crosses a
    circle of 30 times that radius, counts exactly two: the arc passes
    through.
    """
    boundary = tangent_boundary_cords(trefoil)
    assert boundary
    radius = F_ARC_RADIUS * trefoil.L
    for s0, t0 in boundary:
        assert f_arc_ends(trefoil, trefoil_framing, s0, t0, radius) == 1
        assert f_arc_ends(trefoil, trefoil_framing, s0, t0, 3 * radius) == 1
        s, t = _f_start_crossing(trefoil, trefoil_framing, s0, t0, 30 * radius)
        assert f_arc_ends(trefoil, trefoil_framing, s, t, radius) == 2


def test_f_near_diagonal_vertical_structure(trefoil, trefoil_framing):
    """Close to the diagonal the F^s set is a vertical line {s = const}."""
    zeros = []
    for eps in (0.3, 0.5, 0.8):
        params = np.linspace(0, trefoil.L, 800, endpoint=False)
        vals = []
        for s in params:
            ev = f_start_value(trefoil, trefoil_framing, s, (s + eps) % trefoil.L)
            vals.append(ev.value if (ev and ev.positive) else np.nan)
        vals = np.array(vals)
        cross = [
            params[i] for i in range(len(params) - 1)
            if np.isfinite(vals[i]) and np.isfinite(vals[i + 1])
            and vals[i] * vals[i + 1] < 0
        ]
        zeros.append(cross)
    assert zeros[0]
    # the crossing start-parameters barely move as eps varies
    for z0 in zeros[0]:
        nearest1 = min(abs(z0 - z) for z in zeros[1])
        nearest2 = min(abs(z0 - z) for z in zeros[2])
        assert nearest1 < 0.06 * trefoil.L
        assert nearest2 < 0.06 * trefoil.L
