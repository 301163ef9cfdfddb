"""Event functions for B, F and S, boundary cords, F-arc continuation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cordalg.errors import TangentialContact
from cordalg.incidence import (
    ChordScreen,
    _refine_hit,
    _refine_hits,
    basepoint_event,
    chord_knot_intersections,
    f_start_value,
    framing_event,
    tangent_boundary_cords,
    trace_f_start_arc,
)
from cordalg.knots import KnotCurve, build_curve, build_framing
from cordalg.tolerances import DEFAULT_TOL


@pytest.fixture(scope="module")
def ellipse():
    return build_curve({"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture(scope="module")
def trefoil():
    return build_curve({"type": "braid", "word": [1, 1, 1]})


@pytest.fixture(scope="module")
def trefoil_framing(trefoil):
    return build_framing(trefoil, rotation=0.15)


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
        assert abs(a.value - b.value) < 1e-12
        assert a.positive == b.positive
        n_checked += 1
    assert n_checked > 900


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


def test_synthetic_transverse_hit():
    # chord from (0,0,0) to (2,0,0) with a curve passing through (1,0,0):
    # builds a closed curve whose plane crosses the chord transversely
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    pts = np.stack([np.full_like(th, 1.0), np.sin(th), np.cos(th) - 1.0], axis=1)
    c = build_curve({"type": "samples", "points": pts.tolist()})
    from cordalg.incidence import _refine_hit
    params = np.linspace(0, c.L, 200, endpoint=False)
    i = int(np.argmin(np.linalg.norm(c.point(params) - np.array([1, 0, 0]), axis=1)))
    u, tau, dist = _refine_hit(c, np.zeros(3), np.array([2.0, 0, 0]), params[i],
                               DEFAULT_TOL)
    assert dist < 1e-9
    assert abs(tau - 0.5) < 1e-9


@pytest.fixture(scope="module")
def trefoil_hit_cords(trefoil):
    """Up to five trefoil cords (s, t) with interior hits, constructed.

    A cord through a knot point gamma(u) is built by choosing the chord
    through gamma(u) between two other curve parameters solved to pass
    exactly through it.
    """
    from cordalg.incidence import _refine_hit, signed_crossing_value
    from cordalg.tolerances import DEFAULT_TOL as tol
    screen = ChordScreen(trefoil)
    rng = np.random.default_rng(11)

    def branch_value(s, t2, u_seed):
        """Signed offset of the closest branch point near u_seed."""
        p = trefoil.point(s)
        d = trefoil.point(t2) - p
        try:
            res = _refine_hit(trefoil, p, d, u_seed, tol)
        except Exception:
            return None
        if res is None:
            return None
        u, tau, _dist = res
        if trefoil.circ_dist(u, u_seed) > 1.0:
            return None
        try:
            v, tau, _n = signed_crossing_value(trefoil, s, t2, u)
        except Exception:
            return None
        return v, tau

    cords = []
    for _ in range(400):
        s = rng.random() * trefoil.L
        u = rng.random() * trefoil.L
        if trefoil.circ_dist(s, u) < 1.0:
            continue
        t_grid = np.linspace(0, trefoil.L, 120, endpoint=False)
        prev = None
        bracket = None
        for t2 in t_grid:
            if trefoil.circ_dist(t2, s) < 1.0 or trefoil.circ_dist(t2, u) < 1.0:
                prev = None
                continue
            got = branch_value(s, t2, u)
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
        h = float(v @ v - ((v @ d) ** 2) / dd + r @ curve.second(u))
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
    """`_refine_hits` on all seeds equals the scalar loop seed by seed."""
    u, tau, dist, flat = _refine_hits(curve, p, d, seeds)
    for k, u0 in enumerate(seeds):
        try:
            ref = _refine_hit_scalar(curve, p, d, u0)
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
    assert _refine_hit(c, p, d, params[i], DEFAULT_TOL) == (u[i], tau[i], dist[i])


@pytest.mark.parametrize("name", ["ellipse", "trefoil"])
def test_refine_hits_matches_scalar_on_random_seeds(name, request):
    curve = request.getfixturevalue(name)
    rng = np.random.default_rng(21)
    for _ in range(3):
        s, t = rng.random(2) * curve.L
        p = curve.point(s)
        d = curve.point(t) - p
        _assert_matches_scalar(curve, p, d, rng.random(200) * curve.L)


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
    u, tau, dist, flat = _refine_hits(curve, p, d, [1.5, 7.0])
    assert list(flat) == [False, True]
    assert (u[0], tau[0], dist[0]) == (2.0, 0.5, 0.0)

    def screen(*seeds):
        return SimpleNamespace(params=np.array(seeds) - 0.5, step=1.0,
                               candidates=lambda s, t, r: np.arange(len(seeds)))

    assert chord_knot_intersections(curve, 6.0, 8.0, screen=screen(1.5)) == [(2.0, 0.5)]
    with pytest.raises(TangentialContact):
        chord_knot_intersections(curve, 6.0, 8.0, screen=screen(1.5, 7.0))


def test_tangent_boundary_cords_ellipse_empty(ellipse):
    assert tangent_boundary_cords(ellipse) == []


def test_tangent_boundary_cords_trefoil(trefoil):
    cords = tangent_boundary_cords(trefoil)
    assert 0 < len(cords) < 40
    for s, t in cords:
        chord = trefoil.point(t) - trefoil.point(s)
        chord = chord / np.linalg.norm(chord)
        tang = trefoil.unit_tangent(s)
        assert np.linalg.norm(np.cross(chord, tang)) < 1e-6


def test_f_arc_terminates_at_tangency(trefoil, trefoil_framing):
    """The F^s zero arc, continued toward its end, stops at a dS cord."""
    from cordalg.incidence import f_arc_terminates_at
    boundary = tangent_boundary_cords(trefoil)
    assert boundary
    hits = 0
    for (s0, t0) in boundary:
        d = f_arc_terminates_at(trefoil, trefoil_framing, s0, t0)
        if d < 10 * DEFAULT_TOL.boundary_tol * trefoil.L:
            hits += 1
    assert hits >= 1


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
