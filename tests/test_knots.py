"""Curve building, framings, linking numbers, braid layouts."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cordalg.errors import DegenerateSpec, InvariantLost, NumericalAmbiguity, SpecError
from cordalg.knots import (
    _CROSSING_MARGIN,
    LINKING_SAMPLES,
    LINKING_VIEW,
    BraidLayoutSpec,
    _min_clearance,
    _segment_distances,
    build_curve,
    build_framing,
    crossing_sums,
    ellipse_points,
    linking_number,
    perturb_basepoint,
    perturb_curve,
    perturb_framing,
)
from cordalg.tolerances import DEFAULT_TOL


SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture(scope="module")
def ellipse():
    return build_curve({"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture(scope="module")
def trefoil():
    return build_curve({"type": "braid", "word": [1, 1, 1]})


def _wobble_spec(c3=0.05, s2=0.035):
    """The 720-point wobbled ellipse of the benchmark's unknot sweep."""
    th = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    r = 1.0 + c3 * np.cos(3 * th) + s2 * np.sin(2 * th)
    pts = np.stack([2 * r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=1)
    return {"type": "samples", "points": pts.tolist()}


@pytest.fixture(scope="module")
def others():
    """The curves beyond the ellipse and the trefoil that the kernels are
    checked on, by name."""
    return {
        "circle": build_curve({"type": "circle", "r": 1}),
        "torus_2_3": build_curve({"type": "torus_knot", "p": 2, "q": 3}),
        "5_1": build_curve({"type": "braid", "word": [1, 1, 1, 1, 1]}),
        "wobble": build_curve(_wobble_spec()),
    }


def test_circle_length():
    c = build_curve({"type": "circle", "r": 1, "n": 64})
    assert abs(c.L - 2 * math.pi) < 1e-3


def test_ellipse_arclength_param(ellipse):
    # complete elliptic perimeter for (2,1), and |gamma'| = 1 everywhere
    assert abs(ellipse.L - 9.68845) < 1e-3
    probe = np.linspace(0, ellipse.L, 999)
    speeds = np.linalg.norm(ellipse.tangent(probe), axis=1)
    assert np.max(np.abs(speeds - 1)) < DEFAULT_TOL.tol_arc


def test_resampling_idempotent(ellipse):
    again = build_curve({"type": "samples", "points": ellipse.samples.tolist()})
    probe = np.linspace(0, 1, 200) * again.L
    d = np.linalg.norm(again.point(probe) - ellipse.point(probe * ellipse.L / again.L), axis=1)
    assert np.max(d) < DEFAULT_TOL.tol_arc * ellipse.L


def test_frenet_consistency(ellipse):
    probe = np.linspace(0, ellipse.L, 333)
    t = ellipse.tangent(probe)
    a = ellipse.second(probe)
    curv = np.linalg.norm(a, axis=1)
    mask = curv > DEFAULT_TOL.curvature_floor
    dots = np.abs(np.einsum("ij,ij->i", t, a))[mask]
    assert np.max(dots) < 10 * DEFAULT_TOL.tol_arc


def test_too_few_points_rejected():
    pts = ellipse_points(1, 1, n=8).tolist()
    with pytest.raises(DegenerateSpec):
        build_curve({"type": "samples", "points": pts})


def test_braid_closure_must_be_knot():
    with pytest.raises(SpecError):
        BraidLayoutSpec(word=[1, 1], strands=2)  # two-component link


def projection_crossings(curve, n=2048):
    """Count transverse self-crossings of the curve's polyline projected
    along a direction tilted off the vertical, since seen from above the
    stacked braid strands are degenerate."""
    d = np.array([0.05, 0.03, 1.0])
    d /= np.linalg.norm(d)
    e1 = np.cross(d, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    pts3 = curve.point(np.arange(n) * (curve.L / n))
    a = np.stack([pts3 @ e1, pts3 @ e2], axis=1)
    b = np.roll(a, -1, axis=0)
    count = 0
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        p, r = a[i], b[i] - a[i]
        s = b[js] - a[js]
        denom = r[0] * s[:, 1] - r[1] * s[:, 0]
        ok = np.abs(denom) > 1e-14
        qp = a[js] - p
        safe = np.where(ok, denom, 1.0)
        t = np.where(ok, (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / safe, -1)
        u = np.where(ok, (qp[:, 0] * r[1] - qp[:, 1] * r[0]) / safe, -1)
        count += int(np.sum(ok & (t > 0) & (t < 1) & (u > 0) & (u < 1)))
    return count


def test_braid_crossing_count(trefoil):
    assert projection_crossings(trefoil) == 3


def test_braid_five_crossings():
    c = build_curve({"type": "braid", "word": [1, 1, 1, 1, 1]})
    assert projection_crossings(c) == 5


def test_blackboard_framing_planar_is_vertical(ellipse):
    f = build_framing(ellipse)
    probe = np.linspace(0, ellipse.L, 64)
    nus = f.nu(probe)
    assert np.max(np.abs(nus - np.array([0, 0, 1.0]))) < 1e-9


def test_framing_orthonormal(trefoil):
    f = build_framing(trefoil, rotation=0.15)
    probe = np.linspace(0, trefoil.L, 257)
    nus = f.nu(probe)
    tans = trefoil.unit_tangent(probe)
    assert np.max(np.abs(np.linalg.norm(nus, axis=1) - 1)) < 1e-9
    assert np.max(np.abs(np.einsum("ij,ij->i", nus, tans))) < 1e-9


def test_linking_unknot_zero(ellipse):
    assert linking_number(ellipse, build_framing(ellipse)) == 0


def test_linking_trefoil_blackboard(trefoil):
    f = build_framing(trefoil, rotation=0.15)
    assert linking_number(trefoil, f) == 3


def test_linking_stable_under_eps(trefoil):
    f = build_framing(trefoil, rotation=0.15)
    assert linking_number(trefoil, f, eps=f.eps / 2) == 3
    assert linking_number(trefoil, f, eps=f.eps / 4) == 3


def test_extra_winding_decrements_linking(trefoil):
    for winding in (1, 3):
        f = build_framing(trefoil, rotation=0.15, winding=winding)
        assert linking_number(trefoil, f) == 3 - winding


def test_basepoint_shift_pure_reparametrization(ellipse):
    shifted = ellipse.shift_basepoint(1.3)
    probe = np.linspace(0, ellipse.L, 100)
    assert np.allclose(shifted.point(probe), ellipse.point(probe + 1.3), atol=1e-9)


def test_perturb_basepoint_deterministic(ellipse):
    a = perturb_basepoint(ellipse, 0.1, seed=7)
    b = perturb_basepoint(ellipse, 0.1, seed=7)
    assert np.allclose(a.samples, b.samples)
    assert not np.allclose(a.samples, ellipse.samples)


def test_perturb_curve_local_and_valid(ellipse):
    """The bump is supported within 0.3 L of its seeded center, so 40% of
    the perturbed knot still lies on the original one."""
    out = perturb_curve(ellipse, 0.02, seed=3)
    assert out.validate() is out
    dense = ellipse.point(np.linspace(0, ellipse.L, 20000, endpoint=False))
    probe = out.point(np.linspace(0, out.L, 400, endpoint=False))
    # the distance to the original knot, read to half the dense spacing
    off = np.array([np.min(np.linalg.norm(dense - p, axis=1)) for p in probe])
    assert off.max() > 1e-3
    assert np.mean(off < 1e-3) >= 0.4


def test_perturb_magnitude_cap(ellipse):
    with pytest.raises(InvariantLost):
        perturb_curve(ellipse, ellipse.clearance, seed=0)


def test_perturb_framing_keeps_class(trefoil):
    f = build_framing(trefoil, rotation=0.15)
    g = perturb_framing(f, 0.1, seed=5)
    assert linking_number(trefoil, g) == 3


def test_torus_knot_builds():
    c = build_curve({"type": "torus_knot", "p": 2, "q": 3})
    assert c.validate() is c


# ---------------------------------------------------------------------------
# the periodic spline: through its samples, C^2 at every knot, and the
# periodic cubic spline of any general solver
# ---------------------------------------------------------------------------

_SPLINE_CURVES = ["ellipse", "trefoil", "torus_2_3"]


def _named(name, ellipse, trefoil, others):
    return {"ellipse": ellipse, "trefoil": trefoil, **others}[name]


@pytest.mark.parametrize("name", _SPLINE_CURVES)
def test_spline_constant_coefficients_are_the_samples(name, ellipse, trefoil,
                                                       others):
    curve = _named(name, ellipse, trefoil, others)
    assert np.array_equal(curve.spline._packed[:, 3], curve.samples)


@pytest.mark.parametrize("name", _SPLINE_CURVES)
def test_spline_is_c2_at_every_knot(name, ellipse, trefoil, others):
    """gamma, gamma' and gamma'' at the end of each interval equal their
    values at the start of the next, the wrap from the last to the first
    interval included."""
    spline = _named(name, ellipse, trefoil, others).spline
    c3, c2, c1, c0 = np.moveaxis(spline._packed, 1, 0)
    h = spline._h
    ends = [((c3 * h + c2) * h + c1) * h + c0, (3 * c3 * h + 2 * c2) * h + c1,
            6 * c3 * h + 2 * c2]
    starts = [c0, c1, 2 * c2]
    for end, start, bound in zip(ends, starts, (1e-12, 1e-12, 1e-9)):
        assert np.max(np.abs(np.roll(start, -1, axis=0) - end)) <= bound


@pytest.mark.parametrize("name", _SPLINE_CURVES)
def test_spline_matches_a_general_periodic_solver(name, ellipse, trefoil, others):
    interpolate = pytest.importorskip("scipy.interpolate")
    curve = _named(name, ellipse, trefoil, others)
    grid = np.linspace(0.0, curve.L, len(curve.samples) + 1)
    closed = np.vstack([curve.samples, curve.samples[:1]])
    reference = interpolate.CubicSpline(grid, closed, bc_type="periodic", axis=0)
    u = np.random.default_rng(7).random(2000) * curve.L
    ours = curve.spline.eval_multi(u, (0, 1, 2))
    for d, bound in enumerate((1e-13, 1e-11, 1e-9)):
        assert np.max(np.abs(ours[d] - reference(u, d))) <= bound


# ---------------------------------------------------------------------------
# references: the per-pair clearance and the per-quad solid angle, kept
# scalar so that the batched kernels can be checked against them
# ---------------------------------------------------------------------------

def _segment_distance(p1, p2, q1, q2):
    u = p2 - p1
    v = q2 - q1
    w = p1 - q1
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    denom = a * c - b * b
    if denom < 1e-14 * max(a * c, 1e-30):
        s = 0.0
        t = np.clip(e / c, 0.0, 1.0) if c > 0 else 0.0
    else:
        t = np.clip((a * e - b * d) / denom, 0.0, 1.0) if c > 0 else 0.0
        s = np.clip((b * t - d) / a, 0.0, 1.0) if a > 0 else 0.0
    return float(np.linalg.norm(p1 + s * u - (q1 + t * v)))


def _min_clearance_reference(points, ratio=0.7):
    a = np.asarray(points)
    n = len(a)
    b = np.roll(a, -1, axis=0)
    mids = 0.5 * (a + b)
    step = float(np.mean(np.linalg.norm(b - a, axis=1)))
    dist = np.linalg.norm(mids[:, None, :] - mids[None, :, :], axis=2)
    idx = np.arange(n)
    circ = np.abs(idx[:, None] - idx[None, :])
    mask = np.triu(dist < ratio * np.minimum(circ, n - circ) * step, k=1)
    if not mask.any():
        return float(np.max(dist))
    cand = np.argwhere(mask & (dist < dist[mask].min() + 2 * step))
    return min(_segment_distance(a[i], b[i], a[j], b[j]) for i, j in cand)


def _solid_angle_quads(p1, p2, q1, q2):
    r13, r14, r23, r24 = q1 - p1, q2 - p1, q1 - p2, q2 - p2
    r12, r34 = p2 - p1, q2 - q1

    def unit_cross(x, y):
        c = np.cross(x, y)
        n = np.linalg.norm(c, axis=-1, keepdims=True)
        return c / np.where(n < 1e-300, 1.0, n)

    n1 = unit_cross(r13, r14)
    n2 = unit_cross(r14, r24)
    n3 = unit_cross(r24, r23)
    n4 = unit_cross(r23, r13)

    def asin_dot(x, y):
        return np.arcsin(np.clip(np.einsum("...i,...i->...", x, y), -1.0, 1.0))

    omega = asin_dot(n1, n2) + asin_dot(n2, n3) + asin_dot(n3, n4) + asin_dot(n4, n1)
    sign = np.sign(np.einsum("...i,...i->...", np.cross(r34, r12), r13))
    return omega * sign / (4.0 * math.pi)


@pytest.mark.parametrize("name", ["circle", "ellipse", "trefoil", "perturbed",
                                  "torus_2_3", "5_1", "wobble"])
def test_min_clearance_matches_scalar_reference(name, ellipse, trefoil, others):
    if name == "perturbed":
        curve = perturb_curve(ellipse, ellipse.clearance / 8, seed=2)
    else:
        curve = {"ellipse": ellipse, "trefoil": trefoil, **others}[name]
    pts = curve.samples[:: max(1, len(curve.samples) // 512)]
    assert _min_clearance(pts) == _min_clearance_reference(pts)


def test_every_closed_curve_has_a_fold_back_pair(others):
    """Some antipodal pair has chord/arc at most 2/pi (Wirtinger's
    inequality), below the 0.7 of ``_min_clearance``: on the shipped specs
    and the unknot sweep's curves.  A ratio below every pair's raises."""
    curves = [build_curve(json.loads(path.read_text()))
              for path in sorted(SPECS.glob("*.json"))]
    curves += [build_curve({"type": "ellipse", "a": a, "b": b})
               for a, b in ((2, 1), (3, 1), (1.7, 0.8))]
    curves.append(others["wobble"])
    for curve in curves:
        pts = curve.samples[:: max(1, len(curve.samples) // 512)]
        nxt = np.roll(pts, -1, axis=0)
        mids = 0.5 * (pts + nxt)
        step = np.mean(np.linalg.norm(nxt - pts, axis=1))
        h = len(pts) // 2
        chord = np.linalg.norm(np.roll(mids, -h, axis=0) - mids, axis=1)
        assert np.min(chord) / (h * step) <= 2.0 / math.pi + 1e-3
    with pytest.raises(DegenerateSpec, match="closed curve"):
        _min_clearance(others["circle"].samples, ratio=0.5)


def test_clearance_scan_keeps_no_pair_matrix(others):
    """The dense scan of the 720-point wobble peaked at 31.7 MiB."""
    pts = others["wobble"].samples
    assert len(pts) == 720
    tracemalloc.start()
    try:
        _min_clearance(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_segment_distances_match_scalar_reference():
    rng = np.random.default_rng(4)
    p1, p2, q1 = rng.normal(size=(3, 200, 3))
    q2 = q1 + rng.normal(size=(200, 3))
    q2[::4] = q1[::4] + 0.5 * (p2 - p1)[::4]  # parallel pairs
    q2[1::8] = q1[1::8]  # a degenerate segment
    ref = [_segment_distance(*row) for row in zip(p1, p2, q1, q2)]
    assert np.array_equal(_segment_distances(p1, p2, q1, q2), ref)


def test_gauss_linking_matches_quad_sum(ellipse, trefoil):
    """The crossing count is the rounded Gauss integral of the same
    polylines, summed quad by quad as solid angles."""
    for curve, winding in ((ellipse, 0), (trefoil, 0), (trefoil, 1), (trefoil, 3)):
        f = build_framing(curve, rotation=0.15 if curve is trefoil else 0.0,
                          winding=winding)
        params = np.arange(1024) * (curve.L / 1024)
        base = curve.point(params)
        push = base + f.eps * f.nu(params)
        base2, push2 = np.roll(base, -1, axis=0), np.roll(push, -1, axis=0)
        direct = sum(float(np.sum(_solid_angle_quads(
            base[i:i + 128, None, :], base2[i:i + 128, None, :],
            push[None, :, :], push2[None, :, :]))) for i in range(0, 1024, 128))
        assert abs(direct - round(direct)) < 1e-6
        assert linking_number(curve, f) == round(direct)


def _crossing_sums_reference(points_a, points_b):
    """The dense crossing count: every segment of a against every segment
    of b, 64 segments of a at a time."""
    e1 = np.cross(LINKING_VIEW, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    frame = np.stack([e1, np.cross(LINKING_VIEW, e1), LINKING_VIEW], axis=1)
    a = np.asarray(points_a) @ frame
    b = np.asarray(points_b) @ frame
    da = np.roll(a, -1, axis=0) - a
    db = (np.roll(b, -1, axis=0) - b)[None]
    over = under = 0
    for i in range(0, len(a), 64):
        r = da[i:i + 64, None]
        w = b[None] - a[i:i + 64, None]
        denom = r[..., 0] * db[..., 1] - r[..., 1] * db[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (w[..., 0] * db[..., 1] - w[..., 1] * db[..., 0]) / denom
            t = (w[..., 0] * r[..., 1] - w[..., 1] * r[..., 0]) / denom
        m = _CROSSING_MARGIN
        near = (s > -m) & (s < 1.0 + m) & (t > -m) & (t < 1.0 + m)
        hit = (s > m) & (s < 1.0 - m) & (t > m) & (t < 1.0 - m)
        if np.any(near & ~hit):
            raise NumericalAmbiguity("projected crossing at a segment end")
        k, j = np.nonzero(hit)
        rise = (w[k, j, 2] + t[k, j] * db[0, j, 2]) - s[k, j] * r[k, 0, 2]
        sign = np.sign(denom[k, j])
        over -= int(np.sum(sign[rise > 0.0]))
        under += int(np.sum(sign[rise < 0.0]))
    return over, under


def _push_off(curve, winding=0, scale=1.0):
    """The polylines of ``linking_number``: the knot and its push-off by
    ``scale`` times the framing's eps."""
    rotation = 0.15 if curve.metadata.get("layout") == "braid" else 0.0
    f = build_framing(curve, rotation=rotation, winding=winding)
    params = np.arange(LINKING_SAMPLES) * (curve.L / LINKING_SAMPLES)
    base = curve.point(params)
    return base, base + scale * f.eps * f.nu(params)


@pytest.mark.parametrize("name, winding, scale", [
    ("ellipse", 0, 1.0), ("circle", 0, 1.0),
    *[("trefoil", w, sc) for w in (0, 1, 3) for sc in (1.0, 0.25)],
    ("torus_2_3", 0, 1.0), ("5_1", 0, 1.0), ("wobble", 0, 1.0),
])
def test_crossing_sums_match_the_dense_reference(name, winding, scale,
                                                 ellipse, trefoil, others):
    curve = {"ellipse": ellipse, "trefoil": trefoil, **others}[name]
    base, push = _push_off(curve, winding, scale)
    assert crossing_sums(base, push) == _crossing_sums_reference(base, push)


def test_crossing_count_keeps_no_pair_matrix(trefoil):
    """The dense count of 1024 points peaked at 4.8 MiB."""
    base, push = _push_off(trefoil)
    tracemalloc.start()
    try:
        crossing_sums(base, push)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("winding", [0, 1, 3])
def test_crossings_over_and_under_the_push_off_agree(trefoil, winding):
    f = build_framing(trefoil, rotation=0.15, winding=winding)
    params = np.arange(1024) * (trefoil.L / 1024)
    base = trefoil.point(params)
    for eps in (f.eps, f.eps / 4):
        over, under = crossing_sums(base, base + eps * f.nu(params))
        assert over == under == 3 - winding


def test_crossing_at_a_segment_end_is_ambiguous():
    """A push-off vertex seen exactly behind a knot vertex along the view
    makes the projection irregular."""
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    push = base + [0.0, 0.0, 0.05]
    assert crossing_sums(base, push) == (0, 0)
    # move one push-off vertex onto the line of sight through a knot vertex
    push[10] = base[30] + 0.2 * LINKING_VIEW
    with pytest.raises(NumericalAmbiguity):
        crossing_sums(base, push)
