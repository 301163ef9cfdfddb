"""Energy landscape: values, derivatives, critical point census."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cordalg.energy as energy_mod
from cordalg.energy import (
    _block_grad_sq,
    _grid_seeds,
    _interior_minima,
    cord_length,
    diagonal_data,
    energy,
    find_critical_points,
    gradient,
    hessian,
    mirror_partners,
)
from cordalg.errors import DegenerateCritical
from cordalg.knots import build_curve, perturb_curve
from cordalg.ring import AlgebraElement, serialize


@pytest.fixture(scope="module")
def ellipse():
    return build_curve({"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture(scope="module")
def trefoil():
    return build_curve({"type": "braid", "word": [1, 1, 1]})


def test_energy_zero_on_diagonal(ellipse):
    for s in (0.0, 1.7, 5.2):
        assert energy(ellipse, s, s) < 1e-20


def test_energy_major_axis_value(ellipse):
    # cord joining (2,0,0) and (-2,0,0): E = (4^2)/2 = 8
    pts = find_critical_points(ellipse)
    majors = [p for p in pts if p.index == 2]
    assert majors and all(abs(p.energy - 8.0) < 1e-4 for p in majors)


def test_energy_matches_raw_samples(ellipse):
    # the spline interpolates the samples, so E at sample params is exactly
    # half the squared distance of raw sample points
    n = len(ellipse.samples)
    i, j = 37, 411
    s = i * ellipse.L / n
    t = j * ellipse.L / n
    direct = 0.5 * float(np.sum((ellipse.samples[j] - ellipse.samples[i]) ** 2))
    assert abs(energy(ellipse, s, t) - direct) < 1e-10


def test_cord_length_wraps_its_ends(ellipse):
    direct = float(np.linalg.norm(ellipse.point(4.0) - ellipse.point(1.0)))
    assert cord_length(ellipse, 1.0, 4.0) == direct
    L = ellipse.L
    assert cord_length(ellipse, 1.0 + L, 4.0 - L) == pytest.approx(direct, rel=1e-12)
    for p in find_critical_points(ellipse):
        assert 0 <= p.s < L and 0 <= p.t < L
        assert p.length == cord_length(ellipse, p.s, p.t)
        assert p.energy == 0.5 * p.length ** 2


def test_gradient_zero_on_diagonal(ellipse):
    g = gradient(ellipse, 2.0, 2.0)
    assert np.linalg.norm(g) < 1e-12


def test_gradient_fd(ellipse):
    rng = np.random.default_rng(0)
    h = 1e-5 * ellipse.L
    worst = 0.0
    for _ in range(100):
        s, t = rng.random(2) * ellipse.L
        if ellipse.circ_dist(s, t) < 0.2:
            continue
        g = gradient(ellipse, s, t)
        fd = np.array([
            (energy(ellipse, s + h, t) - energy(ellipse, s - h, t)) / (2 * h),
            (energy(ellipse, s, t + h) - energy(ellipse, s, t - h)) / (2 * h),
        ])
        worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-9))
    assert worst < 1e-6


def test_hessian_fd(trefoil):
    # tight FD step: the interpolant's third derivative jumps at spline
    # knots, so wide stencils see O(h * jump) contamination
    rng = np.random.default_rng(1)
    h = 1e-6 * trefoil.L
    worst = 0.0
    for _ in range(100):
        s, t = rng.random(2) * trefoil.L
        if trefoil.circ_dist(s, t) < 0.2:
            continue
        H = hessian(trefoil, s, t)
        fd = np.empty((2, 2))
        fd[:, 0] = (gradient(trefoil, s + h, t) - gradient(trefoil, s - h, t)) / (2 * h)
        fd[:, 1] = (gradient(trefoil, s, t + h) - gradient(trefoil, s, t - h)) / (2 * h)
        fd = 0.5 * (fd + fd.T)
        worst = max(worst, np.linalg.norm(fd - H) / max(np.linalg.norm(H), 1e-9))
    assert worst < 1e-4


def test_ellipse_census_and_brute_force(ellipse):
    """Grid-stencil classification at high resolution is the census oracle."""
    pts = find_critical_points(ellipse)
    assert [p.index for p in pts] == [1, 1, 2, 2]
    assert all(abs(p.energy - 2.0) < 1e-4 for p in pts if p.index == 1)

    n = 512
    axis = np.arange(n) * (ellipse.L / n)
    S, T = np.meshgrid(axis, axis, indexing="ij")
    E = energy(ellipse, S.ravel(), T.ravel()).reshape(n, n)
    found = []
    for p in pts:
        i = int(round(p.s / ellipse.L * n)) % n
        j = int(round(p.t / ellipse.L * n)) % n
        patch = np.take(np.take(E, range(i - 2, i + 3), 0, mode="wrap"),
                        range(j - 2, j + 3), 1, mode="wrap")
        center = patch[2, 2]
        if p.index == 2:
            assert center == patch.max()
        else:
            assert patch.min() < center < patch.max()
        found.append((i, j))
    assert len(set(found)) == 4


def test_circle_is_degenerate():
    with pytest.raises(DegenerateCritical):
        find_critical_points(build_curve({"type": "circle", "r": 1}))


def test_circle_census_escalates_through_every_grid_level(monkeypatch):
    curve = build_curve({"type": "circle", "r": 1})
    grids = []
    collect = energy_mod._collect

    def spy(curve, seeds, cluster_dist):
        grids.append(round(3.0 * curve.L / cluster_dist))
        return collect(curve, seeds, cluster_dist)

    monkeypatch.setattr(energy_mod, "_collect", spy)
    with pytest.raises(DegenerateCritical, match="Bott family"):
        find_critical_points(curve)
    assert grids == [64, 128, 256, 512, 1024]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", ["ellipse", "trefoil"])
def test_grid_grad_sq_matches_per_cell_gradient(name, n, request):
    """The scan's |grad E|^2, from the spline values on the axis and the
    swap symmetry, is the squared per-cell ``gradient`` bit for bit, also on
    a wrapped halo."""
    curve = request.getfixturevalue(name)
    axis = np.arange(n) * (curve.L / n)
    P, V = curve.spline.eval_multi(axis, (0, 1))
    idx = np.arange(-1, n + 1) % n
    g2 = _block_grad_sq(P, V, idx, idx)
    S, T = np.meshgrid(axis[idx], axis[idx], indexing="ij")
    g = gradient(curve, S.ravel(), T.ravel())
    assert np.array_equal(g2, (g * g).sum(axis=1).reshape(n + 2, n + 2))


@pytest.fixture(scope="module")
def circle():
    return build_curve({"type": "circle", "r": 1})


@pytest.mark.parametrize("n", [64, 100, 256, 1024])
@pytest.mark.parametrize("name", ["circle", "ellipse", "trefoil"])
def test_grid_seeds_match_dense_reference(name, n, request):
    """The banded scan returns, in row-major order, exactly the cells of the
    dense |grad E|^2 grid (per-cell ``gradient``) that are no larger than
    their eight rolled neighbours; n = 100 ends on a partial band.  The
    reference is built 64 rows at a time to keep the test small."""
    curve = request.getfixturevalue(name)
    axis, si, ti = _grid_seeds(curve, n)
    assert np.array_equal(axis, np.arange(n) * (curve.L / n))
    g2 = np.empty((n, n))
    for i in range(0, n, 64):
        S, T = np.meshgrid(axis[i:i + 64], axis, indexing="ij")
        g = gradient(curve, S.ravel(), T.ravel())
        g2[i:i + 64] = (g * g).sum(axis=1).reshape(-1, n)
    mask = np.ones_like(g2, dtype=bool)
    for ds in (-1, 0, 1):
        for dt in (-1, 0, 1):
            if ds or dt:
                mask &= g2 <= np.roll(np.roll(g2, ds, 0), dt, 1)
    ref_si, ref_ti = np.nonzero(mask)
    assert np.array_equal(si, ref_si)
    assert np.array_equal(ti, ref_ti)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("name", ["circle", "ellipse", "trefoil"])
def test_grid_local_minima_match_rolled_neighbours(name, n, request):
    """The halo test picks the cells the eight rolled neighbour comparisons
    pick on the periodic grid."""
    curve = request.getfixturevalue(name)
    axis = np.arange(n) * (curve.L / n)
    P, V = curve.spline.eval_multi(axis, (0, 1))
    cols = np.arange(n)
    g2 = np.concatenate([_block_grad_sq(P, V, cols[i:i + 64], cols)
                         for i in range(0, n, 64)])
    expected = np.ones_like(g2, dtype=bool)
    for ds in (-1, 0, 1):
        for dt in (-1, 0, 1):
            if ds or dt:
                expected &= g2 <= np.roll(np.roll(g2, ds, 0), dt, 1)
    assert np.array_equal(_interior_minima(np.pad(g2, 1, mode="wrap")), expected)


def test_grid_seeds_hold_no_dense_grid(circle):
    """The n = 1024 scan peaks below 6 MiB: one n x n float64 array alone
    would take 8 MiB."""
    _grid_seeds(circle, 1024)
    tracemalloc.start()
    try:
        _grid_seeds(circle, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("name", ["ellipse", "trefoil"])
def test_cord_terms_same_bits_alone_or_in_batch(name, request):
    """E, grad E and H of a cord do not depend on the batch around it, and
    match scalar ``@`` arithmetic on the spline values bit for bit."""
    curve = request.getfixturevalue(name)
    rng = np.random.default_rng(4)
    S, T = rng.random((2, 200)) * curve.L
    E, G, H = energy(curve, S, T), gradient(curve, S, T), hessian(curve, S, T)
    for i in range(200):
        s, t = S[i], T[i]
        assert energy(curve, s, t) == E[i]
        assert np.array_equal(gradient(curve, s, t), G[i])
        assert np.array_equal(hessian(curve, s, t), H[i])
        (ps, pt), (vs, vt), (a_s, a_t) = curve.spline.eval_multi(
            np.array([s, t]), (0, 1, 2))
        d = ps - pt
        assert E[i] == 0.5 * float(d @ d)
        assert G[i].tolist() == [float(d @ vs), -float(d @ vt)]
        assert H[i].tolist() == [
            [float(vs @ vs) + float(d @ a_s), -float(vs @ vt)],
            [-float(vs @ vt), float(vt @ vt) - float(d @ a_t)]]


def test_trefoil_census(trefoil):
    pts = find_critical_points(trefoil)
    counts = [sum(1 for p in pts if p.index == k) for k in range(3)]
    assert counts == [2, 10, 8]
    # Euler count with the symbolic diagonal pair m (index 0), M (index 1)
    assert (counts[0] + 1) - (counts[1] + 1) + counts[2] == 0
    labels = {p.label for p in pts}
    assert {"s_s", "s_t", "S_s", "S_t"} <= labels


def test_symmetry_of_critical_set(trefoil, ellipse):
    """Every census point's exact swap is in the census, with the same
    energy, gradient norm and eigenvalues and swapped eigenvectors."""
    for curve in (trefoil, ellipse):
        pts = find_critical_points(curve)
        by_cord = {(p.s, p.t): p for p in pts}
        assert len(by_cord) == len(pts)
        for p in pts:
            q = by_cord[(p.t, p.s)]
            assert (q.index, q.energy, q.grad_norm, q.eigvals) == \
                (p.index, p.energy, p.grad_norm, p.eigvals)
            assert np.array_equal(np.array(q.eigvecs), np.array(p.eigvecs)[:, ::-1])
            assert q.label[:-2] == p.label[:-2] and q.label != p.label


@pytest.mark.parametrize("spec, redrawn", [
    ({"type": "ellipse", "a": 2, "b": 1}, False),
    (json.loads((Path(__file__).resolve().parent.parent / "specs"
                 / "trefoil.json").read_text()), False),
    ({"type": "torus_knot", "p": 2, "q": 3}, True),
], ids=["ellipse", "trefoil.json", "torus_2_3"])
def test_census_lists_the_s_below_t_saddle_of_each_pair_first(spec, redrawn):
    """The census sorts by (index, energy, s) and partners have equal
    energies, so the s < t cord of each mirror pair comes first: the
    pipeline flows it and mirrors its partner's traces from it.  The torus
    knot's own census is a Bott family; its first knot draw, as the
    pipeline makes it, is censused instead."""
    curve = build_curve(spec)
    if redrawn:
        curve = perturb_curve(curve, curve.clearance / 8.0, 1)
    pts = find_critical_points(curve)
    partners = mirror_partners(pts)
    position = {p.label: i for i, p in enumerate(pts)}
    saddles = [p for p in pts if p.index == 1]
    assert saddles
    for p in saddles:
        first, second = sorted((p.label, partners[p.label]), key=position.get)
        assert pts[position[first]].s < pts[position[first]].t
        assert pts[position[second]].s > pts[position[second]].t


def test_gradient_norm_below_newton_tol(trefoil):
    for p in find_critical_points(trefoil):
        assert p.grad_norm < 1e-10 * trefoil.L
        assert p.index == sum(1 for ev in p.eigvals if ev < 0)


def test_diagonal_data_symbolic():
    d = diagonal_data()
    assert serialize(d["m"]["value"]) == "1 - u"
    assert d["M"]["boundary"] == AlgebraElement.zero()
    assert d["m"]["index"] == 0 and d["M"]["index"] == 1
