"""Energy landscape on the cord torus: E(s,t) = |gamma(s)-gamma(t)|^2 / 2.

Critical points of E away from the diagonal are binormal cords.  The
diagonal itself is a Bott minimum handled symbolically: its perturbation
contributes a minimum m with value 1 - u and a maximum M with D(M) = 0 for
every knot, so no numerical perturbation is ever constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCritical, SeedingInsufficient
from .knots import row_dots
from .ring import AlgebraElement
from .tolerances import DEFAULT_TOL

_BAND = 64  # grid rows per block of the census scan


def cord_length(curve, s, t):
    """|gamma(t) - gamma(s)|, the length of the linear cord (s, t)."""
    L = curve.L
    return float(np.linalg.norm(curve.point(float(t) % L)
                                - curve.point(float(s) % L)))


@dataclass(frozen=True)
class CriticalPoint:
    """A critical cord (s, t) of E, with s and t in [0, L)."""

    s: float
    t: float
    length: float
    index: int
    energy: float
    grad_norm: float
    eigvals: tuple
    eigvecs: tuple  # columns match eigvals
    label: str = ""

    def with_label(self, label):
        return replace(self, label=label)


class CordTerms(NamedTuple):
    """E, grad E and the Hessian at k cords, with the spline values they use."""

    E: np.ndarray         # (k,)
    grad: np.ndarray      # (k, 2)
    hess: np.ndarray      # (k, 2, 2)
    points: np.ndarray    # (2k, 3): gamma(s_1..s_k), then gamma(t_1..t_k)
    tangents: np.ndarray  # (2k, 3): gamma' at the same parameters


def cord_terms(curve, s, t):
    """E, grad E and the Hessian of E at the cords (s_i, t_i); s and t are
    scalars or arrays of one length.

    One spline call evaluates both endpoints of every cord, and each dot
    product rounds like a scalar ``x @ y`` (``row_dots``), so a cord gets
    the same bits alone or in a batch:

        E = |d|^2 / 2 with d = gamma(s) - gamma(t),
        grad E = (<d, gamma'(s)>, -<d, gamma'(t)>),
        H = [[|gamma'(s)|^2 + <d, gamma''(s)>, -<gamma'(s), gamma'(t)>],
             [-<gamma'(s), gamma'(t)>, |gamma'(t)|^2 - <d, gamma''(t)>]].
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = len(s)
    x, v, a = curve.spline.eval_multi(np.concatenate([s, t]), (0, 1, 2))
    d = x[:k] - x[k:]
    # all eight dot families in one call, k rows each: d.d, d.v(s), d.v(t),
    # d.a(s), d.a(t), v(s).v(s), v(t).v(t), v(s).v(t)
    dd, dvs, dvt, das, dat, vsvs, vtvt, vsvt = row_dots(
        np.concatenate([d, d, d, d, d, v, v[:k]]),
        np.concatenate([d, v, a, v, v[k:]])).reshape(8, k)
    grad = np.empty((k, 2))
    grad[:, 0], grad[:, 1] = dvs, -dvt
    hess = np.empty((k, 2, 2))
    hess[:, 0, 0], hess[:, 1, 1] = vsvs + das, vtvt - dat
    hess[:, 0, 1] = hess[:, 1, 0] = -vsvt
    return CordTerms(E=0.5 * dd, grad=grad, hess=hess, points=x, tangents=v)


def _terms(curve, s, t):
    """cord_terms of (s, t) and whether s is scalar."""
    return cord_terms(curve, s, t), np.ndim(s) == 0


def energy(curve, s, t):
    terms, scalar = _terms(curve, s, t)
    return float(terms.E[0]) if scalar else terms.E


def gradient(curve, s, t):
    """grad E = (<gamma(s)-gamma(t), gamma'(s)>, <gamma(t)-gamma(s), gamma'(t)>)."""
    terms, scalar = _terms(curve, s, t)
    return terms.grad[0] if scalar else terms.grad


def hessian(curve, s, t):
    terms, scalar = _terms(curve, s, t)
    return terms.hess[0] if scalar else terms.hess


def _newton_polish(curve, seeds, iters=60):
    """Damped Newton on grad E = 0, batched over seed points."""
    pts = np.array(seeds, dtype=float)
    L = curve.L
    for _ in range(iters):
        terms = cord_terms(curve, pts[:, 0], pts[:, 1])
        g, H = terms.grad, terms.hess
        gn = np.linalg.norm(g, axis=1)
        if np.all(gn < DEFAULT_TOL.newton_tol * L):
            break
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        bad = np.abs(det) < 1e-14
        det = np.where(bad, 1.0, det)
        step = np.empty_like(pts)
        step[:, 0] = (H[:, 1, 1] * g[:, 0] - H[:, 0, 1] * g[:, 1]) / det
        step[:, 1] = (-H[:, 1, 0] * g[:, 0] + H[:, 0, 0] * g[:, 1]) / det
        step[bad] = 0.0
        norm = np.linalg.norm(step, axis=1, keepdims=True)
        cap = 0.02 * L
        step = np.where(norm > cap, step * cap / np.where(norm > 0, norm, 1.0), step)
        pts = (pts - step) % L
    return pts


def find_critical_points(curve):
    """All nondegenerate off-diagonal critical points of E.

    Seeds from the local minima of |grad E|^2 on an escalating dense grid
    (scanned in bands, see ``_grid_seeds``), polishes by Newton, merges
    duplicates, rejects the diagonal tube, classifies by the Hessian, and
    requires the Euler count n0 - n1 + n2 = 0 (chi(T^2) = 0 with the
    diagonal contributing m and M) as a completeness certificate before
    returning the points named by ``assign_labels``.  Raises
    SeedingInsufficient if the count never closes and DegenerateCritical for
    Bott-type degeneracy.
    """
    L = curve.L
    n_grid = DEFAULT_TOL.grid_start
    last_err = None
    while n_grid <= DEFAULT_TOL.grid_max:
        axis, si, ti = _grid_seeds(curve, n_grid)
        seeds = np.stack([axis[si], axis[ti]], axis=1)
        off_diag = (curve.circ_dist(seeds[:, 0], seeds[:, 1])
                    > 0.5 * DEFAULT_TOL.diag_tube * L)
        seeds = seeds[off_diag]
        try:
            points = _collect(curve, seeds, 3.0 * L / n_grid)
        except DegenerateCritical as exc:
            last_err = exc
            n_grid *= 2
            continue
        n_by_index = [sum(1 for p in points if p.index == k) for k in range(3)]
        if n_by_index[0] - n_by_index[1] + n_by_index[2] == 0 and points:
            return assign_labels(curve, points)
        last_err = SeedingInsufficient(
            f"Euler count open at grid {n_grid}: {n_by_index}"
        )
        n_grid *= 2
    raise last_err if last_err else SeedingInsufficient("no critical points found")


def _grid_seeds(curve, n):
    """The axis k L / n, k < n, and the row-major indices (si, ti) of the
    cells of the periodic n x n grid of |grad E|^2 that are no larger than
    any of their eight neighbours.

    The spline is evaluated once on the axis.  Only the s-component
    gs(i, j) = <d(i, j), gamma'(s_i)> is computed: the t-component is
    -<d(i, j), gamma'(s_j)> = <d(j, i), gamma'(s_j)> = gs(j, i) exactly, since
    negation is exact, so g2 = gs(i, j)^2 + gs(j, i)^2 and its mask of minima
    are symmetric.  The cells j >= i are tested ``_BAND`` rows at a time on a
    block with a one-cell wrapped halo, and the hits off the diagonal are
    mirrored, so no n x n array is formed.
    """
    axis = np.arange(n) * (curve.L / n)
    P, V = curve.spline.eval_multi(axis, (0, 1))
    hits = []
    for r0 in range(0, n, _BAND):
        rows = np.arange(r0 - 1, min(r0 + _BAND, n) + 1) % n
        cols = np.arange(r0 - 1, n + 1) % n
        mask = _interior_minima(_block_grad_sq(P, V, rows, cols))
        bi, bj = np.nonzero(np.triu(mask))
        hits.append((r0 + bi, r0 + bj))
    i, j = (np.concatenate(part) for part in zip(*hits))
    off = i != j
    si, ti = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
    order = np.lexsort((ti, si))
    return axis, si[order], ti[order]


def _block_grad_sq(P, V, rows, cols):
    """|grad E|^2 on the cells (rows x cols) of the grid whose axis has the
    spline values P and derivatives V, as gs(i, j)^2 + gs(j, i)^2."""
    gs = row_dots(P[rows, None] - P[None, cols], V[rows, None])
    gt = row_dots(P[cols, None] - P[None, rows], V[cols, None]).T
    return gs * gs + gt * gt


def _interior_minima(g2):
    """The mask of the cells of ``g2`` without its one-cell halo that are no
    larger than any of their eight neighbours."""
    h, w = g2.shape[0] - 2, g2.shape[1] - 2
    mask = np.ones((h, w), dtype=bool)
    for ds in range(3):
        for dt in range(3):
            if ds != 1 or dt != 1:
                mask &= g2[1:-1, 1:-1] <= g2[ds:ds + h, dt:dt + w]
    return mask


def _collect(curve, seeds, cluster_dist):
    """The critical points polished from ``seeds``, in exact mirror pairs.

    E is symmetric under the swap (s,t) <-> (t,s), and so, bit for bit, are
    its gradient, its Hessian and the Newton step: the grid seeds come in
    swapped pairs and a swapped seed polishes to the swapped point.  Each
    pair is therefore merged as its representative with s < t, and its
    partner is built as the exact swap, with the same energy, gradient norm
    and eigenvalues and swapped eigenvectors.
    """
    L = curve.L
    if len(seeds) == 0:
        return []
    polished = _newton_polish(curve, seeds)
    g = gradient(curve, polished[:, 0], polished[:, 1])
    gn = np.linalg.norm(g, axis=1)
    ok = gn < DEFAULT_TOL.newton_tol * L
    polished = polished[ok]
    gn = gn[ok]
    keep = curve.circ_dist(polished[:, 0], polished[:, 1]) > DEFAULT_TOL.diag_tube * L
    polished, gn = polished[keep], gn[keep]
    if len(polished) == 0:
        return []

    # greedy first-come merge of the representatives: drop each point near
    # an earlier kept one or near its swap (a point close to a basepoint
    # line has copies on both sides of s = t)
    flip = polished[:, 0] > polished[:, 1]
    reps = np.vstack([polished[~flip], polished[flip][:, ::-1]])
    gn = np.concatenate([gn[~flip], gn[flip]])
    r = DEFAULT_TOL.merge_tol * L
    near = _close_pairs(curve, reps, r) | _close_pairs(curve, reps, r, reps[:, ::-1])
    kept = np.ones(len(reps), dtype=bool)
    for i in range(len(reps)):
        if kept[i]:
            kept[i + 1:] &= ~near[i + 1:, i]
    merged = np.vstack([reps[kept], reps[kept][:, ::-1]])
    merged_gn = np.concatenate([gn[kept], gn[kept]])

    # isolated criticals cannot sit at grid scale from each other; a cluster
    # of converged points along a valley is a Bott-degenerate family
    if np.triu(_close_pairs(curve, merged, cluster_dist), 1).any():
        raise DegenerateCritical(
            "critical points cluster at grid scale (Bott family)"
        )

    # the swapped Hessian has the same eigenvalues and swapped eigenvectors
    eigvals, eigvecs = np.linalg.eigh(hessian(curve, reps[kept, 0], reps[kept, 1]))
    eigvals = np.concatenate([eigvals, eigvals])
    eigvecs = np.concatenate([eigvecs, eigvecs[:, ::-1, :]])
    floor = DEFAULT_TOL.nondegeneracy_rel * np.max(np.abs(eigvals))
    if np.any(np.abs(eigvals) < floor):
        i = int(np.argmin(np.abs(eigvals).min(axis=1)))
        raise DegenerateCritical(
            f"near-zero Hessian eigenvalue at (s,t)=({merged[i,0]:.4f},{merged[i,1]:.4f})"
        )
    out = []
    for i, (p, gnorm) in enumerate(zip(merged, merged_gn)):
        length = cord_length(curve, p[0], p[1])
        out.append(CriticalPoint(
            s=float(p[0]) % L,
            t=float(p[1]) % L,
            length=length,
            index=int(np.sum(eigvals[i] < 0)),
            energy=0.5 * length ** 2,
            grad_norm=float(gnorm),
            eigvals=tuple(eigvals[i]),
            eigvecs=tuple(map(tuple, eigvecs[i].T)),
        ))
    out.sort(key=lambda cp: (cp.index, cp.energy, cp.s))
    return out


def mirror_partners(points):
    """Map each census point's label to the label of its exact swap."""
    by_cord = {(p.s, p.t): p.label for p in points}
    return {p.label: by_cord[(p.t, p.s)] for p in points}


def _close_pairs(curve, pts, r, other=None):
    """near[i, j]: pts[i] and other[j] (default pts[j]) lie within r of each
    other in s and in t."""
    other = pts if other is None else other
    near = curve.circ_dist(pts[:, None, 0], other[None, :, 0]) < r
    near &= curve.circ_dist(pts[:, None, 1], other[None, :, 1]) < r
    return near


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def assign_labels(curve, points):
    """Deterministic generator names; paper-style names on braid layouts."""
    if curve.metadata.get("layout") == "braid":
        return _braid_labels(curve, points)
    prefixes = {0: "g", 1: "h", 2: "e"}
    counters = {0: 0, 1: 0, 2: 0}
    seen = {}
    labeled = []
    for p in points:
        key = _pair_key(curve, p)
        if key in seen:
            base = seen[key]
        else:
            counters[p.index] += 1
            base = f"{prefixes[p.index]}{counters[p.index]}"
            seen[key] = base
        labeled.append(p.with_label(f"{base}_{_orientation(p)}"))
    return labeled


def _orientation(p):
    return "s" if p.s < p.t else "t"


def _pair_key(curve, p, res=1e-5):
    a = round(min(p.s, p.t) / (res * curve.L))
    b = round(max(p.s, p.t) / (res * curve.L))
    return (p.index, a, b)


def _braid_labels(curve, points):
    """s / S for the short inter-strand cords, k_ij / l_ij for the long ones.

    The paper's (i, j) strand indices depend on its drawing; here the long
    cords of each index are named k11, k12, k21, k22, ... in descending
    energy order (the paper's k11 is its longest index-1 cord), which is
    deterministic and layout-independent.  Golden comparisons use value
    multisets, not these decorative names.
    """
    meta = curve.metadata
    short_cut = 2.5 * meta["spacing"] * (1.0 + meta["modulation"])
    pairs = {}
    for p in points:
        key = _pair_key(curve, p)
        pairs.setdefault(key, p)
    seen = {}
    by_family = {}
    for key, p in pairs.items():
        if p.length < short_cut:
            fam = {0: "s", 1: "S"}.get(p.index, "c")
        else:
            fam = {1: "k", 2: "l"}.get(p.index, "b")
        by_family.setdefault(fam, []).append(key)
    for fam, keys in by_family.items():
        keys.sort(key=lambda k: (-pairs[k].energy, pairs[k].s))
        if fam in ("s", "S", "c", "b") and len(keys) == 1:
            seen[keys[0]] = fam
        elif fam in ("k", "l"):
            for rank, key in enumerate(keys):
                i, j = divmod(rank, 2)
                seen[key] = f"{fam}{i + 1}{j + 1}"
        else:
            for rank, key in enumerate(keys):
                seen[key] = f"{fam}{rank + 1}"
    return [
        p.with_label(f"{seen[_pair_key(curve, p)]}_{_orientation(p)}")
        for p in points
    ]


# ---------------------------------------------------------------------------
# the symbolic diagonal
# ---------------------------------------------------------------------------

def diagonal_data():
    """Symbolic descriptors of the diagonal pair m (index 0) and M (index 1).

    m's algebra value is 1 - u (a contractible cord) and D(M) = 0 for every
    knot, so neither is ever discretized.
    """
    return {
        "m": {"index": 0, "value": AlgebraElement.one() - AlgebraElement.mu()},
        "M": {"index": 1, "boundary": AlgebraElement.zero()},
    }
