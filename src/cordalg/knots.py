"""Knot curves, framings, braid-along-ellipse layouts, and linking numbers.

Curves are closed arclength-parametrized C^2 space curves backed by a
periodic cubic spline through resampled points; derivatives come from the
interpolant.  The basepoint is always parameter 0; shifting it is a
reparametrization of the same geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpec,
    InvariantLost,
    NonEmbedded,
    NumericalAmbiguity,
    SpecError,
    VerticalTangent,
)
from .tolerances import DEFAULT_TOL

VERTICAL = np.array([0.0, 0.0, 1.0])
# the blackboard framing is undefined where the vertical's projection onto
# the normal plane is shorter than this
VERTICAL_FLOOR = 1e-8


class PeriodicSpline:
    """Periodic cubic spline on a uniform knot grid with fast derivatives.

    The knot slopes m solve m[i-1] + 4 m[i] + m[i+1] = 3 (y[i+1] - y[i-1]) / h,
    a circulant system that the DFT diagonalises with eigenvalues
    4 + 2 cos(2 pi k / n).
    """

    def __init__(self, values, period):
        y = np.asarray(values, dtype=float)
        n = len(y)
        h = period / n
        y_next = np.roll(y, -1, axis=0)
        rhs = 3.0 * (y_next - np.roll(y, 1, axis=0)) / h
        eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        m = np.fft.ifft(np.fft.fft(rhs, axis=0) / eig[:, None], axis=0).real
        slope = (y_next - y) / h
        t = (m + np.roll(m, -1, axis=0) - 2.0 * slope) / h
        # per interval: the Horner coefficients of dx^3, dx^2, dx, 1
        self._packed = np.stack([t / h, (slope - m) / h - t, m, y], axis=1)
        self._h = h
        self._n = n
        self.period = period

    def __call__(self, s, d=0):
        s = np.asarray(s, dtype=float)
        out = self._horner(np.atleast_1d(s), (d,))[0]
        return out[0] if s.ndim == 0 else out

    def eval_multi(self, s, ders=(0, 1)):
        """Several derivative orders from one knot-index computation."""
        return self._horner(np.asarray(s, dtype=float), ders)

    def _horner(self, s, ders):
        s = s % self.period
        idx = np.minimum((s / self._h).astype(int), self._n - 1)
        dx = (s - idx * self._h)[:, None]
        c = self._packed[idx]  # (k, 4, dim)
        c0, c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
        out = []
        for d in ders:
            if d == 0:
                out.append(((c0 * dx + c1) * dx + c2) * dx + c3)
            elif d == 1:
                out.append((3.0 * c0 * dx + 2.0 * c1) * dx + c2)
            elif d == 2:
                out.append(6.0 * c0 * dx + 2.0 * c1)
            else:
                raise ValueError("derivative order must be 0..2")
        return out


def _cumulative_arclength(points):
    deltas = np.diff(np.vstack([points, points[:1]]), axis=0)
    seg = np.linalg.norm(deltas, axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _resample_arclength(points, n_out, refine=4):
    """Resample a closed polyline-ish point set to uniform arclength.

    Each of three passes fits a provisional periodic spline, tabulates its
    arclength densely and resamples at uniform arclength.  Three passes
    bring |gamma'| within tol_arc on the shipped layouts, but not always for
    a steep local bump, which ``KnotCurve.validate`` then rejects.
    """
    pts = np.asarray(points, dtype=float)
    for _ in range(3):
        cum = _cumulative_arclength(pts)
        total = cum[-1]
        if total <= 0:
            raise DegenerateSpec("degenerate point set with zero length")
        spline = PeriodicSpline(pts, total)
        dense_t = np.linspace(0.0, total, refine * len(pts), endpoint=False)
        speed = np.linalg.norm(spline(dense_t, d=1), axis=1)
        dt = total / len(dense_t)
        arc = np.concatenate([[0.0], np.cumsum(speed * dt)])
        L = arc[-1]
        targets = np.linspace(0.0, L, n_out, endpoint=False)
        t_of_s = np.interp(targets, arc, np.append(dense_t, total))
        pts = spline(t_of_s)
    return pts, L


def _min_clearance(points, ratio=0.7):
    """Fold-back clearance: min spatial distance among genuinely close approaches.

    A pair of segments counts when the distance of their midpoints is well
    below their circular arc distance (ratio threshold chosen so a round
    circle's antipodal pairs, ratio 2/pi, still count while shallow same-arc
    neighbors, ratio near 1, do not).  Every closed curve has such a pair:
    g(s) = gamma(s + L/2) - gamma(s) is anti-periodic with |g'| <= 2, so by
    Wirtinger's inequality some antipodal pair has chord/arc <= 2/pi.  No
    counted pair raises ``DegenerateSpec``.  The segment distance is refined
    on the counted pairs within 2 steps of the closest one.

    Midpoints are taken 64 at a time, and the block pairs are visited in
    ascending order of the distance of their bounding boxes until that
    distance exceeds the closest counted distance plus 2 steps: no pair
    further on can be refined.
    """
    a = np.asarray(points)
    n = len(a)
    b = np.roll(a, -1, axis=0)
    mids = 0.5 * (a + b)
    step = float(np.mean(np.linalg.norm(b - a, axis=1)))
    starts = np.arange(0, n, 64)
    blocks = [np.arange(i, min(i + 64, n)) for i in starts]
    lo = np.minimum.reduceat(mids, starts)
    hi = np.maximum.reduceat(mids, starts)
    bi, bj = np.triu_indices(len(blocks))
    # shrunk far beyond rounding, so it stays below every midpoint distance
    # of the block pair
    gap = (1.0 - 1e-12) * np.linalg.norm(
        np.maximum(0.0, np.maximum(lo[bi] - hi[bj], lo[bj] - hi[bi])), axis=1)
    best = math.inf
    found = []
    for p in np.argsort(gap):
        if gap[p] > best + 2 * step:
            break
        ki, kj = blocks[bi[p]], blocks[bj[p]]
        dist = np.linalg.norm(mids[ki, None] - mids[None, kj], axis=2)
        circ = np.abs(ki[:, None] - kj[None, :])
        mask = dist < ratio * (np.minimum(circ, n - circ) * step)
        if bi[p] == bj[p]:
            mask = np.triu(mask, k=1)
        if mask.any():
            best = min(best, dist[mask].min())
            u, v = np.nonzero(mask & (dist < best + 2 * step))
            found.append((ki[u], kj[v], dist[u, v]))
    if not found:
        raise DegenerateSpec(
            f"no segment pair is closer than {ratio} of its arc distance:"
            " the points do not sample a closed curve")
    i, j, dist = (np.concatenate(x) for x in zip(*found))
    near = dist < best + 2 * step
    i, j = i[near], j[near]
    return float(np.min(_segment_distances(a[i], b[i], a[j], b[j])))


def row_dots(x, y):
    """Dot product of each row of ``x`` with the matching row of ``y``.

    Each row takes one BLAS dot, as ``x @ y`` of two 3-vectors computes it
    (fused multiply-adds on most hosts), so batched kernels reproduce scalar
    code bit for bit; explicit sums and ``einsum`` round differently.  The
    leading axes broadcast, so ``y`` may be a single vector, which every row
    is dotted with.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _segment_distances(p1, p2, q1, q2):
    """Closest distance between the segments p1p2 and q1q2, row by row."""
    u = p2 - p1
    v = q2 - q1
    w = p1 - q1
    a, b, c = row_dots(u, u), row_dots(u, v), row_dots(v, v)
    d, e = row_dots(u, w), row_dots(v, w)
    denom = a * c - b * b
    parallel = denom < 1e-14 * np.maximum(a * c, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(parallel, e / c, (a * e - b * d) / denom)
        t = np.where(c > 0, np.clip(t, 0.0, 1.0), 0.0)
        s = np.where(~parallel & (a > 0), np.clip((b * t - d) / a, 0.0, 1.0), 0.0)
    gap = p1 + s[:, None] * u - (q1 + t[:, None] * v)
    return np.sqrt(row_dots(gap, gap))


class KnotCurve:
    """Closed arclength-parametrized space curve with spline derivatives."""

    def __init__(self, samples, L, clearance, metadata=None):
        self.samples = np.asarray(samples, dtype=float)
        self.L = float(L)
        self.clearance = float(clearance)
        self.metadata = dict(metadata or {})
        self.spline = PeriodicSpline(self.samples, self.L)

    # -- evaluation ------------------------------------------------------

    def point(self, s):
        return self.spline(s, d=0)

    def tangent(self, s):
        return self.spline(s, d=1)

    def second(self, s):
        return self.spline(s, d=2)

    def unit_tangent(self, s):
        t = self.spline(s, d=1)
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    # -- invariants ------------------------------------------------------

    def validate(self):
        probe = np.linspace(0.0, self.L, 4 * len(self.samples), endpoint=False)
        speed = np.linalg.norm(self.spline(probe, d=1), axis=1)
        if np.any(np.abs(speed - 1.0) > DEFAULT_TOL.tol_arc):
            raise DegenerateSpec(
                f"arclength parametrization off by {np.max(np.abs(speed - 1.0)):.2e}"
            )
        if self.clearance <= DEFAULT_TOL.embedding_floor * self.L:
            raise NonEmbedded(f"clearance {self.clearance:.3e} below floor")
        curv = np.linalg.norm(self.spline(probe, d=2), axis=1)
        if np.any(curv < DEFAULT_TOL.curvature_floor):
            raise DegenerateSpec("curvature below floor at some parameter")
        return self

    # -- reparametrization -------------------------------------------------

    def shift_basepoint(self, delta):
        """Move the basepoint by ``delta`` along the curve (geometry unchanged)."""
        n = len(self.samples)
        s_new = (np.arange(n) * (self.L / n) + delta) % self.L
        return KnotCurve(self.spline(s_new), self.L, self.clearance, self.metadata)

    def circ_dist(self, s1, s2):
        d = np.abs((s1 - s2) % self.L)
        return np.minimum(d, self.L - d)


# ---------------------------------------------------------------------------
# framings
# ---------------------------------------------------------------------------

class Framing:
    """Blackboard framing: a unit normal field nu along a knot curve.

    nu is the vertical direction projected onto the normal planes.
    ``rotation`` is an extra constant angle applied in the oriented normal
    plane (used to keep F away from the near-vertical inter-strand cords of
    braid layouts), and ``winding`` adds full turns of nu along the curve
    (changes the framing homotopy class by -winding in the linking number).
    """

    def __init__(self, curve, rotation=0.0, winding=0):
        self.curve = curve
        self.rotation = float(rotation)
        self.winding = int(winding)
        self.eps = 0.1 * curve.clearance

    def at(self, s, tx, ty, tz):
        """nu at the parameter s, where the unit tangent is (tx, ty, tz); the
        only computation of nu, in scalar arithmetic for the flow's steps."""
        nx, ny, nz = -tz * tx, -tz * ty, 1.0 - tz * tz
        nn = math.sqrt(nx * nx + ny * ny + nz * nz)
        if nn < VERTICAL_FLOOR:
            raise VerticalTangent("tangent parallel to the vertical direction")
        nx, ny, nz = nx / nn, ny / nn, nz / nn
        # positive winding turns clockwise seen along the orientation,
        # decreasing lk(K, K') by one per turn
        angle = self.rotation
        if self.winding:
            angle -= 2.0 * math.pi * self.winding * s / self.curve.L
        if angle:
            ca, sa = math.cos(angle), math.sin(angle)
            nx, ny, nz = (ca * nx + sa * (ty * nz - tz * ny),
                          ca * ny + sa * (tz * nx - tx * nz),
                          ca * nz + sa * (tx * ny - ty * nx))
        return nx, ny, nz

    def nu(self, s):
        """nu at each parameter of the array s, one row each."""
        tangents = self.curve.unit_tangent(s).tolist()
        return np.array([self.at(si, *ti) for si, ti in zip(s.tolist(), tangents)])


def build_framing(curve, kind="blackboard", rotation=0.0, winding=0):
    """The blackboard framing of ``curve``, the only ``kind`` there is; nu is
    probed at 1,024 points, so a vertical tangent raises ``VerticalTangent``."""
    if kind != "blackboard":
        raise SpecError(f"unknown framing kind {kind!r}")
    framing = Framing(curve, rotation=rotation, winding=winding)
    framing.nu(np.linspace(0.0, curve.L, 1024, endpoint=False))
    return framing


# ---------------------------------------------------------------------------
# linking number by crossing count
# ---------------------------------------------------------------------------

# the projection direction of ``linking_number``: tilted off the vertical,
# along which the stacked strands of braid layouts and the blackboard
# push-off would almost overlay
LINKING_VIEW = np.array([0.6, 0.3, 1.0]) / math.sqrt(1.45)
# a crossing this close to a segment end, in segment fractions, is ambiguous
_CROSSING_MARGIN = 1e-9
# the pad of the boxes of ``crossing_sums``, relative to the coordinate scale
_BOX_PAD = 1e-6


def crossing_sums(points_a, points_b):
    """Signed crossing counts of two closed polylines seen along ``LINKING_VIEW``.

    Returns (over, under): the sums of the crossing signs where b passes
    over a and where b passes under a.  For closed curves both equal the
    linking number (Rolfsen, Knots and Links, 5.D).  A crossing within
    ``_CROSSING_MARGIN`` of a segment end makes the projection ambiguous and
    raises ``NumericalAmbiguity``.  Segments of a are taken 64 at a time,
    each block against the segments of b whose projected boxes meet the
    block's box padded by ``_BOX_PAD`` of the coordinate scale.  A crossing
    within the margin of two segments lies within the margin times their
    lengths of both of their boxes, far inside that pad.
    """
    e1 = np.cross(LINKING_VIEW, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    frame = np.stack([e1, np.cross(LINKING_VIEW, e1), LINKING_VIEW], axis=1)
    a = np.asarray(points_a) @ frame  # plane coordinates, then the height
    b = np.asarray(points_b) @ frame
    a_next, b_next = np.roll(a, -1, axis=0), np.roll(b, -1, axis=0)
    da, db = a_next - a, b_next - b
    b_lo = np.minimum(b, b_next)[:, :2]
    b_hi = np.maximum(b, b_next)[:, :2]
    pad = _BOX_PAD * max(np.max(np.abs(a[:, :2])), np.max(np.abs(b[:, :2])))
    over = under = 0
    for i in range(0, len(a), 64):
        lo = np.minimum(a[i:i + 64, :2], a_next[i:i + 64, :2]).min(axis=0) - pad
        hi = np.maximum(a[i:i + 64, :2], a_next[i:i + 64, :2]).max(axis=0) + pad
        j = np.flatnonzero(np.all((b_hi >= lo) & (b_lo <= hi), axis=1))
        r = da[i:i + 64, None]
        w = b[None, j] - a[i:i + 64, None]
        dbj = db[None, j]
        denom = r[..., 0] * dbj[..., 1] - r[..., 1] * dbj[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (w[..., 0] * dbj[..., 1] - w[..., 1] * dbj[..., 0]) / denom
            t = (w[..., 0] * r[..., 1] - w[..., 1] * r[..., 0]) / denom
        m = _CROSSING_MARGIN
        near = (s > -m) & (s < 1.0 + m) & (t > -m) & (t < 1.0 + m)
        hit = (s > m) & (s < 1.0 - m) & (t > m) & (t < 1.0 - m)
        if np.any(near & ~hit):
            raise NumericalAmbiguity("projected crossing at a segment end")
        k, c = np.nonzero(hit)
        # height of b over a at each crossing, and the crossing's sign
        rise = (w[k, c, 2] + t[k, c] * dbj[0, c, 2]) - s[k, c] * r[k, 0, 2]
        sign = np.sign(denom[k, c])
        over -= int(np.sum(sign[rise > 0.0]))
        under += int(np.sum(sign[rise < 0.0]))
    return over, under


# samples of the knot and push-off polylines of ``linking_number``
LINKING_SAMPLES = 1024


def linking_number(curve, framing, eps=None):
    """Linking number of K and its push-off K' = gamma + eps*nu.

    Counts the signed crossings of the two ``LINKING_SAMPLES``-point
    polylines in one projection (``crossing_sums``).  The crossings where K'
    passes over K and those where it passes under give the linking number
    independently; if they disagree, or a crossing sits at a segment end,
    the projection is not regular and ``NumericalAmbiguity`` is raised.
    """
    params = np.arange(LINKING_SAMPLES) * (curve.L / LINKING_SAMPLES)
    base = curve.point(params)
    eps = eps if eps is not None else framing.eps
    push = base + eps * framing.nu(params)
    over, under = crossing_sums(base, push)
    if over != under:
        raise NumericalAmbiguity(
            f"crossings over and under the push-off count {over} and {under}")
    return over


# ---------------------------------------------------------------------------
# primitive layouts
# ---------------------------------------------------------------------------

def ellipse_points(a, b, n=1024, tilt=None):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([a * np.cos(th), b * np.sin(th), np.zeros_like(th)], axis=1)
    if tilt:
        pts = pts @ _rotation_matrix(tilt).T
    return pts


def torus_knot_points(p, q, R=3.0, r=1.0, n=2048):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([
        (R + r * np.cos(q * th)) * np.cos(p * th),
        (R + r * np.cos(q * th)) * np.sin(p * th),
        r * np.sin(q * th),
    ], axis=1)


def _rotation_matrix(angles):
    ax, ay, az = angles
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


# ---------------------------------------------------------------------------
# braid-along-ellipse layout
# ---------------------------------------------------------------------------

def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass
class BraidLayoutSpec:
    """Braid closure drawn along an ellipse, crossings confined to one quarter.

    Strands are stacked vertically over the ellipse and swap levels by half
    turns inside angular slots; the stack separation d(theta) is modulated by
    one cosine so the short inter-strand cords have exactly one minimum (the
    cord s) and one maximum (the saddle S) instead of a critical circle.
    """

    word: list
    strands: int = 2
    a: float = 3.0
    b: float = 2.0
    spacing: float = 0.12
    modulation: float = 0.3
    theta_S: float = math.radians(265.0)
    quarter: tuple = (math.radians(272.0), math.radians(358.0))
    inplane_ratio: float = 1.0     # swap-circle in-plane amplitude / spacing;
                                   # 1.0 keeps the strand pair at constant
                                   # separation through the crossings so the
                                   # short-cord family stays a single Bott
                                   # circle (broken only by the modulation)
    samples_per_loop: int = 2048

    def __post_init__(self):
        if self.strands < 2:
            raise DegenerateSpec("braid needs at least 2 strands")
        for g in self.word:
            if g == 0 or abs(g) >= self.strands:
                raise SpecError(f"braid generator {g} out of range")
        if not self._single_cycle():
            raise SpecError("braid closure is a link, not a knot")

    def _permutation(self):
        perm = list(range(self.strands))
        for g in self.word:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def _single_cycle(self):
        perm = self._permutation()
        seen = 1
        at = perm[0]
        while at != 0:
            at = perm[at]
            seen += 1
        return seen == self.strands

    def slots(self):
        """Angular slot (start, end) for each crossing, inside the quarter."""
        q0, q1 = self.quarter
        n = len(self.word)
        width = (q1 - q0) / n
        pad = 0.12 * width
        return [(q0 + k * width + pad, q0 + (k + 1) * width - pad) for k in range(n)]

    def d_of_theta(self, theta):
        return self.spacing * (1.0 + self.modulation * np.cos(theta - self.theta_S))


def _ellipse_frame(spec, theta):
    """The layout ellipse at the angles theta and its outward in-plane unit
    normals, as two (k, 3) arrays."""
    nx = spec.b * np.cos(theta)
    ny = spec.a * np.sin(theta)
    nn = np.hypot(nx, ny)
    n_hat = np.stack([nx / nn, ny / nn, np.zeros_like(nx)], axis=1)
    base = np.stack([spec.a * np.cos(theta), spec.b * np.sin(theta),
                     np.zeros_like(theta)], axis=1)
    return base, n_hat


def braid_layout_points(spec):
    """Dense points along the braid closure, plus layout metadata.

    Returns (points, metadata); metadata records the strand count, spacing
    and modulation, which the labeler reads, and each crossing's
    over-passage point, where the Seifert winding-rule derivation settles a
    winding.
    """
    n_str = spec.strands
    loops = n_str  # single-cycle closure passes the ellipse once per strand
    n_total = spec.samples_per_loop * loops
    Theta = np.linspace(0.0, 2.0 * math.pi * loops, n_total, endpoint=False)
    theta = Theta % (2.0 * math.pi)
    loop_idx = (Theta // (2.0 * math.pi)).astype(int)

    # braid position occupied at Theta: start of each loop from the closure
    # permutation, updated as theta passes each slot
    perm = spec._permutation()
    start_pos = [0]
    for _ in range(loops - 1):
        start_pos.append(perm[start_pos[-1]])
    slots = spec.slots()

    pos = np.array([start_pos[l] for l in loop_idx])
    alpha = np.zeros(n_total)  # vertical stack coordinate (units of d)
    beta = np.zeros(n_total)   # in-plane normal coordinate  (units of d)
    # per crossing: the slot's middle angle and the (alpha, beta) of the
    # strand on the outside of the swap there (its over-passage)
    over_theta, over_ab = [], []

    # positions before each slot, evolved sequentially
    for k, (g, (a_k, b_k)) in enumerate(zip(spec.word, slots)):
        i = abs(g) - 1
        after = theta >= b_k
        inside = (theta >= a_k) & (theta < b_k)
        lo, hi = i, i + 1
        swap_lo = after & (pos == lo)
        swap_hi = after & (pos == hi)
        mid = (lo + hi) / 2.0 - (n_str - 1) / 2.0

        # rotation inside the slot; positive generators give positive
        # crossings w.r.t. the blackboard push-off
        def slot_coords(t, sgn):
            phi = np.sign(g) * math.pi * _smoothstep(t)
            return (mid + sgn * np.cos(phi),
                    sgn * spec.inplane_ratio * np.sin(phi))

        t = (theta - a_k) / (b_k - a_k)
        for which, sgn in ((lo, -0.5), (hi, 0.5)):
            m = inside & (pos == which)
            alpha[m], beta[m] = slot_coords(t[m], sgn)
        over_theta.append(0.5 * (a_k + b_k))
        over_ab.append(max((slot_coords(0.5, sgn) for sgn in (-0.5, 0.5)),
                           key=lambda ab: ab[1]))
        pos[swap_lo] = hi
        pos[swap_hi] = lo

    outside = np.ones(n_total, dtype=bool)
    for (a_k, b_k) in slots:
        outside &= ~((theta >= a_k) & (theta < b_k))
    alpha[outside] = pos[outside] - (n_str - 1) / 2.0

    d = spec.d_of_theta(theta)
    base, n_hat = _ellipse_frame(spec, theta)
    pts = base + (d * alpha)[:, None] * VERTICAL + (d * beta)[:, None] * n_hat

    over_theta = np.array(over_theta)
    over_ab = np.array(over_ab).reshape(-1, 2)
    base, n_hat = _ellipse_frame(spec, over_theta)
    over = base + spec.d_of_theta(over_theta)[:, None] * (
        over_ab[:, :1] * VERTICAL + over_ab[:, 1:] * n_hat)
    meta = {
        "layout": "braid",
        "strands": n_str,
        "spacing": spec.spacing,
        "modulation": spec.modulation,
        "over_passages": over,
    }
    return pts, meta


# ---------------------------------------------------------------------------
# build_curve + knot specs
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _integer(value):
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _numbers(count):
    def convert(value):
        out = tuple(float(x) for x in value)
        if len(out) != count:
            raise ValueError(f"expected {count} numbers, got {len(out)}")
        return out
    return convert


def _points(value):
    pts = np.asarray(value, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected a list of [x, y, z] points, got shape {pts.shape}")
    return pts


def _word(value):
    return [_integer(g) for g in value]


_BRAID_FIELDS = {"strands": _integer, "a": float, "b": float, "spacing": float,
                 "modulation": float, "theta_S": float, "quarter": _numbers(2),
                 "inplane_ratio": float, "samples_per_loop": _integer}


def spec_field(spec, key, convert=float, default=_REQUIRED):
    """``convert(spec[key])``, or ``default`` when the key is absent or null.
    A missing required field, or a value that ``convert`` refuses, raises
    SpecError naming the field."""
    value = spec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SpecError(f"knot spec type {spec.get('type')!r} needs the"
                            f" field {key!r}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"bad spec field {key!r}: {exc}") from exc


def build_curve(spec):
    """Build a validated KnotCurve from a knot spec dict.

    Spec types: samples | circle | ellipse | torus_knot | braid.  Optional
    field: basepoint_shift (fraction of L).  The framing field
    (framing_rotation) is read by ``pipeline.setup_knot``, which also
    refuses the keys it does not support.  Every field is read and converted
    before any numerics run.
    """
    kind = spec.get("type")
    shift = spec_field(spec, "basepoint_shift", float, 0.0)
    meta = {}
    if kind == "samples":
        pts = spec_field(spec, "points", _points)
        if len(pts) < 12:
            raise DegenerateSpec("need at least 12 sample points")
        n_out = max(512, len(pts))
    elif kind == "circle":
        r = spec_field(spec, "r")
        pts = ellipse_points(r, r, n=spec_field(spec, "n", _integer, 1024))
        n_out = 512
    elif kind == "ellipse":
        pts = ellipse_points(spec_field(spec, "a"), spec_field(spec, "b"),
                             n=spec_field(spec, "n", _integer, 1024),
                             tilt=spec_field(spec, "tilt", _numbers(3), None))
        n_out = 512
    elif kind == "torus_knot":
        pts = torus_knot_points(spec_field(spec, "p", _integer),
                                spec_field(spec, "q", _integer),
                                spec_field(spec, "R", float, 3.0),
                                spec_field(spec, "r", float, 1.0))
        n_out = 1024
    elif kind == "braid":
        kwargs = {k: spec_field(spec, k, convert)
                  for k, convert in _BRAID_FIELDS.items()
                  if spec.get(k) is not None}
        pts, meta = braid_layout_points(
            BraidLayoutSpec(word=spec_field(spec, "word", _word), **kwargs))
        n_out = 2048
    else:
        raise SpecError(f"unknown knot spec type {kind!r}")

    samples, L = _resample_arclength(pts, n_out)
    clearance = _min_clearance(samples[:: max(1, len(samples) // 512)])
    curve = KnotCurve(samples, L, clearance, meta).validate()
    if shift:
        curve = curve.shift_basepoint(shift * L).validate()
    return curve


# ---------------------------------------------------------------------------
# perturbations (seeded, deterministic)
# ---------------------------------------------------------------------------

def _bump(x):
    """C^2 bump supported on [-1, 1]."""
    y = np.clip(np.abs(x), 0.0, 1.0)
    return (1.0 - y * y) ** 3


def _signed_draw(magnitude, seed):
    """A seeded value of size in [magnitude / 2, magnitude) and random sign."""
    rng = np.random.default_rng(seed)
    return magnitude * (0.5 + 0.5 * rng.random()) * (1 if rng.random() < 0.5 else -1)


def perturb_basepoint(curve, magnitude, seed=0):
    return curve.shift_basepoint(_signed_draw(magnitude, seed))


def perturb_curve(curve, magnitude, seed=0):
    """Seeded bump of the knot, supported within 0.3 L of a seeded center on
    either side; re-validates all invariants.

    The support covers 60% of the knot, more than half: a round
    arc keeps its diameters as a Bott family of critical cords on every
    pair of points outside the support, and with a support over half the
    knot every antipodal pair has an endpoint inside it.  The wide bump is
    also gentle enough to resample to arclength within ``tol_arc``.
    """
    if magnitude >= curve.clearance / 4.0:
        raise InvariantLost("perturbation magnitude too large for the clearance")
    rng = np.random.default_rng(seed)
    center = rng.random() * curve.L
    width = 0.3 * curve.L
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    n = len(curve.samples)
    params = np.arange(n) * (curve.L / n)
    x = (params - center + curve.L / 2) % curve.L - curve.L / 2
    bump = _bump(x / width)[:, None] * direction * magnitude
    pts = curve.samples + bump
    try:
        samples, L = _resample_arclength(pts, n)
        clearance = _min_clearance(samples[:: max(1, len(samples) // 512)])
        return KnotCurve(samples, L, clearance, curve.metadata).validate()
    except (NonEmbedded, DegenerateSpec) as exc:
        raise InvariantLost(str(exc)) from exc


def perturb_framing(framing, magnitude, seed=0):
    """Seeded rotation-angle change of the framing (homotopy class preserved)."""
    return build_framing(framing.curve,
                         rotation=framing.rotation + _signed_draw(magnitude, seed),
                         winding=framing.winding)
