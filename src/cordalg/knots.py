"""Knot curves, framings, braid-along-ellipse layouts, and linking numbers.

Curves are closed arclength-parametrized C^2 space curves backed by a
periodic cubic spline through resampled points; derivatives come from the
interpolant.  The basepoint is always parameter 0; shifting it is a
reparametrization of the same geometry.
"""

from __future__ import annotations

import math
import numbers
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


# midpoint rows per band of the clearance scan: a band's (rows x n) float
# arrays take 128 KiB each at n = 512
_CLEARANCE_BAND = 32


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

    The midpoints are scanned in bands of ``_CLEARANCE_BAND`` rows, each
    against every later midpoint.  A band's squared distances come from
    one matrix product, by the Gram identity |c_i|^2 + |c_j|^2 - 2 c_i.c_j
    on the midpoints c centred at their mean, and only the pairs below both
    squared bounds, the counted one and (best + 2 steps) with the best of
    the bands before, widened by ``margin``, are measured again by the
    midpoint difference and judged by the exact rule.  Every term of the
    identity is at most 4 R^2, R the largest |c_i|, so its rounding, with
    that of the centring, is below 30 u R^2 (u = 2^-53); a pair that the
    exact rule keeps has d^2 < t^2 (1 + 11 u) for its bound t, and no pair
    is farther apart than 2 R (1 + u).  The margin of 1e-12 R^2 is some
    100 times what these take, so the pairs measured again include every
    pair the exact rule keeps, and the result is the dense rule's float.
    """
    a = np.asarray(points)
    n = len(a)
    b = np.roll(a, -1, axis=0)
    mids = 0.5 * (a + b)
    step = float(np.mean(np.linalg.norm(b - a, axis=1)))
    # the counted bound of two midpoints k apart, as the exact rule has it
    k = np.arange(n)
    limit = ratio * (np.minimum(k, n - k) * step)
    c = mids - np.mean(mids, axis=0)
    sq = row_dots(c, c)
    margin = 1e-12 * float(np.max(sq))
    # squared bounds by offset j - i, at -inf where j <= i, read for every
    # pair through a Toeplitz view: row i, column j is padded[n + j - i]
    padded = np.full(2 * n, -np.inf)
    padded[n + 1:] = limit[1:] ** 2 + margin
    counted2 = np.lib.stride_tricks.as_strided(
        padded[n:], shape=(n, n), strides=(-padded.itemsize, padded.itemsize),
        writeable=False)
    best = bound2 = math.inf
    found = []
    for lo in range(0, n - 1, _CLEARANCE_BAND):
        hi = min(lo + _CLEARANCE_BAND, n)
        d2 = c[lo:hi] @ c[lo:].T
        d2 *= -2.0
        d2 += sq[lo:hi, None]
        d2 += sq[lo:]
        u, v = np.nonzero((d2 < counted2[lo:hi, lo:]) & (d2 < bound2))
        if not len(u):
            continue
        i, j = u + lo, v + lo
        dist = np.linalg.norm(mids[i] - mids[j], axis=1)
        mask = dist < limit[j - i]
        if mask.any():
            best = min(best, dist[mask].min())
            bound2 = (best + 2 * step) ** 2 + margin
            keep = mask & (dist < best + 2 * step)
            found.append((i[keep], j[keep], dist[keep]))
    if not found:
        raise DegenerateSpec(
            f"no segment pair is closer than {ratio} of its arc distance:"
            " the points do not sample a closed curve")
    i, j, dist = (np.concatenate(x) for x in zip(*found))
    near = dist < best + 2 * step
    i, j = i[near], j[near]
    return float(np.min(_segment_distances(a[i], b[i], a[j], b[j])))


def _clearance_points(samples):
    """The samples whose fold-back clearance a curve records: every k-th of
    n >= 512 samples, k = n // 512, so that the scan sees 512 to 1,023."""
    return samples[:: max(1, len(samples) // 512)]


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

    def unit_tangent(self, s):
        t = self.spline(s, d=1)
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    # -- invariants ------------------------------------------------------

    def validate(self):
        probe = np.linspace(0.0, self.L, 4 * len(self.samples), endpoint=False)
        first, second = self.spline.eval_multi(probe, (1, 2))
        speed = np.linalg.norm(first, axis=1)
        if np.any(np.abs(speed - 1.0) > DEFAULT_TOL.tol_arc):
            raise DegenerateSpec(
                f"arclength parametrization off by {np.max(np.abs(speed - 1.0)):.2e}"
            )
        if self.clearance <= DEFAULT_TOL.embedding_floor * self.L:
            raise NonEmbedded(f"clearance {self.clearance:.3e} below floor")
        curv = np.linalg.norm(second, axis=1)
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
        """nu at the parameter s, where the unit tangent is (tx, ty, tz), in
        scalar arithmetic for the flow's steps."""
        angle = self._angle(s)
        turn = (math.cos(angle), math.sin(angle)) if angle else None
        return _nu_formula(tx, ty, tz, turn, math.sqrt, float)

    def nu(self, s):
        """nu at each parameter of the array s, one row each: the expression
        of ``at`` on numpy columns, with the same floats."""
        s = np.asarray(s, dtype=float)
        tx, ty, tz = self.curve.unit_tangent(s).T
        angle = self._angle(s)
        if not self.winding:
            turn = (math.cos(angle), math.sin(angle)) if angle else None
            return np.column_stack(_nu_formula(tx, ty, tz, turn, np.sqrt, np.min))
        # math's cos and sin per element, as ``at`` takes them, and no turn
        # where the angle is zero
        turn = (np.array([math.cos(x) for x in angle.tolist()]),
                np.array([math.sin(x) for x in angle.tolist()]))
        nu = np.column_stack(_nu_formula(tx, ty, tz, turn, np.sqrt, np.min))
        flat = angle == 0.0
        if flat.any():
            nu[flat] = np.column_stack(_nu_formula(
                tx[flat], ty[flat], tz[flat], None, np.sqrt, np.min))
        return nu

    def _angle(self, s):
        """The turn of nu in the normal plane at the parameter s, a float or
        an array: the rotation, less one full turn per winding."""
        angle = self.rotation
        if self.winding:
            # positive winding turns clockwise seen along the orientation,
            # decreasing lk(K, K') by one per turn
            angle -= 2.0 * math.pi * self.winding * s / self.curve.L
        return angle


def _nu_formula(tx, ty, tz, turn, sqrt, least):
    """The one expression of nu: the vertical projected onto the normal plane
    of the unit tangent (tx, ty, tz), normalised, then turned in the oriented
    normal plane by the angle whose (cos, sin) is ``turn``, or not turned
    when it is None.  It runs on floats and on numpy columns alike: ``sqrt``
    is the square root of either, and ``least`` gives the shortest of the
    projections (``float`` for one), which must reach VERTICAL_FLOOR."""
    nx, ny, nz = -tz * tx, -tz * ty, 1.0 - tz * tz
    nn = sqrt(nx * nx + ny * ny + nz * nz)
    if least(nn) < VERTICAL_FLOOR:
        raise VerticalTangent("tangent parallel to the vertical direction")
    nx, ny, nz = nx / nn, ny / nn, nz / nn
    if turn is None:
        return nx, ny, nz
    ca, sa = turn
    return (ca * nx + sa * (ty * nz - tz * ny),
            ca * ny + sa * (tz * nx - tx * nz),
            ca * nz + sa * (tx * ny - ty * nx))


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

# the projection direction of ``linking_number``: oblique to the vertical,
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

def ellipse_points(a, b, n=1024):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([a * np.cos(th), b * np.sin(th), np.zeros_like(th)], axis=1)


def torus_knot_points(p, q, R=3.0, r=1.0, n=2048):
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([
        (R + r * np.cos(q * th)) * np.cos(p * th),
        (R + r * np.cos(q * th)) * np.sin(p * th),
        r * np.sin(q * th),
    ], axis=1)


# ---------------------------------------------------------------------------
# braid-along-ellipse layout
# ---------------------------------------------------------------------------

def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass
class BraidLayoutSpec:
    """Two-strand braid closure drawn along an ellipse, crossings confined to
    one quarter.

    The two strands are stacked vertically over the ellipse and swap levels
    by half turns inside angular slots; the stack separation d(theta) is
    modulated by one cosine so the short inter-strand cords have exactly one
    minimum (the cord s) and one maximum (the saddle S) instead of a
    critical circle.  ``strands`` must be 2, or ``DegenerateSpec`` is
    raised; the generators are 1 and -1, and a word of even length, whose
    closure is a link, raises SpecError.
    """

    word: list
    strands: int = 2
    a: float = 3.0
    b: float = 2.0
    spacing: float = 0.12
    modulation: float = 0.3
    theta_S: float = math.radians(265.0)
    quarter: tuple = (math.radians(272.0), math.radians(358.0))

    def __post_init__(self):
        if self.strands != 2:
            raise DegenerateSpec(
                f"braid layouts draw two strands, not {self.strands}")
        for g in self.word:
            if abs(g) != 1:
                raise SpecError(f"braid generator {g} out of range: two strands"
                                " have only the generators 1 and -1")
        if len(self.word) % 2 == 0:
            raise SpecError("braid closure is a link, not a knot: a two-strand"
                            " word needs an odd number of crossings")

    def slots(self):
        """Angular slot (start, end) for each crossing, inside the quarter."""
        q0, q1 = self.quarter
        n = len(self.word)
        width = (q1 - q0) / n
        pad = 0.12 * width
        return [(q0 + k * width + pad, q0 + (k + 1) * width - pad) for k in range(n)]

    def d_of_theta(self, theta):
        return self.spacing * (1.0 + self.modulation * np.cos(theta - self.theta_S))


# samples of ``braid_layout_points`` per pass of the ellipse
_BRAID_PASS_SAMPLES = 2048


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
    """Dense points along the two-strand braid closure, plus layout metadata.

    The closure passes the ellipse twice, starting at the stack levels -1/2
    and +1/2 (units of d), and every slot swaps the two levels by a half
    turn.  Returns (points, metadata); metadata records the spacing and
    modulation, which the labeler reads, and each crossing's over-passage
    point, where the Seifert winding-rule derivation settles a winding.
    """
    Theta = np.linspace(0.0, 4.0 * math.pi, 2 * _BRAID_PASS_SAMPLES, endpoint=False)
    theta = Theta % (2.0 * math.pi)
    # the stack level outside the slots, and where a slot is entered: each
    # slot flips it, so the second pass starts at +1/2
    level = np.where(Theta < 2.0 * math.pi, -0.5, 0.5)
    phi = np.zeros_like(theta)  # the strand pair's turn, 0 outside the slots
    for g, (a_k, b_k) in zip(spec.word, spec.slots()):
        inside = (theta >= a_k) & (theta < b_k)
        # positive generators give positive crossings w.r.t. the blackboard
        # push-off
        phi[inside] = np.sign(g) * math.pi * _smoothstep(
            (theta[inside] - a_k) / (b_k - a_k))
        level[theta >= b_k] *= -1.0
    d = spec.d_of_theta(theta)
    base, n_hat = _ellipse_frame(spec, theta)
    # vertical stack and in-plane normal coordinates, in units of d
    alpha, beta = level * np.cos(phi), level * np.sin(phi)
    pts = base + (d * alpha)[:, None] * VERTICAL + (d * beta)[:, None] * n_hat

    # halfway through each slot the strand that entered at level sign(g) / 2
    # is outside the other one: the over-passage
    over_theta = np.array([0.5 * (a_k + b_k) for a_k, b_k in spec.slots()])
    over_level = 0.5 * np.sign(spec.word)[:, None]
    turn = np.sign(spec.word)[:, None] * math.pi * _smoothstep(0.5)
    base, n_hat = _ellipse_frame(spec, over_theta)
    over = base + spec.d_of_theta(over_theta)[:, None] * (
        over_level * np.cos(turn) * VERTICAL + over_level * np.sin(turn) * n_hat)
    meta = {
        "layout": "braid",
        "spacing": spec.spacing,
        "modulation": spec.modulation,
        "over_passages": over,
    }
    return pts, meta


# ---------------------------------------------------------------------------
# build_curve + knot specs
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _real(value):
    """A JSON number as a finite float: bools, strings, NaN and the
    infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def _integer(value):
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _numbers(count):
    def convert(value):
        out = tuple(_real(x) for x in value)
        if len(out) != count:
            raise ValueError(f"expected {count} numbers, got {len(out)}")
        return out
    return convert


def _points(value):
    pts = np.array([[_real(x) for x in p] for p in value])
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected a list of [x, y, z] points, got shape {pts.shape}")
    return pts


def _word(value):
    return [_integer(g) for g in value]


_BRAID_FIELDS = {"strands": _integer, "a": _real, "b": _real, "spacing": _real,
                 "modulation": _real, "theta_S": _real, "quarter": _numbers(2)}

# every key a knot spec may have, by its type: the ones ``build_curve``
# reads, and ``framing_rotation``, which ``pipeline.setup_knot`` reads
_SPEC_KEYS = {
    kind: frozenset({"type", "basepoint_shift", "framing_rotation", *keys})
    for kind, keys in [("samples", ["points"]),
                       ("circle", ["r", "n"]),
                       ("ellipse", ["a", "b", "n"]),
                       ("torus_knot", ["p", "q", "R", "r"]),
                       ("braid", ["word", *_BRAID_FIELDS])]}


def spec_field(spec, key, convert=_real, default=_REQUIRED):
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

    Spec types: samples | circle | ellipse | torus_knot | braid, with the
    keys that ``_SPEC_KEYS`` lists for each; every type takes the optional
    basepoint_shift (fraction of L) and framing_rotation, which
    ``pipeline.setup_knot`` reads.  Any other key raises SpecError, and so
    does a number that is not finite.  Every field is read and converted
    before any numerics run.
    """
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise SpecError(f"unknown knot spec type {kind!r}")
    unread = [repr(k) for k in spec if k not in _SPEC_KEYS[kind]]
    if unread:
        raise SpecError(f"knot spec type {kind!r} has no field {', '.join(unread)};"
                        f" its fields are {', '.join(sorted(_SPEC_KEYS[kind]))}")
    shift = spec_field(spec, "basepoint_shift", default=0.0)
    meta = {}
    if kind == "samples":
        pts = spec_field(spec, "points", _points)
        if len(pts) < 12:
            raise DegenerateSpec("need at least 12 sample points")
        n_out = max(512, len(pts))
    elif kind in ("circle", "ellipse"):
        a, b = ([spec_field(spec, "r")] * 2 if kind == "circle"
                else [spec_field(spec, "a"), spec_field(spec, "b")])
        n = spec_field(spec, "n", _integer, 1024)
        if n < 12:
            raise DegenerateSpec(f"need at least 12 sample points, not 'n' = {n}")
        pts, n_out = ellipse_points(a, b, n=n), 512
    elif kind == "torus_knot":
        p, q = spec_field(spec, "p", _integer), spec_field(spec, "q", _integer)
        R, r = spec_field(spec, "R", default=3.0), spec_field(spec, "r", default=1.0)
        if p == 0 or q == 0 or math.gcd(p, q) != 1:
            raise SpecError(f"torus knot fields 'p' = {p} and 'q' = {q} are not"
                            " nonzero and coprime: the curve is not a knot")
        if not 0 < r < R:
            raise SpecError(f"torus knot fields 'R' = {R} and 'r' = {r} need"
                            " 0 < r < R, or the tube meets its axis")
        pts, n_out = torus_knot_points(p, q, R, r), 1024
    else:
        kwargs = {k: spec_field(spec, k, convert)
                  for k, convert in _BRAID_FIELDS.items()
                  if spec.get(k) is not None}
        pts, meta = braid_layout_points(
            BraidLayoutSpec(word=spec_field(spec, "word", _word), **kwargs))
        n_out = 2048

    samples, L = _resample_arclength(pts, n_out)
    clearance = _min_clearance(_clearance_points(samples))
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
        clearance = _min_clearance(_clearance_points(samples))
        return KnotCurve(samples, L, clearance, curve.metadata).validate()
    except (NonEmbedded, DegenerateSpec) as exc:
        raise InvariantLost(str(exc)) from exc


def perturb_framing(framing, magnitude, seed=0):
    """Seeded rotation-angle change of the framing (homotopy class preserved)."""
    return build_framing(framing.curve,
                         rotation=framing.rotation + _signed_draw(magnitude, seed),
                         winding=framing.winding)
