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
from scipy.interpolate import CubicSpline

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
    """Periodic cubic spline on a uniform knot grid with fast derivatives."""

    def __init__(self, values, period):
        n = len(values)
        grid = np.linspace(0.0, period, n + 1)
        closed = np.vstack([values, values[:1]])
        c = CubicSpline(grid, closed, bc_type="periodic", axis=0).c  # (4, n, dim)
        self._packed = np.ascontiguousarray(np.moveaxis(c, 0, 1))  # (n, 4, dim)
        self._h = period / n
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

    Uses a provisional periodic spline and a dense arclength table; two
    passes are enough to hit |gamma'| = 1 well inside tol_arc.
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

    A pair of segments counts when its spatial distance is well below its
    circular arc distance (ratio threshold chosen so a round circle's
    antipodal pairs, ratio 2/pi, still count while shallow same-arc
    neighbors, ratio near 1, do not).  Falls back to the diameter scale when
    the curve has no close approaches at all.
    """
    pts = np.asarray(points)
    n = len(pts)
    a = pts
    b = np.roll(pts, -1, axis=0)
    mids = 0.5 * (a + b)
    seg = np.linalg.norm(b - a, axis=1)
    step = float(np.mean(seg))
    diff = mids[:, None, :] - mids[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    idx = np.arange(n)
    circ = np.abs(idx[:, None] - idx[None, :])
    arc = np.minimum(circ, n - circ) * step
    mask = np.triu(dist < ratio * arc, k=1)
    if not mask.any():
        return float(np.max(dist))
    i, j = np.nonzero(mask & (dist < dist[mask].min() + 2 * step))
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

    def validate(self, tol=DEFAULT_TOL):
        probe = np.linspace(0.0, self.L, 4 * len(self.samples), endpoint=False)
        speed = np.linalg.norm(self.spline(probe, d=1), axis=1)
        if np.any(np.abs(speed - 1.0) > tol.tol_arc):
            raise DegenerateSpec(
                f"arclength parametrization off by {np.max(np.abs(speed - 1.0)):.2e}"
            )
        if self.clearance <= tol.embedding_floor * self.L:
            raise NonEmbedded(f"clearance {self.clearance:.3e} below floor")
        curv = np.linalg.norm(self.spline(probe, d=2), axis=1)
        if np.any(curv < tol.curvature_floor):
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

    def __init__(self, curve, rotation=0.0, winding=0, eps=None):
        self.curve = curve
        self.rotation = float(rotation)
        self.winding = int(winding)
        self.eps = eps if eps is not None else 0.1 * curve.clearance

    def nu(self, s):
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = self.curve.unit_tangent(s)
        v = VERTICAL - t * t[:, 2:]
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms < VERTICAL_FLOOR):
            raise VerticalTangent("tangent parallel to the vertical direction")
        v = v / norms[:, None]
        if self.winding or self.rotation:
            # positive winding turns clockwise seen along the orientation,
            # decreasing lk(K, K') by one per turn
            angle = self.rotation - 2.0 * math.pi * self.winding * s / self.curve.L
            w = np.cross(t, v)
            v = np.cos(angle)[:, None] * v + np.sin(angle)[:, None] * w
        return v[0] if scalar else v

    def with_winding(self, extra):
        return Framing(self.curve, self.rotation, self.winding + extra, self.eps)

    def validate(self, tol=DEFAULT_TOL):
        probe = np.linspace(0.0, self.curve.L, 1024, endpoint=False)
        v = self.nu(probe)
        t = self.curve.unit_tangent(probe)
        if np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) > 1e-8:
            raise InvariantLost("framing not unit length")
        if np.max(np.abs(np.einsum("ij,ij->i", v, t))) > 1e-8:
            raise InvariantLost("framing not orthogonal to tangent")
        return self


def build_framing(curve, kind="blackboard", rotation=0.0, winding=0):
    """Construct the blackboard framing, the only ``kind`` there is."""
    if kind != "blackboard":
        raise SpecError(f"unknown framing kind {kind!r}")
    return Framing(curve, rotation=rotation, winding=winding).validate()


# ---------------------------------------------------------------------------
# Gauss linking number (exact for polylines, Klenin-Langowski style)
# ---------------------------------------------------------------------------

def _unit_cross(x, y):
    c = np.cross(x, y)
    n = np.linalg.norm(c, axis=-1, keepdims=True)
    return c / np.where(n < 1e-300, 1.0, n)


def _asin_dot(a, b, sign=1.0):
    dot = sign * np.einsum("...i,...i->...", a, b)
    return np.arcsin(np.clip(dot, -1.0, 1.0))


def gauss_linking(points_a, points_b):
    """Exact polyline linking number contribution sum (float).

    Quad (i, j), segment i of a against segment j of b, adds the solid angle
    spanned by its unit normals n1..n4.  Neighbouring quads share normals,
    n3(i, j) = -n1(i+1, j) and n2(i, j) = -n4(i, j+1), so each row block
    computes n1 (on one extra row) and n4 only.
    """
    a = np.asarray(points_a)
    b1 = np.asarray(points_b)[None, :, :]
    b2 = np.roll(b1, -1, axis=1)
    r34 = b2 - b1
    total = 0.0
    block = 64
    for i in range(0, len(a), block):
        rows = np.arange(i, min(i + block, len(a)) + 1) % len(a)
        p = a[rows, None, :]
        r1 = b1 - p  # q1 - p1, rows i .. i + block
        n1 = _unit_cross(r1, b2 - p)
        n4 = _unit_cross(r1[1:], r1[:-1])
        m2 = np.roll(n4, -1, axis=1)  # -n2
        n1, m3 = n1[:-1], n1[1:]  # -n3
        omega = (_asin_dot(n1, m2, -1.0) + _asin_dot(m2, m3)
                 + _asin_dot(m3, n4, -1.0) + _asin_dot(n4, n1))
        sign = np.sign(np.einsum("...i,...i->...", np.cross(r34, p[1:] - p[:-1]), r1[:-1]))
        total += float(np.sum(omega * sign / (4.0 * math.pi)))
    return total


def linking_number(curve, framing, eps=None, n=1024):
    """Gauss linking number of K and its push-off K' = gamma + eps*nu."""
    params = np.arange(n) * (curve.L / n)
    base = curve.point(params)
    eps = eps if eps is not None else framing.eps
    push = base + eps * framing.nu(params)
    raw = gauss_linking(base, push)
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise NumericalAmbiguity(f"linking integral {raw:.4f} too far from an integer")
    return int(nearest)


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


# rotation direction constant: +1 makes positive braid generators produce
# positive crossings w.r.t. the blackboard push-off (pinned by the trefoil
# linking-number test)
_TWIST_DIR = 1.0


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


def braid_layout_points(spec):
    """Dense points along the braid closure, plus layout metadata.

    Returns (points, metadata); metadata records the strand count, spacing
    and modulation, which the labeler reads, and the ellipse axes, crossing
    slots and loop count, which the Seifert winding-rule derivation reads.
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

    # positions before each slot, evolved sequentially
    for k, (g, (a_k, b_k)) in enumerate(zip(spec.word, slots)):
        i = abs(g) - 1
        after = theta >= b_k
        inside = (theta >= a_k) & (theta < b_k)
        lo, hi = i, i + 1
        swap_lo = after & (pos == lo)
        swap_hi = after & (pos == hi)
        # rotation inside the slot
        t = _smoothstep((theta - a_k) / (b_k - a_k))
        phi = _TWIST_DIR * np.sign(g) * math.pi * t
        mid = (lo + hi) / 2.0 - (n_str - 1) / 2.0
        for which, sgn in ((lo, -0.5), (hi, 0.5)):
            m = inside & (pos == which)
            alpha[m] = mid + sgn * np.cos(phi[m])
            beta[m] = sgn * spec.inplane_ratio * np.sin(phi[m])
        pos[swap_lo] = hi
        pos[swap_hi] = lo

    outside = np.ones(n_total, dtype=bool)
    for (a_k, b_k) in slots:
        outside &= ~((theta >= a_k) & (theta < b_k))
    alpha[outside] = pos[outside] - (n_str - 1) / 2.0

    d = spec.d_of_theta(theta)
    nx = spec.b * np.cos(theta)
    ny = spec.a * np.sin(theta)
    nn = np.hypot(nx, ny)
    n_hat = np.stack([nx / nn, ny / nn, np.zeros_like(nx)], axis=1)
    base = np.stack([spec.a * np.cos(theta), spec.b * np.sin(theta),
                     np.zeros_like(theta)], axis=1)
    pts = base + (d * alpha)[:, None] * VERTICAL + (d * beta)[:, None] * n_hat

    meta = {
        "layout": "braid",
        "strands": n_str,
        "axes": (spec.a, spec.b),
        "spacing": spec.spacing,
        "modulation": spec.modulation,
        "slots": slots,
        "loops": loops,
    }
    return pts, meta


# ---------------------------------------------------------------------------
# build_curve + knot specs
# ---------------------------------------------------------------------------

def build_curve(spec, tol=DEFAULT_TOL):
    """Build a validated KnotCurve from a knot spec dict.

    Spec types: samples | circle | ellipse | torus_knot | braid.  Optional
    field: basepoint_shift (fraction of L).  The framing fields
    (framing_rotation, seifert_rules) are read by ``pipeline.setup_knot``,
    which also refuses a ``framing`` key.
    """
    kind = spec.get("type")
    meta = {}
    if kind == "samples":
        pts = np.asarray(spec["points"], dtype=float)
        if len(pts) < 12:
            raise DegenerateSpec("need at least 12 sample points")
        n_out = max(512, len(pts))
    elif kind == "circle":
        pts = ellipse_points(spec["r"], spec["r"], n=spec.get("n", 1024))
        n_out = 512
    elif kind == "ellipse":
        pts = ellipse_points(spec["a"], spec["b"], n=spec.get("n", 1024),
                             tilt=spec.get("tilt"))
        n_out = 512
    elif kind == "torus_knot":
        pts = torus_knot_points(spec["p"], spec["q"], spec.get("R", 3.0),
                                spec.get("r", 1.0))
        n_out = 1024
    elif kind == "braid":
        keys = ("strands", "a", "b", "spacing", "modulation", "theta_S",
                "quarter", "inplane_ratio", "samples_per_loop")
        kwargs = {k: spec[k] for k in keys if k in spec}
        if "quarter" in kwargs:
            kwargs["quarter"] = tuple(kwargs["quarter"])
        pts, meta = braid_layout_points(
            BraidLayoutSpec(word=list(spec["word"]), **kwargs))
        n_out = 2048
    else:
        raise SpecError(f"unknown knot spec type {kind!r}")

    samples, L = _resample_arclength(pts, n_out)
    clearance = _min_clearance(samples[:: max(1, len(samples) // 512)])
    curve = KnotCurve(samples, L, clearance, meta).validate(tol)
    shift = float(spec.get("basepoint_shift", 0.0))
    if shift:
        curve = curve.shift_basepoint(shift * L).validate(tol)
    return curve


# ---------------------------------------------------------------------------
# projection crossings (diagram checks)
# ---------------------------------------------------------------------------

def projection_crossings(curve, direction=None, n=2048):
    """Count transverse self-crossings of the projected polyline.

    A generic direction must be supplied for layouts whose natural projection
    is degenerate (stacked braid strands).
    """
    if direction is None:
        direction = np.array([0.05, 0.03, 1.0])
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    e1 = np.cross(d, [1.0, 0.0, 0.0])
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.cross(d, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    params = np.arange(n) * (curve.L / n)
    pts3 = curve.point(params)
    pts = np.stack([pts3 @ e1, pts3 @ e2], axis=1)
    a = pts
    b = np.roll(pts, -1, axis=0)
    count = 0
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if len(js) == 0:
            continue
        p, r = a[i], b[i] - a[i]
        q = a[js]
        s = b[js] - a[js]
        denom = r[0] * s[:, 1] - r[1] * s[:, 0]
        ok = np.abs(denom) > 1e-14
        qp = q - p
        t = np.where(ok, (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / np.where(ok, denom, 1.0), -1)
        u = np.where(ok, (qp[:, 0] * r[1] - qp[:, 1] * r[0]) / np.where(ok, denom, 1.0), -1)
        count += int(np.sum(ok & (t > 0) & (t < 1) & (u > 0) & (u < 1)))
    return count


# ---------------------------------------------------------------------------
# perturbations (seeded, deterministic)
# ---------------------------------------------------------------------------

def _bump(x):
    """C^2 bump supported on [-1, 1]."""
    y = np.clip(np.abs(x), 0.0, 1.0)
    return (1.0 - y * y) ** 3


def perturb_basepoint(curve, magnitude, seed=0):
    rng = np.random.default_rng(seed)
    delta = magnitude * (0.5 + 0.5 * rng.random()) * (1 if rng.random() < 0.5 else -1)
    return curve.shift_basepoint(delta)


def perturb_curve(curve, magnitude, seed=0, center=None, direction=None,
                  width=None, tol=DEFAULT_TOL):
    """Seeded local bump of the knot; re-validates all invariants."""
    if magnitude >= curve.clearance / 4.0:
        raise InvariantLost("perturbation magnitude too large for the clearance")
    rng = np.random.default_rng(seed)
    center = center if center is not None else rng.random() * curve.L
    width = width or 0.05 * curve.L
    if direction is None:
        direction = rng.normal(size=3)
    direction = np.asarray(direction, float)
    direction /= np.linalg.norm(direction)
    n = len(curve.samples)
    params = np.arange(n) * (curve.L / n)
    x = (params - center + curve.L / 2) % curve.L - curve.L / 2
    bump = _bump(x / width)[:, None] * direction * magnitude
    pts = curve.samples + bump
    try:
        samples, L = _resample_arclength(pts, n)
        clearance = _min_clearance(samples[:: max(1, len(samples) // 512)])
        return KnotCurve(samples, L, clearance, curve.metadata).validate(tol)
    except (NonEmbedded, DegenerateSpec) as exc:
        raise InvariantLost(str(exc)) from exc


def perturb_framing(framing, magnitude, seed=0):
    """Seeded rotation-angle change of the framing (homotopy class preserved)."""
    rng = np.random.default_rng(seed)
    delta = magnitude * (0.5 + 0.5 * rng.random()) * (1 if rng.random() < 0.5 else -1)
    return Framing(framing.curve, framing.rotation + delta, framing.winding,
                   framing.eps)
