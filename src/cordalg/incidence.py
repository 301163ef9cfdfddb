"""Membership and signed event functions for the sets B, F^s, F^e and S.

B holds cords through the basepoint, F^s / F^e cords whose chord projects
onto the framing direction at the start / end point, and S cords meeting the
knot in their interior.  Flow event detection brackets sign changes of these
functions; the S set is screened against the sampled curve segments and
refined on the spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TangentialContact, ZeroProjection
from .knots import row_dots
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class EventFunctionValue:
    value: float         # signed; zero crossing = event
    positive: bool = True  # F events only count on the +nu side


# ---------------------------------------------------------------------------
# B and F
# ---------------------------------------------------------------------------

def cord_events(framing, s, t, pts, tans):
    """The event functions B-start, B-end, F-start and F-end at a cord (s, t).

    ``pts`` and ``tans`` are (2, 3) arrays holding gamma and gamma' at s and
    at t, evaluated by the caller.  The B values are the signed circular
    distances of s and t to the basepoint 0.  The F values are pairs
    (value, alpha): in the oriented basis (nu, tangent x nu) of the normal
    plane at the endpoint, value is the (tangent x nu)-coordinate of the
    normalized projected chord towards the other endpoint, and alpha its
    nu-coordinate.  A zero crossing of value with alpha > 0 is an F event.
    The arithmetic is scalar: the flow evaluates it at every step.
    """
    L = framing.curve.L
    half = L / 2.0
    (px, py, pz), (qx, qy, qz) = pts.tolist()
    ts, tt = tans.tolist()
    cx, cy, cz = qx - px, qy - py, qz - pz
    return {
        "B-start": (s + half) % L - half,
        "B-end": (t + half) % L - half,
        "F-start": _framing_coordinates(framing, s, ts, cx, cy, cz),
        "F-end": _framing_coordinates(framing, t, tt, -cx, -cy, -cz),
    }


def _framing_coordinates(framing, base, tangent, vx, vy, vz):
    """(value, alpha) of the chord v at the endpoint ``base``; see cord_events.

    ``tangent`` is gamma' at ``base``, of any length.  A chord parallel to
    it raises ``ZeroProjection``.
    """
    tx, ty, tz = tangent
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = tx / tn, ty / tn, tz / tn
    nx, ny, nz = framing.at(base, tx, ty, tz)
    dot_t = vx * tx + vy * ty + vz * tz
    wx, wy, wz = vx - dot_t * tx, vy - dot_t * ty, vz - dot_t * tz
    norm = math.sqrt(wx * wx + wy * wy + wz * wz)
    if norm < 1e-9 * max(math.sqrt(vx * vx + vy * vy + vz * vz), 1e-300):
        raise ZeroProjection("chord parallel to the tangent")
    wx, wy, wz = wx / norm, wy / norm, wz / norm
    gx = ty * nz - tz * ny
    gy = tz * nx - tx * nz
    gz = tx * ny - ty * nx
    return wx * gx + wy * gy + wz * gz, wx * nx + wy * ny + wz * nz


def framing_event(curve, framing, s, t, endpoint="start"):
    """F-start or F-end at the cord (s, t), from one spline call.

    The value is ``cord_events``' signed transverse coordinate of the
    projected chord against nu; ``positive`` marks the +nu side, where a
    zero crossing is a genuine F event.
    """
    pts, tans = curve.spline.eval_multi(np.array([s, t], dtype=float), (0, 1))
    value, alpha = cord_events(framing, s, t, pts, tans)[f"F-{endpoint}"]
    return EventFunctionValue(value=value, positive=alpha > 0.0)


# ---------------------------------------------------------------------------
# S: chord / knot interior intersections
# ---------------------------------------------------------------------------

class ChordScreen:
    """Broad-phase screen of the curve against chords.

    The curve is cached as segments once; per query a vectorized
    segment-to-segment distance pass returns candidate parameter windows,
    which Newton refinement on the spline then resolves.  This is the flow
    engine's hot path, so everything stays in numpy.
    """

    def __init__(self, curve, n=None):
        self.curve = curve
        n = n or len(curve.samples)
        self.params = np.arange(n) * (curve.L / n)
        a = curve.point(self.params)
        b = np.roll(a, -1, axis=0)
        self.mid = 0.5 * (a + b)
        self.half = 0.5 * np.linalg.norm(b - a, axis=1)
        self.step = curve.L / n

    def candidates(self, s, t, radius, points=None):
        """Segment indices whose distance to the chord (s, t) is below ``radius``.

        ``s`` and ``t`` are scalars, or arrays of one length that screen a
        block of chords in one pass; the block's result holds one (cord,
        segment) row per candidate, cord by cord, each cord's segments
        ascending as its scalar call returns them.  ``points`` holds gamma(s)
        and gamma(t) when the caller has them.  A chord shorter than 1e-150
        has no candidates.
        """
        if points is None:
            x = self.curve.spline.eval_multi(np.ravel([s, t]), (0,))[0]
            points = x.reshape(2, *np.shape(s), 3)
        p, q = points
        p = p.reshape(-1, 3)
        d = q.reshape(-1, 3) - p
        near = self.gaps(p, d) < radius
        near[row_dots(d, d) < 1e-300] = False
        return np.nonzero(near[0])[0] if np.ndim(s) == 0 else np.argwhere(near)

    def gaps(self, p, d, cells=None):
        """Distance of each cell to each chord p -> p + d, less the cell's
        half-length: no point of the cell's segment lies closer to the chord.

        p and d hold one row per chord; the result holds one row per chord
        and one column per cell, of every cell or of the indices ``cells``.
        """
        mid, half = self.mid, self.half
        if cells is not None:
            mid, half = mid[cells], half[cells]
        dd = row_dots(d, d)
        # distance from segment midpoints to each chord segment; each cord's
        # (mid - p) @ d is one matrix-vector product of the batch
        u = np.matmul(mid - p[:, None], d[:, :, None])[..., 0]
        u /= np.maximum(dd, 1e-300)[:, None]
        np.clip(u, 0.0, 1.0, out=u)
        # mid - (p + u d), squared, in one (cords, cells, 3) temporary
        off = u[..., None] * d[:, None]
        off += p[:, None]
        np.subtract(mid, off, out=off)
        off *= off
        return np.sqrt(np.add.reduce(off, axis=-1)) - half


# cords per block of ``chord_knot_intersections``: the screen's temporaries
# hold block x screen cells x 3 floats, 1.5 MiB at 1,024 cells
_BLOCK = 64


def chord_knot_intersections(curve, s, t, screen=None):
    """All interior intersections (u, tau) of the chord with the knot.

    u is the curve parameter of the hit, tau in (0,1) the chord fraction.
    The knot segments within three screen steps of the chord are refined.
    Hits within endpoint_margin of either endpoint parameter, or with tau
    outside (tau_floor, 1 - tau_floor), belong to the endpoint contact zone
    and are excluded.  Raises TangentialContact on a flat (non-transverse)
    minimum at any candidate.

    ``s`` and ``t`` may be sequences of one length instead: then the result is
    one hit list per cord, or None for a cord with a flat minimum, each the
    bits of that cord's scalar call.  The cords go through the kernel
    ``_BLOCK`` at a time.
    """
    screen = screen or ChordScreen(curve)
    if np.ndim(s) == 0:
        hits = _block_hits(curve, np.array([s], dtype=float),
                           np.array([t], dtype=float), screen)[0]
        if hits is None:
            raise TangentialContact("flat distance minimum along the chord")
        return hits
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = []
    for b0 in range(0, len(s), _BLOCK):
        out += _block_hits(curve, s[b0:b0 + _BLOCK], t[b0:b0 + _BLOCK], screen)
    return out


def _block_hits(curve, s, t, screen):
    """``chord_knot_intersections`` of the cords (s[i], t[i]) of one block:
    the candidates of every cord refined in one Newton batch."""
    L = curve.L
    k = len(s)
    x = curve.spline.eval_multi(np.concatenate([s, t]), (0,))[0]
    p, d = x[:k], x[k:] - x[:k]
    out = [[] for _ in range(k)]
    cord, seg = screen.candidates(s, t, 3.0 * screen.step, (x[:k], x[k:])).T
    if len(cord) == 0:
        return out
    u, tau, dist, flat = _refine_crossings(
        curve, p[cord], d[cord], screen.params[seg] + 0.5 * screen.step)[:4]
    margin = DEFAULT_TOL.endpoint_margin * L
    tau_floor = DEFAULT_TOL.tau_floor
    keep = ((dist <= DEFAULT_TOL.intersect_tol * L)
            & (tau_floor < tau) & (tau < 1.0 - tau_floor)
            & ~(curve.circ_dist(u, s[cord]) < margin)
            & ~(curve.circ_dist(u, t[cord]) < margin))
    for i in cord[flat]:
        out[i] = None
    for i, uk, tk in zip(cord[keep].tolist(), u[keep], tau[keep]):
        hits = out[i]
        if hits is None or any(curve.circ_dist(uk, u2) < 4.0 * margin
                               for u2, _ in hits):
            continue
        hits.append((float(uk), float(tk)))
    for hits in out:
        if hits:
            hits.sort(key=lambda h: h[1])
    return out


def _refine_crossings(curve, p, d, u0):
    """Newton on the closest-point system between the curve and the chord line.

    Refines every seed in ``u0`` together (``_newton_hits``), against one
    chord p -> p + d, or against one chord per seed when p and d hold a row
    per seed.  Returns the arrays (u, tau, dist, flat, value, n_hat,
    parallel): the refined parameters, their chord fractions and distances
    to the chord line, and the seeds whose distance minimum went flat
    (|h| < 1e-12), which stop where they are; a non-finite distance marks a
    lost seed.  The last spline call also evaluates gamma' at u: value is
    the offset of gamma(u) from the chord line along n_hat, the unit vector
    of chord x tangent(u).  Its sign is carried by n_hat, so callers can
    keep the orientation continuous along a flow (n_hat reverses whenever
    the chord rotates past the branch tangent, which is not a crossing).
    ``parallel`` marks the seeds where the chord is parallel to the
    tangent, whose value means nothing.
    """
    u, flat = _newton_hits(curve, p, d, u0, 40)
    x, v = curve.spline.eval_multi(u, (0, 1))
    tau, r = _chord_offsets(x, p, d)
    # d x v/|v| in the ufuncs np.cross and np.linalg.norm run, without
    # their Python wrappers: same bits, a fraction of the call cost
    w = v / np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    n = np.stack([d1 * w[:, 2] - d2 * w[:, 1],
                  d2 * w[:, 0] - d0 * w[:, 2],
                  d0 * w[:, 1] - d1 * w[:, 0]], axis=-1)
    nn = np.sqrt(row_dots(n, n))
    parallel = nn < 1e-12
    n_hat = n / np.where(parallel, 1.0, nn)[:, None]
    return (u, tau, np.sqrt(row_dots(r, r)), flat, row_dots(r, n_hat), n_hat,
            parallel)


def _chord_offsets(x, p, d):
    """Chord fraction of the foot of each point of x, and its offset there;
    p and d are one chord or one chord per point."""
    tau = row_dots(x - p, d) / row_dots(d, d)
    return tau, x - (p + tau[:, None] * d)


def _newton_hits(curve, p, d, u0, iters):
    """The Newton iteration of ``_refine_crossings``; returns (u, flat).

    One spline evaluation per iteration on the seeds still moving; a seed
    stops once its step falls below 1e-13 L.  A seed whose iterate equals,
    bit for bit, its iterate two steps back (it jumps back and forth between
    two points, both clipped at +-0.25) would repeat the pair until the
    budget ends, so it stops at once on the point the last iteration would
    reach.  With one chord per seed, each seed reads its own row of p and d.
    """
    L = curve.L
    dd = row_dots(d, d)
    per_seed = d.ndim == 2
    pa, da, dda = p, d, dd
    u = np.array(u0, dtype=float)
    back = np.full(len(u), np.nan)  # each seed's iterate one step back
    flat = np.zeros(len(u), dtype=bool)
    active = np.arange(len(u))
    for it in range(iters):
        if len(active) == 0:
            break
        if per_seed:
            pa, da, dda = p[active], d[active], dd[active]
        x, v, acc = curve.spline.eval_multi(u[active], (0, 1, 2))
        tau = row_dots(x - pa, da) / dda
        r = x - (pa + tau[:, None] * da)
        g = row_dots(r, v)
        # (v.d)^2 through libm pow, which rounds as a scalar ``** 2`` does
        # (a product differs in the last bit)
        h = (row_dots(v, v) - np.float_power(row_dots(v, da), 2.0) / dda
             + row_dots(r, acc))
        is_flat = np.abs(h) < 1e-12
        flat[active[is_flat]] = True
        ok = ~is_flat
        moving = active[ok]
        step = np.clip(g[ok] / h[ok], -0.25, 0.25)
        here = u[moving]
        there = (here - step) % L
        u[moving] = there
        going = ~(np.abs(step) < 1e-13 * L)
        cycled = there == back[moving]
        back[moving] = here
        if cycled.any():
            cycled &= going
            if (iters - it) % 2 == 0:  # an odd number of iterations is left
                u[moving[cycled]] = here[cycled]
            going &= ~cycled
        active = moving[going]
    return u, flat
