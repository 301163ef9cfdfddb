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

from .errors import TangentialContact, VerticalTangent, ZeroProjection
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
    """Broad-phase screen of the curve against a moving chord.

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
        """Segment indices whose distance to the chord is below ``radius``.

        ``points`` holds gamma(s) and gamma(t) when the caller has them.
        """
        if points is None:
            points = self.curve.spline.eval_multi(np.array([s, t], dtype=float),
                                                  (0,))[0]
        p, q = points
        d = q - p
        dd = float(d @ d)
        if dd < 1e-300:
            return np.empty(0, dtype=int)
        # distance from segment midpoints to the chord segment
        u = np.clip(((self.mid - p) @ d) / dd, 0.0, 1.0)
        closest = p + u[:, None] * d
        dist = np.linalg.norm(self.mid - closest, axis=1) - self.half
        return np.nonzero(dist < radius)[0]


def chord_knot_intersections(curve, s, t, screen=None):
    """All interior intersections (u, tau) of the chord with the knot.

    u is the curve parameter of the hit, tau in (0,1) the chord fraction.
    The knot segments within three screen steps of the chord are refined.
    Hits within endpoint_margin of either endpoint parameter, or with tau
    outside (tau_floor, 1 - tau_floor), belong to the endpoint contact zone
    and are excluded.  Raises TangentialContact on a flat (non-transverse)
    minimum at any candidate.
    """
    L = curve.L
    screen = screen or ChordScreen(curve)
    cand = screen.candidates(s, t, 3.0 * screen.step)
    if len(cand) == 0:
        return []
    p = curve.point(s)
    d = curve.point(t) - p
    u, tau, dist, flat = _refine_crossings(
        curve, p, d, screen.params[cand] + 0.5 * screen.step)[:4]
    if flat.any():
        raise TangentialContact("flat distance minimum along the chord")
    margin = DEFAULT_TOL.endpoint_margin * L
    tau_floor = DEFAULT_TOL.tau_floor
    keep = ((dist <= DEFAULT_TOL.intersect_tol * L)
            & (tau_floor < tau) & (tau < 1.0 - tau_floor)
            & ~(curve.circ_dist(u, s) < margin)
            & ~(curve.circ_dist(u, t) < margin))
    hits = []
    for uk, tk in zip(u[keep], tau[keep]):
        if any(curve.circ_dist(uk, u2) < 4.0 * margin for u2, _ in hits):
            continue
        hits.append((float(uk), float(tk)))
    hits.sort(key=lambda h: h[1])
    return hits


def _refine_crossings(curve, p, d, u0):
    """Newton on the closest-point system between the curve and the chord line.

    Refines every seed in ``u0`` together (``_newton_hits``).  Returns the
    arrays (u, tau, dist, flat, value, n_hat, parallel): the refined
    parameters, their chord fractions and distances to the chord line, and
    the seeds whose distance minimum went flat (|h| < 1e-12), which stop
    where they are; a non-finite distance marks a lost seed.  The last
    spline call also evaluates gamma' at u: value is the offset of gamma(u)
    from the chord line along n_hat, the unit vector of chord x tangent(u).
    Its sign is carried by n_hat, so callers can keep the orientation
    continuous along a flow (n_hat reverses whenever the chord rotates past
    the branch tangent, which is not a crossing).  ``parallel`` marks the
    seeds where the chord is parallel to the tangent, whose value means
    nothing.
    """
    u, flat = _newton_hits(curve, p, d, u0, 40)
    x, v = curve.spline.eval_multi(u, (0, 1))
    tau, r = _chord_offsets(x, p, d)
    n = np.cross(d, v / np.linalg.norm(v, axis=-1, keepdims=True))
    nn = np.sqrt(row_dots(n, n))
    parallel = nn < 1e-12
    n_hat = n / np.where(parallel, 1.0, nn)[:, None]
    return (u, tau, np.sqrt(row_dots(r, r)), flat, row_dots(r, n_hat), n_hat,
            parallel)


def _chord_offsets(x, p, d):
    """Chord fraction of the foot of each point of x, and its offset there."""
    tau = row_dots(x - p, d) / float(d @ d)
    return tau, x - (p + tau[:, None] * d)


def _newton_hits(curve, p, d, u0, iters):
    """The Newton iteration of ``_refine_crossings``; returns (u, flat).

    One spline evaluation per iteration on the seeds still moving; a seed
    stops once its step falls below 1e-13 L.  A seed whose iterate equals,
    bit for bit, its iterate two steps back (it jumps back and forth between
    two points, both clipped at +-0.25) would repeat the pair until the
    budget ends, so it stops at once on the point the last iteration would
    reach.
    """
    L = curve.L
    dd = float(d @ d)
    u = np.array(u0, dtype=float)
    back = np.full(len(u), np.nan)  # each seed's iterate one step back
    flat = np.zeros(len(u), dtype=bool)
    active = np.arange(len(u))
    for it in range(iters):
        if len(active) == 0:
            break
        x, v, acc = curve.spline.eval_multi(u[active], (0, 1, 2))
        tau = row_dots(x - p, d) / dd
        r = x - (p + tau[:, None] * d)
        g = row_dots(r, v)
        # (v.d)^2 through libm pow, which rounds as a scalar ``** 2`` does
        # (a product differs in the last bit)
        h = (row_dots(v, v) - np.float_power(row_dots(v, d), 2.0) / dd
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


# ---------------------------------------------------------------------------
# the boundary dS: cords tangent to the knot at one endpoint
# ---------------------------------------------------------------------------

def tangent_boundary_cords(curve, n_grid=256):
    """Finite list of dS cords (tangent at the startpoint), as (s, t) pairs.

    Off-diagonal solutions of gamma(t) - gamma(s) parallel to gamma'(s),
    classified implicitly: tangency at the endpoint is the mirror (t, s).
    The 200 grid cords closest to tangency seed ``_refine_tangency``.
    Returns the start-tangent list; an empty list is valid (convex planar
    curves have none).
    """
    L = curve.L
    near_diag = 4.0 * DEFAULT_TOL.endpoint_margin * L
    axis = np.arange(n_grid) * (L / n_grid)
    P, V = curve.spline.eval_multi(axis, (0, 1))
    chord = P[None, :, :] - P[:, None, :]  # [i, j]: gamma(axis_j) - gamma(axis_i)
    resid = np.cross(chord, (V / np.linalg.norm(V, axis=1, keepdims=True))[:, None])
    r2 = row_dots(resid, resid) / np.maximum(row_dots(chord, chord), 1e-300)
    si, ti = np.nonzero(curve.circ_dist(axis[:, None], axis[None, :]) > near_diag)
    order = np.argsort(r2[si, ti])[:200]
    s, t, ok = _refine_tangency(curve, axis[si[order]], axis[ti[order]])
    out = []
    for s1, t1 in zip(s[ok], t[ok]):
        if curve.circ_dist(s1, t1) < near_diag:
            continue
        if any(curve.circ_dist(s1, a) < 1e-4 * L and curve.circ_dist(t1, b) < 1e-4 * L
               for a, b in out):
            continue
        out.append((float(s1), float(t1)))
    out.sort()
    return out


def _tangency_residual(curve, s, t):
    """r = (gamma(t) - gamma(s)) x gamma'(s) at the cords (s_i, t_i), and its
    Jacobian, from one spline call.

    Returns (r, J) with r of shape (k, 3) and J of shape (k, 3, 2), whose
    columns are the exact derivatives
    dr/ds = (gamma(t) - gamma(s)) x gamma''(s) and dr/dt = gamma'(t) x gamma'(s).
    r vanishes exactly where the chord is tangent at its startpoint.
    """
    k = len(s)
    x, v, a = curve.spline.eval_multi(np.concatenate([s, t]), (0, 1, 2))
    chord = x[k:] - x[:k]
    J = np.stack([np.cross(chord, a[:k]), np.cross(v[k:], v[:k])], axis=2)
    return np.cross(chord, v[:k]), J


def _refine_tangency(curve, s0, t0, iters=60):
    """Gauss-Newton on r(s, t) = 0 (``_tangency_residual``) for every seed at once.

    A seed stops once |r| < 1e-11 L; a step longer than 0.05 L is shortened
    to that length.  Returns (s, t, ok): ok marks the seeds that converged
    within ``iters`` iterations and whose unit chord is tangent at s to 1e-7;
    a seed whose normal matrix J^T J is singular is dropped.
    """
    L = curve.L
    s = np.array(s0, dtype=float)
    t = np.array(t0, dtype=float)
    ok = np.zeros(len(s), dtype=bool)
    active = np.arange(len(s))
    for _ in range(iters):
        if len(active) == 0:
            break
        r, J = _tangency_residual(curve, s[active], t[active])
        done = np.sqrt(row_dots(r, r)) < 1e-11 * L
        ok[active[done]] = True
        # the Gauss-Newton step solves the normal equations J^T J step = J^T r
        Jt = np.swapaxes(J, 1, 2)
        JtJ = Jt @ J
        going = ~done & (np.abs(np.linalg.det(JtJ)) >= 1e-28)
        step = np.linalg.solve(JtJ[going], Jt[going] @ r[going, :, None])[:, :, 0]
        norm = np.sqrt(row_dots(step, step))
        step *= np.minimum(1.0, 0.05 * L / np.maximum(norm, 1e-300))[:, None]
        active = active[going]
        s[active] = (s[active] - step[:, 0]) % L
        t[active] = (t[active] - step[:, 1]) % L
    # confirm the chord really is tangent at the startpoint
    x, v = curve.spline.eval_multi(np.concatenate([s, t]), (0, 1))
    k = len(s)
    chord = x[k:] - x[:k]
    chord /= np.maximum(np.linalg.norm(chord, axis=1, keepdims=True), 1e-300)
    mis = np.cross(chord, v[:k] / np.linalg.norm(v[:k], axis=1, keepdims=True))
    return s, t, ok & (np.sqrt(row_dots(mis, mis)) <= 1e-7)


# ---------------------------------------------------------------------------
# the boundary identity dF^s = d^sS, by a degree count
# ---------------------------------------------------------------------------

def f_start_value(curve, framing, s, t):
    """``framing_event`` at the start point, or None where it is undefined."""
    try:
        return framing_event(curve, framing, s, t, "start")
    except (VerticalTangent, ZeroProjection):
        return None


def f_arc_ends(curve, framing, s0, t0, radius):
    """Number of F^s arc ends inside the circle of ``radius`` around (s0, t0).

    Counts the sign changes of F-start between neighbouring points of 360
    points on the circle, where both points lie on the +nu side.  At a d^sS
    cord the chord is tangent at s, so the projected chord has an isolated
    zero there and turns once around the normal plane along a small circle:
    it points along +nu exactly once, and the count is 1.  An F^s arc that
    only passes through the disc crosses the circle twice, so an odd count
    means an arc ends inside.
    """
    L = curve.L
    angles = np.arange(360) * (2.0 * math.pi / 360)
    vals = []
    for a in angles:
        ev = f_start_value(curve, framing, (s0 + radius * math.cos(a)) % L,
                           (t0 + radius * math.sin(a)) % L)
        vals.append(ev.value if ev is not None and ev.positive else None)
    return sum(1 for a, b in zip(vals, vals[1:] + vals[:1])
               if a is not None and b is not None and a * b < 0.0)
