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
from .knots import VERTICAL_FLOOR, row_dots
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class EventFunctionValue:
    kind: str            # F-start | F-end
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
    """(value, alpha) of the chord v at the endpoint ``base``; see cord_events."""
    tx, ty, tz = tangent
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = tx / tn, ty / tn, tz / tn
    # nu: the vertical projected onto the normal plane, then turned by the
    # framing's angle there, as Framing.nu does
    nx, ny, nz = -tz * tx, -tz * ty, 1.0 - tz * tz
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    if nn < VERTICAL_FLOOR:
        raise ZeroProjection("tangent parallel to the vertical")
    nx, ny, nz = nx / nn, ny / nn, nz / nn
    angle = framing.rotation
    if framing.winding:
        angle -= 2.0 * math.pi * framing.winding * base / framing.curve.L
    if angle:
        ca, sa = math.cos(angle), math.sin(angle)
        wx = ty * nz - tz * ny
        wy = tz * nx - tx * nz
        wz = tx * ny - ty * nx
        nx, ny, nz = ca * nx + sa * wx, ca * ny + sa * wy, ca * nz + sa * wz
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
    return EventFunctionValue(kind=f"F-{endpoint}", value=value,
                              positive=alpha > 0.0)


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

    def candidates(self, s, t, radius):
        """Segment indices whose distance to the chord is below ``radius``."""
        p = self.curve.point(s)
        q = self.curve.point(t)
        d = q - p
        dd = float(d @ d)
        if dd < 1e-300:
            return np.empty(0, dtype=int)
        # distance from segment midpoints to the chord segment
        u = np.clip(((self.mid - p) @ d) / dd, 0.0, 1.0)
        closest = p + u[:, None] * d
        dist = np.linalg.norm(self.mid - closest, axis=1) - self.half
        return np.nonzero(dist < radius)[0]


def chord_knot_intersections(curve, s, t, tol=DEFAULT_TOL, screen=None,
                             radius=None):
    """All interior intersections (u, tau) of the chord with the knot.

    u is the curve parameter of the hit, tau in (0,1) the chord fraction.
    Hits within endpoint_margin of either endpoint parameter, or with tau
    outside (tau_floor, 1 - tau_floor), belong to the endpoint contact zone
    and are excluded.  Raises TangentialContact on a flat (non-transverse)
    minimum at any candidate.
    """
    L = curve.L
    screen = screen or ChordScreen(curve)
    radius = radius if radius is not None else 3.0 * screen.step
    cand = screen.candidates(s, t, radius)
    if len(cand) == 0:
        return []
    p = curve.point(s)
    d = curve.point(t) - p
    u, tau, dist, flat = _refine_hits(curve, p, d,
                                      screen.params[cand] + 0.5 * screen.step)
    if flat.any():
        raise TangentialContact("flat distance minimum along the chord")
    margin = tol.endpoint_margin * L
    keep = ((dist <= tol.intersect_tol * L)
            & (tol.tau_floor < tau) & (tau < 1.0 - tol.tau_floor)
            & ~(curve.circ_dist(u, s) < margin)
            & ~(curve.circ_dist(u, t) < margin))
    hits = []
    for uk, tk in zip(u[keep], tau[keep]):
        if any(curve.circ_dist(uk, u2) < 4.0 * margin for u2, _ in hits):
            continue
        hits.append((float(uk), float(tk)))
    hits.sort(key=lambda h: h[1])
    return hits


def _refine_hits(curve, p, d, u0, iters=40):
    """Newton on the closest-point system between the curve and the chord line.

    Refines every seed in ``u0`` together, one spline evaluation per
    iteration on the seeds still moving; a seed stops once its step falls
    below 1e-13 L.  Returns the arrays (u, tau, dist, flat): the refined
    parameters, their chord fractions and distances to the chord line, and
    the seeds whose distance minimum went flat (|h| < 1e-12), which stop
    where they are.  A non-finite distance marks a lost seed.
    """
    L = curve.L
    dd = float(d @ d)
    u = np.array(u0, dtype=float)
    flat = np.zeros(len(u), dtype=bool)
    active = np.arange(len(u))
    for _ in range(iters):
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
        u[moving] = (u[moving] - step) % L
        active = moving[~(np.abs(step) < 1e-13 * L)]
    x = curve.spline.eval_multi(u, (0,))[0]
    tau = row_dots(x - p, d) / dd
    r = x - (p + tau[:, None] * d)
    return u, tau, np.sqrt(row_dots(r, r)), flat


def _refine_hit(curve, p, d, u0, tol, iters=40):
    """One seed of `_refine_hits`: (u, tau, dist), or None for a lost seed.

    Raises TangentialContact on a flat distance minimum.
    """
    u, tau, dist, flat = _refine_hits(curve, p, d, [u0], iters)
    if flat[0]:
        raise TangentialContact("flat distance minimum along the chord")
    if not np.isfinite(dist[0]):
        return None
    return u[0], float(tau[0]), float(dist[0])


def signed_crossing_value(curve, s, t, u):
    """Signed offset of the knot at u relative to the chord, plus its normal.

    The sign lives in the direction chord x tangent(u), returned so callers
    can keep the orientation continuous along a flow (the raw direction
    reverses whenever the chord rotates past the branch tangent, which is
    not a crossing).
    """
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


# ---------------------------------------------------------------------------
# the boundary dS: cords tangent to the knot at one endpoint
# ---------------------------------------------------------------------------

def tangent_boundary_cords(curve, tol=DEFAULT_TOL, n_grid=256):
    """Finite list of dS cords (tangent at the startpoint), as (s, t) pairs.

    Off-diagonal solutions of gamma(t) - gamma(s) parallel to gamma'(s),
    classified implicitly: tangency at the endpoint is the mirror (t, s).
    Returns the start-tangent list; an empty list is valid (convex planar
    curves have none).
    """
    L = curve.L
    axis = np.arange(n_grid) * (L / n_grid)
    S, T = np.meshgrid(axis, axis, indexing="ij")
    s_flat, t_flat = S.ravel(), T.ravel()
    keep = curve.circ_dist(s_flat, t_flat) > 4.0 * tol.endpoint_margin * L
    s_flat, t_flat = s_flat[keep], t_flat[keep]
    chord = curve.point(t_flat) - curve.point(s_flat)
    tang = curve.unit_tangent(s_flat)
    resid = np.cross(chord, tang)
    r2 = np.einsum("ij,ij->i", resid, resid) / np.maximum(
        np.einsum("ij,ij->i", chord, chord), 1e-300)
    order = np.argsort(r2)
    seeds = np.stack([s_flat[order[:200]], t_flat[order[:200]]], axis=1)
    out = []
    for s0, t0 in seeds:
        ref = _refine_tangency(curve, s0, t0, tol)
        if ref is None:
            continue
        s1, t1 = ref
        if curve.circ_dist(s1, t1) < 4.0 * tol.endpoint_margin * L:
            continue
        if any(curve.circ_dist(s1, a) < 1e-4 * L and curve.circ_dist(t1, b) < 1e-4 * L
               for a, b in out):
            continue
        out.append((float(s1), float(t1)))
    out.sort()
    return out


def _refine_tangency(curve, s, t, tol, iters=60):
    """Newton on F(s,t) = components of chord along the normal plane at s."""
    L = curve.L
    for _ in range(iters):
        p, q = curve.point(s), curve.point(t)
        chord = q - p
        v = curve.unit_tangent(s)
        acc = curve.second(s)
        w1 = acc / max(np.linalg.norm(acc), 1e-12)
        w1 = w1 - v * float(w1 @ v)
        n1 = np.linalg.norm(w1)
        if n1 < 1e-9:
            return None
        w1 /= n1
        w2 = np.cross(v, w1)
        f = np.array([chord @ w1, chord @ w2])
        if np.linalg.norm(f) < 1e-11 * L:
            break
        h = 1e-6 * L
        J = np.empty((2, 2))
        for col, (ds, dt) in enumerate(((h, 0.0), (0.0, h))):
            p2, q2 = curve.point(s + ds), curve.point(t + dt)
            v2 = curve.unit_tangent(s + ds)
            a2 = curve.second(s + ds)
            u1 = a2 / max(np.linalg.norm(a2), 1e-12)
            u1 = u1 - v2 * float(u1 @ v2)
            u1 /= max(np.linalg.norm(u1), 1e-12)
            u2 = np.cross(v2, u1)
            chord2 = q2 - p2
            f2 = np.array([chord2 @ u1, chord2 @ u2])
            J[:, col] = (f2 - f) / h
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-14:
            return None
        step = np.linalg.solve(J, f)
        if np.linalg.norm(step) > 0.05 * L:
            step *= 0.05 * L / np.linalg.norm(step)
        s = (s - step[0]) % L
        t = (t - step[1]) % L
    else:
        return None
    # confirm the chord really is tangent at the startpoint
    chord = curve.point(t) - curve.point(s)
    v = curve.unit_tangent(s)
    mis = np.linalg.norm(np.cross(chord / max(np.linalg.norm(chord), 1e-300), v))
    if mis > 1e-7:
        return None
    return s, t


# ---------------------------------------------------------------------------
# F^s polyline continuation (Appendix-style boundary test and `sets` export)
# ---------------------------------------------------------------------------

def f_start_value(curve, framing, s, t):
    try:
        ev = framing_event(curve, framing, s, t, "start")
    except ZeroProjection:
        return None
    return ev


def trace_f_start_arc(curve, framing, s0, t0, direction, tol=DEFAULT_TOL,
                      step=None, max_steps=4000):
    """Follow the F^s zero curve from (s0, t0) until the positivity gate alpha
    drops to zero (the dS boundary) or the arc leaves the patch budget.

    Returns the polyline of (s, t) points visited.
    """
    L = curve.L
    step = step or 2e-3 * L
    pts = [(s0, t0)]
    s, t = s0, t0
    tang_prev = np.asarray(direction, float)
    tang_prev /= np.linalg.norm(tang_prev)
    for _ in range(max_steps):
        g = _f_gradient(curve, framing, s, t, tol)
        if g is None:
            break
        tang = np.array([-g[1], g[0]])
        norm = np.linalg.norm(tang)
        if norm < 1e-14:
            break
        tang /= norm
        if tang @ tang_prev < 0:
            tang = -tang
        s_pred, t_pred = (s + step * tang[0]) % L, (t + step * tang[1]) % L
        corr = _f_newton(curve, framing, s_pred, t_pred, tol)
        if corr is None:
            break
        s, t = corr
        ev = f_start_value(curve, framing, s, t)
        if ev is None or not ev.positive:
            break
        pts.append((s, t))
        tang_prev = tang
    return pts


def _f_gradient(curve, framing, s, t, tol, h=None):
    h = h or 1e-6 * curve.L
    vals = []
    for ds, dt in ((h, 0), (-h, 0), (0, h), (0, -h)):
        ev = f_start_value(curve, framing, s + ds, t + dt)
        if ev is None:
            return None
        vals.append(ev.value)
    return np.array([(vals[0] - vals[1]) / (2 * h), (vals[2] - vals[3]) / (2 * h)])


def f_arc_terminates_at(curve, framing, s0, t0, tol=DEFAULT_TOL, radius=None):
    """Check the boundary identity at one tangency cord (s0, t0).

    Looks for the gated F^s zero set on a small circle around the cord and
    follows the arc inward; returns the closest approach of any arc endpoint
    to the cord (the identity dF^s = d^sS predicts it ends there).
    """
    L = curve.L
    radius = radius or 0.01 * L
    angles = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    ring = [((s0 + radius * math.cos(a)) % L, (t0 + radius * math.sin(a)) % L)
            for a in angles]
    vals = []
    for (s, t) in ring:
        ev = f_start_value(curve, framing, s, t)
        vals.append(ev.value if (ev is not None and ev.positive) else None)
    best = math.inf
    for i in range(len(ring)):
        j = (i + 1) % len(ring)
        if vals[i] is None or vals[j] is None or vals[i] * vals[j] >= 0:
            continue
        frac = abs(vals[i]) / (abs(vals[i]) + abs(vals[j]))
        a = angles[i] + frac * (2.0 * math.pi / len(ring))
        seed = _f_newton(curve, framing, (s0 + radius * math.cos(a)) % L,
                         (t0 + radius * math.sin(a)) % L, tol)
        if seed is None:
            continue
        inward = np.array([s0 - seed[0], t0 - seed[1]])
        for direction in (inward, -inward):
            arc = trace_f_start_arc(curve, framing, seed[0], seed[1], direction,
                                    tol, step=radius / 12.0,
                                    max_steps=int(20 * radius / (radius / 12.0)))
            end = arc[-1]
            d = math.hypot(curve.circ_dist(end[0], s0), curve.circ_dist(end[1], t0))
            best = min(best, d)
    return best


def _f_newton(curve, framing, s, t, tol, iters=20):
    L = curve.L
    for _ in range(iters):
        ev = f_start_value(curve, framing, s, t)
        if ev is None:
            return None
        if abs(ev.value) < 1e-12:
            return s, t
        g = _f_gradient(curve, framing, s, t, tol)
        if g is None:
            return None
        g2 = float(g @ g)
        if g2 < 1e-18:
            return None
        s = (s - ev.value * g[0] / g2) % L
        t = (t - ev.value * g[1] / g2) % L
    ev = f_start_value(curve, framing, s, t)
    if ev is None or abs(ev.value) > 1e-9:
        return None
    return s, t
