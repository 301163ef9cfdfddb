"""The boundary of S on the model: cords tangent to the knot, F^s arc ends.

The flow needs only the B, F and S event functions of ``cordalg.incidence``.
The boundary identity dF^s = d^sS of the complex of linear cords is a
property of that model, which the tests check with the helpers here: the
tangent cords (the boundary dS) found by batched Gauss-Newton, and a degree
count of F^s arc ends around a cord.
"""

import math

import numpy as np

from cordalg.errors import VerticalTangent, ZeroProjection
from cordalg.incidence import framing_event
from cordalg.knots import row_dots
from cordalg.tolerances import DEFAULT_TOL

# radius of the F^s arc-end circle around a tangency cord, as a fraction of L
F_ARC_RADIUS = 10 * 1e-4


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


def tangency_residual(curve, s, t):
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
    """Gauss-Newton on r(s, t) = 0 (``tangency_residual``) for every seed at once.

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
        r, J = tangency_residual(curve, s[active], t[active])
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
