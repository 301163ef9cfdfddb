"""Negative gradient flow of the cord energy with event detection.

Index-1 critical cords are pushed off along their unstable manifolds and
integrated down to index-0 cords or to the diagonal, collecting framing
crossings (mu factors), basepoint crossings (lambda factors) and interior
knot crossings (splits) on the way.  The fold of a finished trace is the
algebra value D-hat; D(k) = D-hat(k+) - D-hat(k-).

The flow is stiff in the near-Bott inter-strand valleys of braid layouts, so
it is integrated by the linearly implicit Rosenbrock-Euler step
y <- y + h (I + hH)^-1 f with f = -grad E and H the Hessian of E at y (Hairer
and Wanner, Solving ODEs II, ch. IV.7).  The step has no stability limit;
its length is set by a displacement cap (2e-3 L, one chord-screen step while
a knot branch is near the cord), it is kept where I + hH stays positive
definite, and it is halved until the energy decreases.  Events are located
on the step's own interpolant, whose endpoint is the accepted step.

The paper fixes the sign rules only through its figures; they are pinned
here by the worked unknot and trefoil.  An event with crossing direction
sigma (the sign of the event function's time derivative) contributes
x^sigma on the left at the start point and x^-sigma on the right at the
end point, x = mu for framing and lambda for basepoint crossings
(``_EVENT_RULES``).  A split carries the opposite of its raw orientation
sign, and its middle factor is mu^-1 exactly when the forward child heads
into the +nu half-plane at the crossing point, else 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import cord_terms, energy, make_cord
from .errors import (
    GenericityViolation,
    MaxSplits,
    StepCollapse,
    TangentialContact,
    ZeroProjection,
)
from .incidence import (
    ChordScreen,
    _refine_hits,
    cord_events,
    framing_event,
    signed_crossing_value,
)
from .ring import AlgebraElement
from .tolerances import DEFAULT_TOL


# side of the trace, exponent sign against sigma, and (lambda, mu) unit of
# each crossing kind
_EVENT_RULES = {
    "F-start": ("left", 1, (0, 1)),
    "F-end": ("right", -1, (0, 1)),
    "B-start": ("left", 1, (1, 0)),
    "B-end": ("right", -1, (1, 0)),
}


@dataclass
class TraceEvent:
    time: float
    kind: str          # F-start | F-end | B-start | B-end | split
    sigma: int
    exponent: int      # applied lambda/mu exponent (0 for splits)
    state: tuple       # (s, t) at the event
    aux: dict = field(default_factory=dict)


@dataclass
class FlowTrace:
    initial: tuple
    events: list
    terminal: str            # index-0 label | "contractible"
    left: tuple              # accumulated (lambda, mu) exponents, left side
    right: tuple
    splits: list             # list of dicts with sign, monomials, children
    energy_drop: tuple       # (E_initial, E_terminal)
    terminal_state: tuple = (0.0, 0.0)
    flagged: list = field(default_factory=list)
    path: list = field(default_factory=list)  # (tau, s, t) at accepted steps


# ---------------------------------------------------------------------------
# flow context: everything precomputed once per (curve, framing)
# ---------------------------------------------------------------------------

class FlowContext:
    def __init__(self, curve, framing, critical_points, tol=DEFAULT_TOL):
        self.curve = curve
        self.framing = framing
        self.tol = tol
        self.screen = ChordScreen(curve, n=min(len(curve.samples), 1024))
        self.minima = [p for p in critical_points if p.index == 0]
        self.saddles = [p for p in critical_points if p.index == 1]
        self.basins = [self._basin_radius(p) for p in self.minima]
        self.split_budget = tol.max_splits

    def _basin_radius(self, p):
        """Certified ball around an index-0 point: convex and event-free."""
        L = self.curve.L
        r = self.tol.basin_frac * L
        center = np.array([p.s, p.t])
        for _ in range(14):
            if self._ball_certified(center, r):
                return r
            r *= 0.5
        raise GenericityViolation(
            f"no event-free convex ball around index-0 point {p.label}",
            reason="knot",
        )

    def _ball_certified(self, center, r):
        angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        ring = center[None, :] + r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = np.vstack([center, ring])
        terms = cord_terms(self.curve, pts[:, 0], pts[:, 1])
        eig = np.linalg.eigvalsh(terms.hess)
        if np.any(eig <= 0):
            return False
        try:
            rows = _events_each(self, pts, terms)
        except (ZeroProjection, TangentialContact):
            return False
        for n in ("F-start", "F-end", "B-start", "B-end"):
            arr = np.array([row[n] for row in rows])
            if np.any(np.abs(arr) < 1e-6) or (np.min(arr) < 0 < np.max(arr)):
                return False
        for s, t in pts[::4]:
            if self.screen.candidates(s, t, 0.4 * self.screen.step).size:
                hits = _interior_hits(self, s, t)
                if hits:
                    return False
        return True


def _events(ctx, y, pts, tans):
    """The event values the flow brackets at the cord y.

    ``pts`` and ``tans`` hold gamma and gamma' at both ends of y (see
    ``cord_events``).  An F value off the +nu side is replaced by its sign,
    so it cannot bracket a crossing there.
    """
    ev = cord_events(ctx.framing, y[0], y[1], pts, tans)
    for kind in ("F-start", "F-end"):
        val, alpha = ev[kind]
        ev[kind] = val if alpha > 0.0 else math.copysign(1.0, val)
    return ev


def _events_each(ctx, ys, terms):
    """``_events`` at every cord of ys, read off their ``cord_terms``."""
    k = len(ys)
    return [_events(ctx, ys[i], terms.points[i::k], terms.tangents[i::k])
            for i in range(k)]


def _state(ctx, y):
    """f = -grad E, E, the Hessian entries (h11, h12, h22) and the
    ``cord_terms`` at the cord y, from one spline call."""
    terms = cord_terms(ctx.curve, y[:1], y[1:])
    h11, h12, _h21, h22 = terms.hess.ravel().tolist()
    return -terms.grad[0], float(terms.E[0]), (h11, h12, h22), terms


def _interior_hits(ctx, s, t):
    from .incidence import chord_knot_intersections
    return chord_knot_intersections(ctx.curve, s, t, ctx.tol, screen=ctx.screen)


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------

class _Step:
    """One linearly implicit (Rosenbrock-Euler) step from y0 with length h.

    The step is y0 + h (I + h H0)^-1 f0, with f0 = -grad E and H0 the Hessian
    of E at y0.  Taken with h replaced by theta*h it is also the step's
    interpolant y(theta); at theta = 1 the interpolant is the step itself, so
    every in-step refinement brackets against the accepted endpoint and
    needs no further spline evaluations.
    """

    __slots__ = ("y0", "h", "f0", "H0", "L")

    def __init__(self, y0, h, f0, H0, L):
        self.y0, self.h, self.f0, self.H0, self.L = y0, h, f0, H0, L

    def at(self, theta):
        """y(theta), wrapped onto the torus."""
        a = theta * self.h
        h11, h12, h22 = self.H0
        m11, m12, m22 = 1.0 + a * h11, a * h12, 1.0 + a * h22
        det = m11 * m22 - m12 * m12
        f0, f1 = self.f0
        L = self.L
        return np.array([
            (self.y0[0] + a * (m22 * f0 - m12 * f1) / det) % L,
            (self.y0[1] + a * (m11 * f1 - m12 * f0) / det) % L,
        ])


class _Tracer:
    """One trajectory; owns the event bookkeeping and split recursion."""

    def __init__(self, ctx, origin_saddle=None):
        self.ctx = ctx
        self.origin = origin_saddle

    def run(self, s, t, depth=0):
        ctx = self.ctx
        tol = ctx.tol
        curve = ctx.curve
        L = curve.L
        y = np.array([float(s) % L, float(t) % L])
        f, e_prev, H, terms = _state(ctx, y)
        trace = FlowTrace(
            initial=(y[0], y[1]), events=[], terminal="", left=(0, 0),
            right=(0, 0), splits=[], energy_drop=(e_prev, 0.0),
        )

        trace.path.append((0.0, float(y[0]), float(y[1])))
        term = self._terminal_check(y)
        if term:
            trace.terminal = term
            trace.terminal_state = (float(y[0]), float(y[1]))
            trace.energy_drop = (e_prev, e_prev)
            return trace

        ev_prev = _events(ctx, y, terms.points, terms.tangents)
        s_branches = self._s_branches(y)
        tau = 0.0
        h_min = 1e-15 * L
        disp_cap = 2e-3 * L

        for _ in range(tol.max_steps):
            # the near-Bott valleys make the flow stiff; the linearly
            # implicit step has no stability limit, so the step is capped by
            # displacement only: 2e-3 L per step, one screen step while a knot
            # branch is near the cord (the S-branch matching assumes the chord
            # moves less than that per step).  Near the origin saddle H has a
            # negative eigenvalue; keeping h below 0.5/|lambda_min| keeps
            # I + hH positive definite.
            speed = math.hypot(f[0], f[1])
            if speed < 1e-14:
                raise GenericityViolation("flow stalled away from any basin",
                                          reason="knot")
            cap = ctx.screen.step if s_branches else disp_cap
            h = cap / speed
            h11, h12, h22 = H
            lam_min = 0.5 * (h11 + h22) - math.hypot(0.5 * (h11 - h22), h12)
            if lam_min < 0.0:
                h = min(h, 0.5 / -lam_min)
            while True:
                step = _Step(y, h, f, H, L)
                y_new = step.at(1.0)
                f_new, e_new, H_new, terms = _state(ctx, y_new)
                if e_new < e_prev:
                    break
                h *= 0.5
                if h < h_min:
                    raise StepCollapse("step collapsed during flow")
            ev_new = _events(ctx, y_new, terms.points, terms.tangents)
            crossings = self._bracket_events(step, ev_prev, ev_new)
            term, t_term = self._terminal_in_step(step, y_new)
            if term:
                crossings = [c for c in crossings if c[0] < t_term]
            s_crossings, s_branches_new = self._bracket_s(
                step, s_branches, y_new, cut=t_term if term else None)
            all_events = sorted(crossings + s_crossings, key=lambda c: c[0])
            self._apply_events(trace, tau, step, all_events, depth)

            tau += h
            e_prev = e_new
            ev_prev = ev_new
            s_branches = s_branches_new
            f, H = f_new, H_new
            trace.path.append((tau, float(y_new[0]), float(y_new[1])))
            if term:
                trace.terminal = term
                trace.terminal_state = (float(y_new[0]), float(y_new[1]))
                trace.energy_drop = (trace.energy_drop[0], e_new)
                return trace
            self._saddle_guard(y, y_new)
            y = y_new
        raise StepCollapse("flow exceeded the step budget")

    # -- terminal conditions ------------------------------------------------

    def _terminal_check(self, y):
        ctx = self.ctx
        L = ctx.curve.L
        if ctx.curve.circ_dist(y[0], y[1]) < ctx.tol.diag_tube * L:
            return "contractible"
        for p, r in zip(ctx.minima, ctx.basins):
            if math.hypot(*(_torus_delta(y, (p.s, p.t), L))) < r:
                return p.label
        return None

    def _terminal_in_step(self, step, y1):
        """Terminal label and fractional entry time, via bisection."""
        term1 = self._terminal_check(y1)
        if not term1:
            return None, None
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if self._terminal_check(step.at(mid)):
                hi = mid
            else:
                lo = mid
        return term1, hi

    def _saddle_guard(self, y0, y1):
        """Raise if the segment y0 -> y1 enters a foreign saddle's ball."""
        ctx = self.ctx
        L = ctx.curve.L
        r = ctx.tol.trajectory_tol * L
        v0, v1 = _torus_delta(y1, y0, L)
        vv = v0 * v0 + v1 * v1
        for p in ctx.saddles:
            if self.origin is not None and p is self.origin:
                continue
            d0, d1 = _torus_delta(y0, (p.s, p.t), L)
            # closest point of the segment to the saddle
            a = min(max(-(d0 * v0 + d1 * v1) / vv, 0.0), 1.0) if vv > 0.0 else 0.0
            if math.hypot(d0 + a * v0, d1 + a * v1) < r:
                raise GenericityViolation(
                    f"trajectory ran into index-1 point {p.label}", reason="knot")

    # -- event bracketing -----------------------------------------------------

    def _bracket_events(self, step, ev0, ev1):
        out = []
        L = self.ctx.curve.L
        for kind in ("B-start", "B-end", "F-start", "F-end"):
            a, b = ev0[kind], ev1[kind]
            if kind.startswith("B") and (abs(a) > L / 4 or abs(b) > L / 4):
                continue  # wrap side of the circle, not a basepoint crossing
            if a == 0.0:
                raise GenericityViolation(f"trace starts on {kind} set",
                                          reason="basepoint" if kind[0] == "B" else "framing")
            if a * b < 0.0:
                frac = self._bisect(step, kind, a)
                if frac is not None:
                    out.append((frac, kind, int(math.copysign(1, b - a)), None))
        return out

    def _bisect(self, step, kind, val0, iters=60):
        """Fractional time of an event bracketed by the step's endpoints."""
        ctx = self.ctx
        L = ctx.curve.L
        lo, hi = 0.0, 1.0
        sign0 = math.copysign(1.0, val0)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            ym = step.at(mid)
            v = _events(ctx, ym, *ctx.curve.spline.eval_multi(ym, (0, 1)))[kind]
            if math.copysign(1.0, v) == sign0:
                lo = mid
            else:
                hi = mid
            if (hi - lo) * step.h < ctx.tol.event_tol * L:
                break
        frac = 0.5 * (lo + hi)
        ym = step.at(frac)
        if kind.startswith("F"):
            endpoint = "start" if kind == "F-start" else "end"
            ev = framing_event(ctx.curve, ctx.framing, ym[0], ym[1], endpoint)
            if not ev.positive:
                return None  # crossing on the -nu side is not an event
        return frac

    # -- S events ---------------------------------------------------------------

    def _s_branches(self, y):
        """Signed crossing values of nearby knot branches as (u, value, tau)."""
        ctx = self.ctx
        curve = ctx.curve
        excl = max(ctx.tol.endpoint_margin * curve.L, 3.0 * ctx.screen.step)
        # a chord shorter than the endpoint exclusion zones cannot carry a
        # valid interior hit; skip the screen entirely (the long family
        # sweeps of short cords dominate the step count)
        chord = curve.point(y[1]) - curve.point(y[0])
        if float(chord @ chord) < (1.8 * excl) ** 2:
            return []
        cand = ctx.screen.candidates(y[0], y[1], 4.0 * ctx.screen.step)
        if len(cand) == 0:
            return []
        groups = _group_contiguous(cand, len(ctx.screen.params))
        seeds = ctx.screen.params[[g[len(g) // 2] for g in groups]]
        return [res for res in self._branch_values(y, seeds, excl)
                if res is not None]

    def _branch_values(self, y, seeds, excl):
        """(u, value, tau, n_hat, dist) of the branch near each seed, or None.

        One batched Newton refinement serves every seed; a flat distance
        minimum gives None for its own seed only (flat but distant minima
        are harmless).
        """
        ctx = self.ctx
        curve = ctx.curve
        seeds = np.asarray(seeds, dtype=float)
        out = [None] * len(seeds)
        live = np.nonzero(~((curve.circ_dist(seeds, y[0]) < excl)
                            | (curve.circ_dist(seeds, y[1]) < excl)))[0]
        if len(live) == 0:
            return out
        p = curve.point(y[0])
        d = curve.point(y[1]) - p
        u, _tau, dist, flat = _refine_hits(curve, p, d, seeds[live])
        for k, i in enumerate(live):
            if flat[k] or not np.isfinite(dist[k]) or dist[k] > 6.0 * ctx.screen.step:
                continue
            if (curve.circ_dist(u[k], y[0]) < excl
                    or curve.circ_dist(u[k], y[1]) < excl):
                continue
            try:
                val, tau_frac, n_hat = signed_crossing_value(curve, y[0], y[1], u[k])
            except TangentialContact:
                if dist[k] < 4.0 * ctx.tol.intersect_tol * curve.L:
                    raise GenericityViolation("tangential chord/knot contact",
                                              reason="knot")
                continue
            out[i] = (u[k], val, tau_frac, n_hat, float(dist[k]))
        return out

    def _bracket_s(self, step, branches0, y1, cut=None):
        branches1 = self._s_branches(y1)
        window = 8.0 * self.ctx.screen.step
        out = []
        for (u1, v1, tau1, n1, d1) in branches1:
            match = None
            for (u0, v0, tau0, n0, d0) in branches0:
                if self.ctx.curve.circ_dist(u0, u1) < window:
                    match = (u0, v0, n0)
                    break
            if match is None:
                continue
            u0, v0, n0 = match
            if float(n1 @ n0) < 0.0:
                v1 = -v1  # keep the branch's sign orientation continuous
            if v0 * v1 >= 0.0:
                continue
            res = self._bisect_s(step, u0, math.copysign(1.0, v0), n0)
            if res is None:
                continue
            frac, u_hit, tau_hit, dist = res
            if dist > 10.0 * self.ctx.tol.intersect_tol * self.ctx.curve.L:
                continue  # the branch slips around the chord, no crossing
            tau_floor = self.ctx.tol.tau_floor
            if tau_hit < -tau_floor or tau_hit > 1.0 + tau_floor:
                continue  # knot crosses the chord's extension, not the cord
            if cut is not None and frac >= cut:
                continue
            out.append((frac, "split", 0, (u_hit, tau_hit, dist)))
        return out, branches1

    def _bisect_s(self, step, u_seed, sign0, n_ref, iters=60):
        ctx = self.ctx
        L = ctx.curve.L
        excl = max(ctx.tol.endpoint_margin * L, 3.0 * ctx.screen.step)
        lo, hi = 0.0, 1.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            res = self._branch_values(step.at(mid), [u_seed], excl)[0]
            if res is None:
                return None
            val = res[1] if float(res[3] @ n_ref) >= 0.0 else -res[1]
            if math.copysign(1.0, val) == sign0:
                lo = mid
            else:
                hi = mid
            if (hi - lo) * step.h < ctx.tol.event_tol * L:
                break
        frac = 0.5 * (lo + hi)
        res = self._branch_values(step.at(frac), [u_seed], excl)[0]
        if res is None:
            return None
        return frac, res[0], res[2], res[4]

    # -- applying events ---------------------------------------------------------

    def _apply_events(self, trace, tau, step, events, depth):
        ctx = self.ctx
        L = ctx.curve.L
        h = step.h
        for i, (frac, kind, sigma, aux) in enumerate(events):
            if i + 1 < len(events):
                nfrac, nkind = events[i + 1][0], events[i + 1][1]
                if (nfrac - frac) * h < ctx.tol.event_tol * L:
                    pair = {kind, nkind}
                    if pair != {"F-start", "F-end"}:
                        raise GenericityViolation(
                            f"simultaneous events {kind}/{nkind}", reason="knot")
            ym = step.at(frac)
            if kind == "split":
                self._do_split(trace, tau + frac * h, ym, depth, aux)
                continue
            side, kappa, (la, mu) = _EVENT_RULES[kind]
            expo = kappa * sigma
            if side == "left":
                trace.left = (trace.left[0] + la * expo, trace.left[1] + mu * expo)
            else:
                trace.right = (trace.right[0] + la * expo, trace.right[1] + mu * expo)
            trace.events.append(TraceEvent(
                time=tau + frac * h, kind=kind, sigma=sigma, exponent=expo,
                state=(float(ym[0]), float(ym[1])),
            ))

    def _do_split(self, trace, at_time, y, depth, aux):
        ctx = self.ctx
        if ctx.split_budget <= 0:
            raise MaxSplits("split budget exhausted")
        ctx.split_budget -= 1
        if depth > 8:
            raise MaxSplits("split recursion too deep")
        curve = ctx.curve
        tol = ctx.tol
        u, tau_frac, _dist = aux
        if not (tol.tau_floor < tau_frac < 1.0 - tol.tau_floor) or \
                curve.circ_dist(u, y[0]) < tol.endpoint_margin * curve.L or \
                curve.circ_dist(u, y[1]) < tol.endpoint_margin * curve.L:
            raise GenericityViolation("crossing inside the endpoint zone",
                                      reason="knot")
        others = [hit for hit in _interior_hits(ctx, y[0], y[1])
                  if curve.circ_dist(hit[0], u) > 4.0 * tol.endpoint_margin * curve.L]
        if others:
            raise GenericityViolation("cord met the knot twice (S2)",
                                      reason="knot")
        parent_len = make_cord(curve, y[0], y[1]).length
        c1 = (y[0], u)
        c2 = (u, y[1])
        len1 = make_cord(curve, *c1).length
        len2 = make_cord(curve, *c2).length
        floor = ctx.tol.min_split_decrease * curve.L
        if len1 > parent_len - floor or len2 > parent_len - floor:
            raise GenericityViolation("split child not shorter than parent",
                                      reason="knot")
        sign = -self._split_sign(y, u, tau_frac)
        birth_mu = -1 if self._split_framing_side(y, u, tau_frac) > 0 else 0
        child1 = _Tracer(ctx).run(*c1, depth=depth + 1)
        child2 = _Tracer(ctx).run(*c2, depth=depth + 1)
        trace.splits.append({
            "time": at_time,
            "sign": sign,
            "birth_mu": birth_mu,
            "left": trace.left,
            "right": trace.right,
            "children": (child1, child2),
            "hit": (float(u), float(tau_frac)),
            "lengths": (parent_len, len1, len2),
        })
        trace.events.append(TraceEvent(
            time=at_time, kind="split", sigma=sign, exponent=0,
            state=(float(y[0]), float(y[1])),
            aux={"u": float(u), "tau": float(tau_frac)},
        ))

    def _split_framing_side(self, y, u, tau_frac):
        """The forward child's heading against nu(u), q.

        q flips under cord reversal, so exactly one orientation of a crossing
        carries the birth meridian.  A heading or a knot crossing velocity
        orthogonal to nu(u) is degenerate.
        """
        curve = self.ctx.curve
        d_hat, v = _chord_motion(curve, y, tau_frac)
        nu = self.ctx.framing.nu(u)
        tang = curve.unit_tangent(u)
        pi_d = d_hat - tang * float(d_hat @ tang)
        q = float(pi_d @ nu)
        if q == 0.0 or float(v @ nu) == 0.0:
            raise GenericityViolation("split framing side degenerate",
                                      reason="framing")
        return q

    def _split_sign(self, y, u, tau_frac):
        """Raw orientation sign of a transverse crossing; the split carries
        its opposite."""
        curve = self.ctx.curve
        d_hat, v = _chord_motion(curve, y, tau_frac)
        w = float(curve.tangent(u) @ np.cross(d_hat, v))
        if w == 0.0:
            raise GenericityViolation("degenerate split orientation", reason="knot")
        return int(math.copysign(1, w))


def _chord_motion(curve, y, tau_frac):
    """Unit direction of the chord of cord y, and the velocity under the
    flow of its point at fraction tau_frac."""
    terms = cord_terms(curve, y[:1], y[1:])
    (p, q), (vs, vt) = terms.points, terms.tangents
    sdot, tdot = -terms.grad[0]
    d = q - p
    return d / np.linalg.norm(d), (1.0 - tau_frac) * vs * sdot + tau_frac * vt * tdot


def _torus_delta(y, p, L):
    d0 = (y[0] - p[0] + L / 2) % L - L / 2
    d1 = (y[1] - p[1] + L / 2) % L - L / 2
    return d0, d1


def _group_contiguous(indices, n):
    """Group sorted indices into circularly contiguous runs."""
    if len(indices) == 0:
        return []
    indices = np.sort(indices)
    breaks = np.nonzero(np.diff(indices) > 4)[0]
    groups = np.split(indices, breaks + 1)
    if len(groups) > 1 and (indices[0] + n - indices[-1]) <= 4:
        groups[0] = np.concatenate([groups[-1], groups[0] + 0])
        groups = groups[:-1]
    return [list(g) for g in groups]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def dhat_of_trace(trace, terminal_values):
    """Fold a FlowTrace into its algebra value.

    terminal_values maps index-0 labels to AlgebraElements (the contractible
    terminal maps to 1 - u).  The non-splitting part is
    left * terminal * right; each split contributes
    sign * left_at * Dhat(c1) * mu^birth * Dhat(c2) * right_at with the
    boundary monomials frozen at the split time and the birth meridian
    resolved from the framing side of the crossing.
    """
    if trace.terminal == "contractible":
        core = AlgebraElement.one() - AlgebraElement.mu()
    else:
        core = terminal_values[trace.terminal]
    out = _mono(trace.left) * core * _mono(trace.right)
    for sp in trace.splits:
        c1, c2 = sp["children"]
        piece = (_mono(sp["left"])
                 * dhat_of_trace(c1, terminal_values)
                 * AlgebraElement.mu(sp.get("birth_mu", 0))
                 * dhat_of_trace(c2, terminal_values)
                 * _mono(sp["right"]))
        out = out + sp["sign"] * piece
    return out


def _mono(exps):
    return AlgebraElement.monomial(exps[0], exps[1])


def terminal_generator_values(ctx):
    vals = {p.label: AlgebraElement.gen(p.label) for p in ctx.minima}
    return vals


def select_k_pm(curve, framing, k, ctx):
    """Offsets k+ and k- along the unstable eigenvector of an index-1 point.

    k+ moves the startpoint in the direction of the knot orientation; the
    offset grows geometrically until both points sit outside the saddle's
    indecision zone with no event-function sign change on the segment.
    Returns ((s+, t+), (s-, t-), flagged) where flagged marks the
    vertical-eigenvector convention case.
    """
    tol = ctx.tol
    L = curve.L
    i_min = int(np.argmin(k.eigvals))
    if k.eigvals[i_min] >= 0:
        raise ValueError("select_k_pm needs an index-1 point")
    e = np.array(k.eigvecs[i_min], dtype=float)
    e = e / np.linalg.norm(e)
    flagged = []
    if abs(e[0]) > 1e-9:
        if e[0] < 0:
            e = -e
    else:
        flagged.append("vertical-eigenvector: side labels are conventional")
        if e[1] < 0:
            e = -e
    center = np.array([k.s, k.t])
    h = 4.0 * tol.trajectory_tol * L
    e_val = energy(curve, k.s, k.t)
    lam = abs(k.eigvals[i_min])
    for _ in range(40):
        plus = (center + h * e) % L
        minus = (center - h * e) % L
        e_plus, e_minus = cord_terms(curve, [plus[0], minus[0]],
                                     [plus[1], minus[1]]).E
        drop_ok = (e_plus < e_val - 0.2 * lam * h * h / 2
                   and e_minus < e_val - 0.2 * lam * h * h / 2)
        if drop_ok and self_consistent_window(ctx, center, e, h):
            return (tuple(plus), tuple(minus), flagged)
        h *= 1.5
        if h > 0.02 * L:
            break
    raise GenericityViolation(
        f"could not open an event-free window around {k.label}", reason="knot")


def self_consistent_window(ctx, center, e, h):
    """No event-function sign change on the segments [k, k +- h e]."""
    fracs = np.linspace(-1.0, 1.0, 17)
    L = ctx.curve.L
    ys = (center + fracs[:, None] * h * e) % L
    try:
        rows = _events_each(ctx, ys, cord_terms(ctx.curve, ys[:, 0], ys[:, 1]))
    except (ZeroProjection, TangentialContact):
        return False
    for kind in ("F-start", "F-end", "B-start", "B-end"):
        vals = np.array([r[kind] for r in rows])
        if kind.startswith("B"):
            vals = vals[np.abs(vals) < L / 4]
            if len(vals) == 0:
                continue
        if np.min(vals) < 0 < np.max(vals):
            return False
    return True


def boundary_D(curve, framing, k, ctx):
    """D(k) = Dhat(k+) - Dhat(k-) for an index-1 critical point.

    Each boundary value gets its own split budget of ``tol.max_splits``.
    """
    (plus, minus, flagged) = select_k_pm(curve, framing, k, ctx)
    ctx.split_budget = ctx.tol.max_splits
    tr_plus = _Tracer(ctx, origin_saddle=k).run(*plus)
    tr_minus = _Tracer(ctx, origin_saddle=k).run(*minus)
    tr_plus.flagged.extend(flagged)
    vals = terminal_generator_values(ctx)
    return (dhat_of_trace(tr_plus, vals) - dhat_of_trace(tr_minus, vals),
            tr_plus, tr_minus)
