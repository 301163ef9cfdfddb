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
its length is set by a displacement cap tied to the knot-branch screen
(``FlowContext.free_cap``, one chord-screen step while a knot branch is near
the cord or the branch values wait), it is kept where I + hH stays positive
definite, and it is halved until it stays within ``FlowContext.reach`` of its
start and the energy decreases.  Events are located on the step's own
interpolant, whose endpoint is the accepted step.

The knot branches are screened at every accepted cord, but the branch Newton
runs only where its result can matter: a cord whose live branches all lie
clear of the endpoint zones lets its values wait, and a step whose chord
cannot come within reach of a screened branch skips the S bracket
(``FlowContext`` states both rules).  The traces are those of the eager flow,
which reads the values at every cord and brackets every step.

The paper fixes the sign rules only through its figures; they are pinned
here by the worked unknot and trefoil.  An event with crossing direction
sigma (the sign of the event function's time derivative) contributes
x^sigma on the left at the start point and x^-sigma on the right at the
end point, x = mu for framing and lambda for basepoint crossings
(``_EVENT_RULES``).  A split carries the opposite of its raw orientation
sign, and its middle factor is mu^-1 exactly when the chord points to the
+nu side at the crossing point, read as the F events read it, else 1
(``_Tracer._split_rule``).

A top-level trace of an index-1 cord that contracts at the basepoint
raises GenericityViolation with reason "basepoint"
(``_contracts_at_basepoint``); split children and free traces are exempt.

E is symmetric under the swap (s,t) <-> (t,s), which reverses the cord, and
so is the flow: the index-1 cords come in mirror pairs k = (s,t),
k-bar = (t,s), and the trace from k-bar's start is the mirror of the trace
from k's (``mirror_trace``): start and end events trade places, splits
change sign and framing side, and the children trade places.  The cord
kernel, the step and the event values are swap-symmetric bit for bit; the
knot-branch screen works from the cord's start point and agrees only up to
rounding, which on every shipped input leaves the mirrored traces equal to
flowed ones bit for bit.  ``mirror_boundary_D`` derives D(k-bar) from k's
traces without a second flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import cord_length, cord_terms, diagonal_data, energy, mirror_partners
from .errors import (
    GenericityViolation,
    MaxSplits,
    MirrorMismatch,
    StepCollapse,
    TangentialContact,
    VerticalTangent,
    ZeroProjection,
)
from .incidence import (
    ChordScreen,
    _framing_coordinates,
    _refine_crossings,
    cord_events,
    framing_event,
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


@dataclass
class FlowTrace:
    initial: tuple
    events: list
    terminal: str            # index-0 label | "contractible"
    left: tuple              # accumulated (lambda, mu) exponents, left side
    right: tuple
    splits: list             # list of dicts with sign, monomials, children
    path: list = field(default_factory=list)  # (tau, s, t) at accepted steps


# ---------------------------------------------------------------------------
# flow context: everything precomputed once per (curve, framing)
# ---------------------------------------------------------------------------

class FlowContext:
    """Everything the flow precomputes once per (curve, framing).

    It holds the census facts the flow reads: ``partners`` maps each label
    to the label of its exact swap, and ``terminal_values`` maps each trace
    terminal to its value (an index-0 label to its generator, "contractible"
    to the diagonal minimum's 1 - u).

    At every accepted cord the flow screens the knot branches within
    ``branch_radius`` (four screen steps) of the chord.  No step moves the
    cord farther than ``reach``, 7/8 of that radius, on the torus:

    - every interpolant point y(theta) of a step lies within |dy| of y0,
      because each eigencomponent of theta h (I + theta h H)^-1 f grows
      with theta;
    - a chord point moves at most max(|ds|, |dt|) (1 + tol_arc);
    - so a knot branch outside the radius at an accepted cord cannot reach
      the chord during the next step.

    A step with no live branch is capped at ``free_cap``, 3/4 of the
    radius, which leaves room for the growth by (I + hH)^-1 near a saddle
    before the reach halves the step.

    The screen groups its candidate cells into runs.  A run whose middle
    cell lies farther than ``excl`` (in parameter) from both ends of the
    cord is live, and seeds one branch Newton (``_Tracer._branch_values``).
    A live run is detached when all of its cells lie that far out, and the
    cord's margin is the smallest gap (``ChordScreen.gaps``) between the
    chord and a cell of a live run that lies that far out.

    - Cap.  A cord whose live runs are all detached lets its branch values
      wait (``_values_wait``), and its step is capped at one screen step.
      Any other cord reads them at once, and its step is capped at one
      screen step when a branch is found, else at ``free_cap``.
    - Skip.  Along the step y0 -> y1 the chord moves at most
      m = (1 + tol_arc) |dy| (above).  ``_Tracer._bracket_s`` accepts a hit
      no farther than eps = tau_floor |chord(y0)| + 10 intersect_tol L from
      the chord: its distance and chord-fraction limits, from DEFAULT_TOL.
      When the margins at y0 and at y1 both exceed m + eps, no branch can
      cross the chord, and a step with waiting values at either end skips
      the S bracket.  Otherwise it reads the waiting values and brackets.
      A step between two read cords always brackets, so that the flow with
      ``_values_wait`` forced False is the eager flow, step for step.
    """

    def __init__(self, curve, framing, critical_points):
        self.curve = curve
        self.framing = framing
        self.screen = ChordScreen(curve, n=min(len(curve.samples), 1024))
        self.branch_radius = 4.0 * self.screen.step
        self.reach = 0.875 * self.branch_radius
        self.free_cap = 0.75 * self.branch_radius
        # knot branches this close to either end of a cord are not S events;
        # the screen has at most 1,024 cells, so three screen steps always
        # exceed the endpoint margin of 1e-3 L
        self.excl = 3.0 * self.screen.step
        self.minima = [p for p in critical_points if p.index == 0]
        self.saddles = [p for p in critical_points if p.index == 1]
        self.partners = mirror_partners(critical_points)
        self.terminal_values = {p.label: AlgebraElement.gen(p.label)
                                for p in self.minima}
        self.terminal_values["contractible"] = diagonal_data()["m"]["value"]
        self.basins = [self._basin_radius(p) for p in self.minima]
        self.split_budget = DEFAULT_TOL.max_splits

    def _basin_radius(self, p):
        """Certified ball around an index-0 point: convex and event-free."""
        L = self.curve.L
        r = DEFAULT_TOL.basin_frac * L
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
        if np.any(eig <= 0) or not _event_free(self, pts, terms):
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
    and a B value on the far side of the circle (|B| > L/4) by NaN, so
    neither can bracket a crossing there.
    """
    ev = cord_events(ctx.framing, y[0], y[1], pts, tans)
    for kind in ("F-start", "F-end"):
        val, alpha = ev[kind]
        ev[kind] = val if alpha > 0.0 else math.copysign(1.0, val)
    quarter = ctx.framing.curve.L / 4
    for kind in ("B-start", "B-end"):
        if abs(ev[kind]) > quarter:
            ev[kind] = math.nan
    return ev


def _event_free(ctx, ys, terms):
    """Whether no event lies on or between the cords ys.

    ``terms`` are the ``cord_terms`` of ys.  Every event value (``_events``)
    must stay 1e-6 clear of zero and keep one sign over ys; a NaN has
    neither sign.  A cord where an event function is undefined fails.
    """
    k = len(ys)
    try:
        rows = [_events(ctx, ys[i], terms.points[i::k], terms.tangents[i::k])
                for i in range(k)]
    except (VerticalTangent, ZeroProjection, TangentialContact):
        return False
    for kind in rows[0]:
        vals = np.array([row[kind] for row in rows])
        if np.any(np.abs(vals) < 1e-6) or (np.any(vals < 0) and np.any(vals > 0)):
            return False
    return True


def _state(ctx, y):
    """f = -grad E, E, the Hessian entries (h11, h12, h22) and the
    ``cord_terms`` at the cord y, from one spline call."""
    terms = cord_terms(ctx.curve, y[:1], y[1:])
    h11, h12, _h21, h22 = terms.hess.ravel().tolist()
    return -terms.grad[0], float(terms.E[0]), (h11, h12, h22), terms


class _Near:
    """The knot branches near one accepted cord y, as the screen sees them.

    ``seeds`` holds one seed per live run and ``cells`` the cells of the
    live runs that lie outside the endpoint zones; ``margin`` is their
    smallest gap to the chord (``_Tracer._margin``, inf without a live
    run, None until a step reads it).  ``values`` holds the branch values
    (``_Tracer._branch_values``), or None while they wait (``waits``).
    """

    __slots__ = ("y", "ends", "seeds", "cells", "margin", "waits", "values")

    def __init__(self, y, ends):
        self.y, self.ends = y, ends
        self.seeds = self.cells = None
        self.margin = math.inf
        self.waits = False
        self.values = []


def _values_wait(zone):
    """Whether a cord's branch values may wait until a step needs them.

    ``zone`` marks the cells of the cord's live runs that lie in an
    endpoint zone.  When no cell does, every live run is detached, and
    its Newton, seeded clear of the zones, finds its branch: the cap is one
    screen step whether or not the values are read (the suite compares the
    traces with the eager flow's).  A run that touches a zone can have its
    Newton land there and find no branch, which frees the cap, so its
    values are read at once.
    """
    return not zone.any()


def _interior_hits(ctx, s, t):
    from .incidence import chord_knot_intersections
    return chord_knot_intersections(ctx.curve, s, t, screen=ctx.screen)


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

    def delta(self, theta):
        """y(theta) - y0, not wrapped."""
        a = theta * self.h
        h11, h12, h22 = self.H0
        m11, m12, m22 = 1.0 + a * h11, a * h12, 1.0 + a * h22
        det = m11 * m22 - m12 * m12
        f0, f1 = self.f0
        return a * (m22 * f0 - m12 * f1) / det, a * (m11 * f1 - m12 * f0) / det

    def at(self, theta):
        """y(theta), wrapped onto the torus."""
        d0, d1 = self.delta(theta)
        L = self.L
        return np.array([(self.y0[0] + d0) % L, (self.y0[1] + d1) % L])

    def bisect(self, same_side, stop):
        """Fraction of the step at which the interpolant leaves its start side.

        ``same_side(y)`` tells whether y(theta) is still on the side of y0.
        [0, 1] is halved at most 60 times, until the bracket is shorter than
        ``stop`` in time, and its midpoint returned.  A ``same_side`` of None
        (the side cannot be told, as for a lost knot branch) gives None.
        """
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            side = same_side(self.at(mid))
            if side is None:
                return None
            if side:
                lo = mid
            else:
                hi = mid
            if (hi - lo) * self.h < stop:
                break
        return 0.5 * (lo + hi)


class _Tracer:
    """One trajectory; owns the event bookkeeping and split recursion."""

    def __init__(self, ctx, origin_saddle=None):
        self.ctx = ctx
        self.origin = origin_saddle

    def run(self, s, t, depth=0):
        ctx = self.ctx
        curve = ctx.curve
        L = curve.L
        y = np.array([float(s) % L, float(t) % L])
        f, e_prev, H, terms = _state(ctx, y)
        trace = FlowTrace(
            initial=(y[0], y[1]), events=[], terminal="", left=(0, 0),
            right=(0, 0), splits=[],
        )

        trace.path.append((0.0, float(y[0]), float(y[1])))
        term = self._terminal_check(y)
        if term:
            return self._finish(trace, term, y)

        ev_prev = _events(ctx, y, terms.points, terms.tangents)
        near = self._s_branches(y, terms.points)
        tau = 0.0
        h_min = 1e-15 * L

        for _ in range(DEFAULT_TOL.max_steps):
            # the near-Bott valleys make the flow stiff; the linearly
            # implicit step has no stability limit, so the step is capped by
            # displacement only: ctx.free_cap per step, one screen step while
            # a knot branch is near the cord or its values wait (the
            # S-branch matching assumes the chord moves less than that per
            # step), and a step that would move farther than ctx.reach is
            # halved before it is evaluated.  Near the origin saddle H has a
            # negative eigenvalue; keeping h below 0.5/|lambda_min| keeps
            # I + hH positive definite.
            speed = math.hypot(f[0], f[1])
            if speed < 1e-14:
                raise GenericityViolation("flow stalled away from any basin",
                                          reason="knot")
            cap = ctx.screen.step if near.waits or near.values else ctx.free_cap
            h = cap / speed
            h11, h12, h22 = H
            lam_min = 0.5 * (h11 + h22) - math.hypot(0.5 * (h11 - h22), h12)
            if lam_min < 0.0:
                h = min(h, 0.5 / -lam_min)
            while True:
                step = _Step(y, h, f, H, L)
                dy = math.hypot(*step.delta(1.0))
                if dy <= ctx.reach:
                    y_new = step.at(1.0)
                    f_new, e_new, H_new, terms = _state(ctx, y_new)
                    if e_new < e_prev:
                        break
                h *= 0.5
                if h < h_min:
                    raise StepCollapse("step collapsed during flow")
            ev_new = _events(ctx, y_new, terms.points, terms.tangents)
            crossings = self._bracket_events(step, ev_prev, ev_new)
            term = self._terminal_check(y_new)
            t_term = None
            if term:
                t_term = step.bisect(lambda ym: not self._terminal_check(ym),
                                     DEFAULT_TOL.event_tol * L)
                crossings = [c for c in crossings if c[0] < t_term]
            near_new = self._s_branches(y_new, terms.points)
            # the step reads no waiting values when no live run at either
            # end lies within the chord's reach of the step (FlowContext)
            s_crossings = []
            if not (near.waits or near_new.waits) or \
                    self._may_cross(near, near_new, dy):
                s_crossings = self._bracket_s(step, self._values(near),
                                              self._values(near_new), cut=t_term)
            all_events = sorted(crossings + s_crossings, key=lambda c: c[0])
            self._apply_events(trace, tau, step, all_events, depth)

            tau += h
            e_prev = e_new
            ev_prev = ev_new
            near = near_new
            f, H = f_new, H_new
            trace.path.append((tau, float(y_new[0]), float(y_new[1])))
            if term:
                return self._finish(trace, term, y_new)
            self._saddle_guard(y, y_new)
            y = y_new
        raise StepCollapse("flow exceeded the step budget")

    # -- terminal conditions ------------------------------------------------

    def _finish(self, trace, term, y):
        """End the trace at the cord y with terminal ``term``.

        A top-level trace of a saddle must not contract at the basepoint
        (``_contracts_at_basepoint``); split children and free traces are
        exempt.
        """
        if self.origin is not None and term == "contractible" and \
                _contracts_at_basepoint(self.ctx.curve, y, trace.events):
            raise GenericityViolation("contraction point at the basepoint",
                                      reason="basepoint")
        trace.terminal = term
        return trace

    def _terminal_check(self, y):
        ctx = self.ctx
        L = ctx.curve.L
        if ctx.curve.circ_dist(y[0], y[1]) < DEFAULT_TOL.diag_tube * L:
            return "contractible"
        for p, r in zip(ctx.minima, ctx.basins):
            if math.hypot(*(_torus_delta(y, (p.s, p.t), L))) < r:
                return p.label
        return None

    def _saddle_guard(self, y0, y1):
        """Raise if the segment y0 -> y1 enters a foreign saddle's ball."""
        ctx = self.ctx
        L = ctx.curve.L
        r = DEFAULT_TOL.trajectory_tol * L
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
        ctx = self.ctx
        curve = ctx.curve
        out = []
        for kind in ("B-start", "B-end", "F-start", "F-end"):
            a, b = ev0[kind], ev1[kind]
            if a == 0.0:
                raise GenericityViolation(f"trace starts on {kind} set",
                                          reason="basepoint" if kind[0] == "B" else "framing")
            if not a * b < 0.0:
                continue
            sign0 = math.copysign(1.0, a)

            def same_side(ym):
                ev = _events(ctx, ym, *curve.spline.eval_multi(ym, (0, 1)))
                return math.copysign(1.0, ev[kind]) == sign0

            frac = step.bisect(same_side, DEFAULT_TOL.event_tol * curve.L)
            if kind[0] == "F" and not framing_event(
                    curve, ctx.framing, *step.at(frac), kind[2:]).positive:
                continue  # a crossing on the -nu side is not an event
            out.append((frac, kind, int(math.copysign(1, b - a)), None))
        return out

    # -- S events ---------------------------------------------------------------

    def _s_branches(self, y, ends):
        """The knot branches near the cord y, as a ``_Near``; ``ends`` holds
        gamma at both ends of y.

        The candidate cells of the screen are grouped into runs, and a run
        whose middle cell lies outside the endpoint zones is live and
        seeds one branch Newton.  The Newton runs at once unless
        ``_values_wait`` says it may wait.
        """
        ctx = self.ctx
        screen = ctx.screen
        near = _Near(y, ends)
        # a chord shorter than the endpoint exclusion zones cannot carry a
        # valid interior hit; skip the screen entirely (the long family
        # sweeps of short cords dominate the step count)
        chord = ends[1] - ends[0]
        if float(chord @ chord) < (1.8 * ctx.excl) ** 2:
            return near
        cand = screen.candidates(y[0], y[1], ctx.branch_radius, ends)
        if len(cand) == 0:
            return near
        lo, hi = _group_runs(cand, len(screen.params))
        seeds = screen.params[cand[lo + (hi - lo) // 2]]
        live = ~self._in_zones(seeds, y)
        if not live.any():
            return near
        # negative positions index the tail of a run across the wrap
        cells = cand[np.concatenate([np.arange(a, b) for a, b in
                                     zip(lo[live], hi[live])])]
        zone = self._in_zones(screen.params[cells], y)
        near.seeds, near.cells, near.margin = seeds[live], cells[~zone], None
        near.waits = _values_wait(zone)
        near.values = None
        if not near.waits:
            self._values(near)
        return near

    def _in_zones(self, u, y):
        """Whether the knot parameters u lie in the endpoint zones of y."""
        curve, excl = self.ctx.curve, self.ctx.excl
        return (curve.circ_dist(u, y[0]) < excl) | (curve.circ_dist(u, y[1]) < excl)

    def _values(self, near):
        """The branch values of ``near``: the live seeds' branch Newton,
        run the first time they are read."""
        if near.values is None:
            near.values = [res for res in self._branch_values(
                near.y, near.ends, near.seeds) if res is not None]
        return near.values

    def _margin(self, near):
        """The smallest gap (``ChordScreen.gaps``) between the chord of
        ``near`` and its live cells, computed the first time it is read."""
        if near.margin is None:
            p, q = near.ends
            near.margin = float(self.ctx.screen.gaps(
                p[None], (q - p)[None], near.cells).min())
        return near.margin

    def _may_cross(self, near0, near1, dy):
        """Whether a live branch at either end of a step of length dy may
        come as near the chord as ``_bracket_s`` accepts a hit
        (``FlowContext``)."""
        p, q = near0.ends
        chord = q - p
        eps = (DEFAULT_TOL.tau_floor * math.sqrt(float(chord @ chord))
               + 10.0 * DEFAULT_TOL.intersect_tol * self.ctx.curve.L)
        reach = (1.0 + DEFAULT_TOL.tol_arc) * dy + eps
        return self._margin(near0) <= reach or self._margin(near1) <= reach

    def _branch_values(self, y, ends, seeds):
        """(u, value, tau, n_hat, dist) of the branch near each seed, or None.

        One batched Newton refinement serves every seed that lies outside
        the endpoint zones; a flat distance minimum gives None for its own
        seed only (flat but distant minima are harmless).
        """
        ctx = self.ctx
        curve = ctx.curve
        out = [None] * len(seeds)
        live = np.nonzero(~self._in_zones(seeds, y))[0]
        if len(live) == 0:
            return out
        p = ends[0]
        u, tau, dist, flat, value, n_hat, parallel = _refine_crossings(
            curve, p, ends[1] - p, seeds[live])
        zone = self._in_zones(u, y)
        for k, i in enumerate(live):
            if (flat[k] or not np.isfinite(dist[k]) or dist[k] > 6.0 * ctx.screen.step
                    or zone[k]):
                continue
            if parallel[k]:
                if dist[k] < 4.0 * DEFAULT_TOL.intersect_tol * curve.L:
                    raise GenericityViolation("tangential chord/knot contact",
                                              reason="knot")
                continue
            out[i] = (u[k], value[k], tau[k], n_hat[k], float(dist[k]))
        return out

    def _bracket_s(self, step, branches0, branches1, cut=None):
        """The S crossings of the step, from the branch values at its ends."""
        ctx = self.ctx
        curve = ctx.curve
        window = 8.0 * ctx.screen.step
        out = []
        for (u1, v1, tau1, n1, d1) in branches1:
            match = _nearest_branch(curve, branches0, u1, window)
            if match is None:
                continue
            u0, v0, _tau0, n0, _d0 = match
            if float(n1 @ n0) < 0.0:
                v1 = -v1  # keep the branch's sign orientation continuous
            if v0 * v1 >= 0.0:
                continue
            seed = np.array([u0])
            sign0 = math.copysign(1.0, v0)

            def branch(ym):
                ends = curve.spline.eval_multi(ym, (0,))[0]
                return self._branch_values(ym, ends, seed)[0]

            def same_side(ym):
                res = branch(ym)
                if res is None:
                    return None  # the branch is lost
                val = res[1] if float(res[3] @ n0) >= 0.0 else -res[1]
                return math.copysign(1.0, val) == sign0

            frac = step.bisect(same_side, DEFAULT_TOL.event_tol * curve.L)
            res = None if frac is None else branch(step.at(frac))
            if res is None:
                continue
            u_hit, tau_hit, dist = res[0], res[2], res[4]
            if dist > 10.0 * DEFAULT_TOL.intersect_tol * curve.L:
                continue  # the branch slips around the chord, no crossing
            tau_floor = DEFAULT_TOL.tau_floor
            if tau_hit < -tau_floor or tau_hit > 1.0 + tau_floor:
                continue  # knot crosses the chord's extension, not the cord
            if cut is not None and frac >= cut:
                continue
            out.append((frac, "split", 0, (u_hit, tau_hit, dist)))
        return out

    # -- applying events ---------------------------------------------------------

    def _apply_events(self, trace, tau, step, events, depth):
        ctx = self.ctx
        L = ctx.curve.L
        h = step.h
        for i, (frac, kind, sigma, aux) in enumerate(events):
            if i + 1 < len(events):
                nfrac, nkind = events[i + 1][0], events[i + 1][1]
                if (nfrac - frac) * h < DEFAULT_TOL.event_tol * L:
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
        u, tau_frac, _dist = aux
        tau_floor = DEFAULT_TOL.tau_floor
        margin = DEFAULT_TOL.endpoint_margin
        if not (tau_floor < tau_frac < 1.0 - tau_floor) or \
                curve.circ_dist(u, y[0]) < margin * curve.L or \
                curve.circ_dist(u, y[1]) < margin * curve.L:
            raise GenericityViolation("crossing inside the endpoint zone",
                                      reason="knot")
        others = [hit for hit in _interior_hits(ctx, y[0], y[1])
                  if curve.circ_dist(hit[0], u) > 4.0 * margin * curve.L]
        if others:
            raise GenericityViolation("cord met the knot twice (S2)",
                                      reason="knot")
        parent_len = cord_length(curve, y[0], y[1])
        c1 = (y[0], u)
        c2 = (u, y[1])
        len1 = cord_length(curve, *c1)
        len2 = cord_length(curve, *c2)
        floor = DEFAULT_TOL.min_split_decrease * curve.L
        if len1 > parent_len - floor or len2 > parent_len - floor:
            raise GenericityViolation("split child not shorter than parent",
                                      reason="knot")
        sign, birth_mu = self._split_rule(y, tau_frac, u)
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
        })
        trace.events.append(TraceEvent(
            time=at_time, kind="split", sigma=sign, exponent=0,
            state=(float(y[0]), float(y[1])),
        ))

    def _split_rule(self, y, tau_frac, u):
        """(sign, birth_mu) of the split of the cord y at the knot point u.

        With d-hat and v the ``_chord_motion`` at chord fraction tau_frac,
        the split carries the opposite sign of gamma'(u) . (d-hat x v), and
        mu^-1 when d-hat lies on the +nu side at u: the alpha of
        ``_framing_coordinates``, which decides F events too.  alpha flips
        under cord reversal.  A zero sign is a degenerate crossing; alpha = 0,
        v . nu(u) = 0 or d-hat along gamma'(u) a degenerate framing side.
        """
        curve, framing = self.ctx.curve, self.ctx.framing
        d_hat, v = _chord_motion(curve, y, tau_frac)
        tang = curve.tangent(u)
        w = float(tang @ np.cross(d_hat, v))
        if w == 0.0:
            raise GenericityViolation("degenerate split orientation", reason="knot")
        try:
            alpha = _framing_coordinates(framing, u, tang.tolist(), *d_hat.tolist())[1]
        except ZeroProjection:
            alpha = 0.0
        nu = framing.at(u, *(tang / np.linalg.norm(tang)).tolist())
        if alpha == 0.0 or float(v @ nu) == 0.0:
            raise GenericityViolation("split framing side degenerate",
                                      reason="framing")
        return -int(math.copysign(1, w)), (-1 if alpha > 0.0 else 0)


def _chord_motion(curve, y, tau_frac):
    """Unit direction of the chord of cord y, and the velocity under the
    flow of its point at fraction tau_frac."""
    terms = cord_terms(curve, y[:1], y[1:])
    (p, q), (vs, vt) = terms.points, terms.tangents
    sdot, tdot = -terms.grad[0]
    d = q - p
    return d / np.linalg.norm(d), (1.0 - tau_frac) * vs * sdot + tau_frac * vt * tdot


def _contracts_at_basepoint(curve, y, events):
    """Whether a trace that ends contractible at the cord y contracts at
    the basepoint.

    It does when y lies within two diagonal tubes of the basepoint in s or
    in t, or when its last event (a split counts) is a B event at a cord
    within three tubes of the diagonal.  The rule reads s and t alike, so
    it gives the same answer on a trace and on its ``mirror_trace``.
    """
    tube = DEFAULT_TOL.diag_tube * curve.L
    if min(curve.circ_dist(y[0], 0.0), curve.circ_dist(y[1], 0.0)) < 2.0 * tube:
        return True
    if not events:
        return False
    last = events[-1]
    return last.kind.startswith("B") and \
        curve.circ_dist(last.state[0], last.state[1]) < 3.0 * tube


def _torus_delta(y, p, L):
    d0 = (y[0] - p[0] + L / 2) % L - L / 2
    d1 = (y[1] - p[1] + L / 2) % L - L / 2
    return d0, d1


def _nearest_branch(curve, branches, u, window):
    """The branch of ``branches`` whose parameter is nearest to u on the
    knot, or None if none lies within ``window``; a tie keeps the first."""
    best, best_d = None, window
    for b in branches:
        d = curve.circ_dist(b[0], u)
        if d < best_d:
            best, best_d = b, d
    return best


def _group_runs(indices, n):
    """Runs of the sorted indices ``indices`` of an n-cycle, as positions
    (lo, hi) into ``indices``; a gap of more than 4 ends a run.  A run
    across the wrap is listed first, with a negative lo that indexes the
    tail of ``indices``, so its middle lo + (hi - lo) // 2 is counted from
    its start near n."""
    starts = np.flatnonzero(np.diff(indices) > 4) + 1
    lo = np.concatenate([[0], starts])
    hi = np.concatenate([starts, [len(indices)]])
    if len(starts) and indices[0] + n - indices[-1] <= 4:
        lo[0] = lo[-1] - len(indices)
        lo, hi = lo[:-1], hi[:-1]
    return lo, hi


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def dhat_of_trace(trace, terminal_values):
    """Fold a FlowTrace into its algebra value.

    ``terminal_values`` maps every terminal of the trace and of its split
    children to an AlgebraElement, as ``FlowContext.terminal_values`` does.
    The non-splitting part is left * terminal * right; each split
    contributes sign * left_at * Dhat(c1) * mu^birth * Dhat(c2) * right_at
    with the boundary monomials frozen at the split time and the birth
    meridian resolved from the framing side of the crossing.
    """
    out = _mono(trace.left) * terminal_values[trace.terminal] * _mono(trace.right)
    for sp in trace.splits:
        c1, c2 = sp["children"]
        piece = (_mono(sp["left"])
                 * dhat_of_trace(c1, terminal_values)
                 * AlgebraElement.mu(sp["birth_mu"])
                 * dhat_of_trace(c2, terminal_values)
                 * _mono(sp["right"]))
        out = out + sp["sign"] * piece
    return out


def _mono(exps):
    return AlgebraElement.monomial(exps[0], exps[1])


def select_k_pm(k, ctx):
    """Offsets k+ and k- along the unstable eigenvector of an index-1 point.

    k+ moves the startpoint in the direction of the knot orientation; the
    offset grows geometrically until both points sit outside the saddle's
    indecision zone and the segment between them is event-free.
    Returns ((s+, t+), (s-, t-)).  A vertical eigenvector does not move the
    startpoint; there k+ moves the endpoint forward, a convention.
    """
    curve = ctx.curve
    L = curve.L
    i_min = int(np.argmin(k.eigvals))
    if k.eigvals[i_min] >= 0:
        raise ValueError("select_k_pm needs an index-1 point")
    e = np.array(k.eigvecs[i_min], dtype=float)
    e = e / np.linalg.norm(e)
    if abs(e[0]) > 1e-9:
        if e[0] < 0:
            e = -e
    elif e[1] < 0:
        e = -e
    center = np.array([k.s, k.t])
    h = 4.0 * DEFAULT_TOL.trajectory_tol * L
    e_val = energy(curve, k.s, k.t)
    lam = abs(k.eigvals[i_min])
    for _ in range(40):
        plus = (center + h * e) % L
        minus = (center - h * e) % L
        e_plus, e_minus = cord_terms(curve, [plus[0], minus[0]],
                                     [plus[1], minus[1]]).E
        drop_ok = (e_plus < e_val - 0.2 * lam * h * h / 2
                   and e_minus < e_val - 0.2 * lam * h * h / 2)
        if drop_ok:
            # no event on the segments [k, k +- h e]
            ys = (center + np.linspace(-1.0, 1.0, 17)[:, None] * h * e) % L
            if _event_free(ctx, ys, cord_terms(curve, ys[:, 0], ys[:, 1])):
                return (tuple(plus), tuple(minus))
        h *= 1.5
        if h > 0.02 * L:
            break
    raise GenericityViolation(
        f"could not open an event-free window around {k.label}", reason="knot")


def boundary_D(curve, framing, k, ctx):
    """D(k) = Dhat(k+) - Dhat(k-) for an index-1 critical point, as
    (D, trace+, trace-).

    Each boundary value gets its own split budget of
    ``DEFAULT_TOL.max_splits``.  Either trace that contracts at the
    basepoint raises GenericityViolation (reason "basepoint").  The flow
    reads ``ctx`` alone: ``curve`` and ``framing`` are not read and stay
    for the callers that pass them, perfbench/workloads.py among them.
    """
    plus, minus = select_k_pm(k, ctx)
    ctx.split_budget = DEFAULT_TOL.max_splits
    return _fold(_Tracer(ctx, origin_saddle=k).run(*plus),
                 _Tracer(ctx, origin_saddle=k).run(*minus), ctx)


def _fold(tr_plus, tr_minus, ctx):
    """(D, trace+, trace-) with D = Dhat(k+) - Dhat(k-)."""
    vals = ctx.terminal_values
    return (dhat_of_trace(tr_plus, vals) - dhat_of_trace(tr_minus, vals),
            tr_plus, tr_minus)


def mirror_trace(trace, partner_labels):
    """The trace the flow gives from the swapped start of ``trace``.

    The flow commutes with the swap (s,t) <-> (t,s), which reverses the
    cord: start and end events trade places with the same sigma (so their
    exponents change sign and ``left`` and ``right`` swap and negate), a
    split keeps its crossing point at chord fraction 1 - tau with the
    opposite orientation sign and the other framing side, and its children
    are the mirrored children in the other order.  An index-0 terminal
    becomes its partner in ``partner_labels``.
    """
    return FlowTrace(
        initial=_swap(trace.initial),
        events=[_mirror_event(ev) for ev in trace.events],
        terminal=partner_labels.get(trace.terminal, trace.terminal),
        left=_neg(trace.right),
        right=_neg(trace.left),
        splits=[{
            "time": sp["time"],
            "sign": -sp["sign"],
            "birth_mu": -1 - sp["birth_mu"],
            "left": _neg(sp["right"]),
            "right": _neg(sp["left"]),
            "children": tuple(mirror_trace(c, partner_labels)
                              for c in reversed(sp["children"])),
            "hit": (sp["hit"][0], 1.0 - sp["hit"][1]),
        } for sp in trace.splits],
        path=[(tau, t, s) for tau, s, t in trace.path],
    )


_MIRROR_KIND = {"F-start": "F-end", "F-end": "F-start",
                "B-start": "B-end", "B-end": "B-start"}


def _mirror_event(ev):
    if ev.kind == "split":
        return TraceEvent(time=ev.time, kind="split", sigma=-ev.sigma, exponent=0,
                          state=_swap(ev.state))
    return TraceEvent(time=ev.time, kind=_MIRROR_KIND[ev.kind], sigma=ev.sigma,
                      exponent=-ev.exponent, state=_swap(ev.state))


def _swap(y):
    return (y[1], y[0])


def _neg(exps):
    return (-exps[0], -exps[1])


def mirror_boundary_D(k, flowed, ctx):
    """D(k) for the swap k of a flowed index-1 cord, without a flow.

    ``flowed`` holds the (trace+, trace-) of k's partner in
    ``ctx.partners``, and the index-0 terminals of their mirrors are
    renamed by the same map.  k's own ``select_k_pm`` start points must be
    the swapped partner start points bit for bit, in either order (the
    unstable eigenvector may change its sign convention under the swap);
    otherwise MirrorMismatch is raised.  The mirrored traces are not
    checked for a contraction at the basepoint again: the rule reads s and
    t alike.  Returns (D, trace+, trace-) like ``boundary_D``.
    """
    plus, minus = select_k_pm(k, ctx)
    a, b = (mirror_trace(tr, ctx.partners) for tr in flowed)
    # a trace starts at its cord wrapped the way _Tracer.run wraps it
    L = ctx.curve.L
    starts = tuple((float(y[0]) % L, float(y[1]) % L) for y in (plus, minus))
    if starts == (a.initial, b.initial):
        return _fold(a, b, ctx)
    if starts == (b.initial, a.initial):
        return _fold(b, a, ctx)
    raise MirrorMismatch(
        f"the start points of {k.label} are not the swapped start points"
        " of its partner")
