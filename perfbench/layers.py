"""Per-layer spans and counters, recorded from outside the program.

Every wrapper is installed where the caller looks the name up (for example
``cordalg.pipeline.find_critical_points`` rather than
``cordalg.energy.find_critical_points``), so the program itself is not
edited.  Spans stay in memory and are written when the benchmark ends.

Two sets of wrappers exist:

* the light set counts pipeline attempts and perturb-and-retry calls by
  reason.  It is installed on every run, because the item records and the
  determinism fingerprint need these counts; it touches a few dozen calls
  per pass and does not move the end-to-end timings;
* the full set adds a span or a counter at every layer boundary that a
  per-layer metric reads.  It is installed only on the traced pass.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import cordalg.cli as cli
import cordalg.flow as flow
import cordalg.incidence as incidence
import cordalg.pipeline as pipeline
from cordalg.incidence import ChordScreen
from cordalg.knots import PeriodicSpline

RETRY_REASONS = {
    "perturb_basepoint": "basepoint",
    "perturb_framing": "framing",
    "perturb_curve": "knot",
}


class Recorder:
    """Installs wrappers, keeps spans and counters, and removes the wrappers."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.longest = defaultdict(float)
        self._stack = []
        self._in_chord_knot = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        """Put every wrapped name back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _span(self, owner, attr, name):
        """Record a span with its parent, plus a call count and total time."""
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                start = time.perf_counter()
                self.spans.append([name, start, start, parent])
                self._stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    end = time.perf_counter()
                    self.spans[index][2] = end
                    self.counts[name] += 1
                    self.seconds[name] += end - start
                    self.longest[name] = max(self.longest[name], end - start)
                return out
            return wrapper
        self._patch(owner, attr, make)

    def install_light(self):
        """Attempt and retry counters; installed on every run."""
        self._span(pipeline, "find_critical_points", "pipeline.attempt")
        for attr in RETRY_REASONS:
            self._span(pipeline, attr, f"retry.{RETRY_REASONS[attr]}")

    def install_full(self):
        """Spans and counters at every layer boundary; traced pass only."""
        self._span(cli, "find_critical_points", "energy.census")
        for owner in (pipeline, cli):
            self._span(owner, "build_curve", "knots.build_curve")
            self._span(owner, "linking_number", "knots.linking_number")
        self._span(pipeline, "FlowContext", "flow.context")
        self._span(pipeline, "boundary_D", "flow.boundary_D")
        self._span(flow, "select_k_pm", "flow.select_k_pm")
        self._span(pipeline, "genericity_check", "pipeline.genericity_check")
        self._span(pipeline, "derive_seifert_rules", "seifert.rules")
        self._span(pipeline, "framing_transform", "ring.framing_transform")
        self._span(pipeline, "simplify", "pipeline.simplify")
        # flow._interior_hits imports the name from cordalg.incidence per call
        for owner in (pipeline, cli, incidence):
            self._wrap_chord_knot(owner)
        for owner in (pipeline, cli, flow, incidence):
            self._count(owner, "framing_event", "incidence.framing_event")
        self._count(PeriodicSpline, "eval_multi", "knots.spline")
        self._count(PeriodicSpline, "__call__", "knots.spline")
        self._wrap_candidates()

    def _count(self, owner, attr, name):
        """Call count only: these names run millions of times per pass."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def _wrap_chord_knot(self, owner):
        # aggregated, not kept as spans: the flow screens for interior hits
        # at every event bracket
        name = "incidence.chord_knot"

        def make(fn):
            def wrapper(*args, **kwargs):
                self._in_chord_knot += 1
                start = time.perf_counter()
                try:
                    hits = fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - start
                    self.counts[name] += 1
                    self._in_chord_knot -= 1
                self.counts["incidence.hits"] += len(hits)
                return hits
            return wrapper
        self._patch(owner, "chord_knot_intersections", make)

    def _wrap_candidates(self):
        def make(fn):
            def wrapper(screen, *args, **kwargs):
                cand = fn(screen, *args, **kwargs)
                self.counts["incidence.candidate_segments"] += len(cand)
                if self._in_chord_knot:
                    self.counts["incidence.refined_segments"] += len(cand)
                return cand
            return wrapper
        self._patch(ChordScreen, "candidates", make)

    # -- read-out ----------------------------------------------------------

    def snapshot(self):
        """Attempt and retry counts so far, for per-item differences."""
        out = {"attempts": self.counts["pipeline.attempt"]}
        for reason in RETRY_REASONS.values():
            out[reason] = self.counts[f"retry.{reason}"]
        return out

    def layer_metrics(self, flow_counts, micro, traced_wall, untraced_wall):
        """The per-layer metrics of one traced pass, by name."""
        c, t = self.counts, self.seconds
        steps = flow_counts.get("accepted_steps", 0)
        refined = c["incidence.refined_segments"]
        perturb = sum(t[f"retry.{r}"] for r in RETRY_REASONS.values())
        return {
            "flow.boundary_D_s": t["flow.boundary_D"],
            "flow.boundary_D_max_s": self.longest["flow.boundary_D"],
            "flow.accepted_steps": steps,
            "flow.steps_per_s": steps / t["flow.boundary_D"] if steps else 0.0,
            "flow.traces": flow_counts.get("traces", 0),
            "flow.splits": flow_counts.get("splits", 0),
            "flow.events.F": flow_counts.get("events.F", 0),
            "flow.events.B": flow_counts.get("events.B", 0),
            "flow.select_k_pm_s": t["flow.select_k_pm"],
            "flow.context_s": t["flow.context"],
            "knots.spline_calls": c["knots.spline"],
            "knots.eval_multi_2pt_us": micro["2pt_us"],
            "knots.eval_multi_64pt_us": micro["64pt_us"],
            "knots.linking_number_s": t["knots.linking_number"],
            "knots.build_curve_s": t["knots.build_curve"],
            "knots.perturb_s": perturb,
            "energy.census_s": t["pipeline.attempt"] + t["energy.census"],
            "energy.census_calls": c["pipeline.attempt"] + c["energy.census"],
            "pipeline.attempts": c["pipeline.attempt"],
            "pipeline.retries.basepoint": c["retry.basepoint"],
            "pipeline.retries.framing": c["retry.framing"],
            "pipeline.retries.knot": c["retry.knot"],
            "pipeline.genericity_check_s": t["pipeline.genericity_check"],
            "pipeline.simplify_s": t["pipeline.simplify"],
            "incidence.chord_knot_s": t["incidence.chord_knot"],
            "incidence.chord_knot_calls": c["incidence.chord_knot"],
            "incidence.candidate_segments": c["incidence.candidate_segments"],
            "incidence.hit_ratio": c["incidence.hits"] / refined if refined else 0.0,
            "incidence.framing_event_calls": c["incidence.framing_event"],
            "seifert.rules_s": t["seifert.rules"],
            "ring.framing_transform_s": t["ring.framing_transform"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def eval_multi_microbench(curve):
    """Median cost in microseconds of one ``eval_multi`` call at 2 and 64 points.

    Runs on the unwrapped spline after a warm-up, so it measures the kernel
    alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    spline = curve.spline
    out = {}
    for n in (2, 64):
        params = rng.random(n) * curve.L
        for _ in range(200):
            spline.eval_multi(params)
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(2000):
                spline.eval_multi(params)
            samples.append((time.perf_counter() - start) / 2000 * 1e6)
        samples.sort()
        out[f"{n}pt_us"] = samples[len(samples) // 2]
    return out
