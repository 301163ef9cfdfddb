"""End-to-end pipeline on the unknot family and genericity machinery."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cordalg import pipeline
from cordalg.energy import find_critical_points
from cordalg.errors import (
    DegenerateCritical,
    GenericityExhausted,
    GenericityViolation,
    InvariantLost,
    SpecError,
    UnsupportedFraming,
)
from cordalg.knots import (
    _SPEC_KEYS,
    BraidLayoutSpec,
    KnotCurve,
    build_curve,
    build_framing,
    ellipse_points,
    linking_number,
)
from cordalg.pipeline import (
    compute_cord_algebra,
    derive_seifert_rules,
    genericity_check,
    simplify,
)
from cordalg.ring import Presentation, parse, serialize
from cordalg.seifert import crossing_passage_params

UNKNOT_RELATION = parse("1 - u - l + l u")  # (l-1)(u-1)


@pytest.fixture(scope="module")
def unknot_result():
    return compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1},
                                framing="seifert", seed=0)


def test_unknot_presentation_golden(unknot_result):
    p = unknot_result.presentation
    assert p.generators == []
    assert len(p.relations) == 1
    assert p.relations[0] == UNKNOT_RELATION


def test_unknot_census_and_linking(unknot_result):
    assert unknot_result.census == (0, 2, 2)
    assert unknot_result.linking == 0
    assert unknot_result.D_M.is_zero()


def test_mirrored_saddles_are_recorded(unknot_result):
    """h1_t is derived from h1_s's traces; only the result records it."""
    assert unknot_result.metadata["mirrored"] == {"h1_t": "h1_s"}
    assert "mirrored" not in unknot_result.presentation.metadata
    assert set(unknot_result.traces) == {"h1_s", "h1_t"}


def test_unknot_runs_are_deterministic():
    a = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1}, seed=3)
    b = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1}, seed=3)
    assert json.dumps(a.presentation.to_dict(), sort_keys=True) == \
        json.dumps(b.presentation.to_dict(), sort_keys=True)


def test_seed_changes_do_not_change_presentation(unknot_result):
    other = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1},
                                 framing="seifert", seed=11)
    assert [serialize(r) for r in other.presentation.relations] == \
        [serialize(r) for r in unknot_result.presentation.relations]


def test_unknot_basepoint_independence(unknot_result):
    reference = unknot_result.presentation
    for shift in (0.13, 0.31, 0.55, 0.72, 0.91):
        res = compute_cord_algebra(
            {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": shift},
            framing="seifert")
        assert (res.presentation.generators, res.presentation.relations) == \
            (reference.generators, reference.relations), shift


def test_unknot_other_embeddings(unknot_result):
    reference = unknot_result.presentation
    for spec in ({"type": "ellipse", "a": 3, "b": 1},
                 {"type": "ellipse", "a": 1.7, "b": 0.8}):
        res = compute_cord_algebra(spec, framing="seifert")
        assert (res.presentation.generators, res.presentation.relations) == \
            (reference.generators, reference.relations), spec


def test_unknot_perturbed_embedding(unknot_result):
    # mildly non-elliptical planar convex curve
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    r = 1.0 + 0.08 * np.cos(3 * th) + 0.04 * np.sin(2 * th)
    pts = np.stack([2 * r * np.cos(th), 1 * r * np.sin(th), np.zeros_like(th)],
                   axis=1)
    res = compute_cord_algebra({"type": "samples", "points": pts.tolist(),
                                "basepoint_shift": 0.4}, framing="seifert")
    reference = unknot_result.presentation
    assert (res.presentation.generators, res.presentation.relations) == \
        (reference.generators, reference.relations)


def test_genericity_check_flags_basepoint_on_critical_endpoint():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1})
    points = find_critical_points(curve)
    saddle = next(p for p in points if p.index == 1)
    moved = curve.shift_basepoint(saddle.s)
    framing = build_framing(moved)
    report = genericity_check(moved, framing, find_critical_points(moved))
    assert any(kind == "B" for (_lab, kind, _msg) in report)


def test_genericity_check_clean_on_generic_basepoint():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1,
                         "basepoint_shift": 0.875})
    framing = build_framing(curve)
    report = genericity_check(curve, framing, find_critical_points(curve))
    assert report == []


def test_raw_relations_before_simplify(unknot_result):
    raw = sorted(serialize(r) for r in unknot_result.raw.relations)
    expect = sorted(serialize(parse(t)) for t in
                    ("1 - u - l^-1 + l^-1 u", "-1 + u + l - l u"))
    assert raw == expect


def test_simplify_eliminations_are_recorded():
    p = Presentation(["a", "b"],
                     [parse("a - u b u"), parse("b - 1 + u")])
    out = simplify(p)
    assert out.generators == []
    assert "a" in out.metadata["eliminated"]
    assert "b" in out.metadata["eliminated"]


def _forced_retries(monkeypatch, perturb_fails):
    """Make the first attempt fail and the first ``perturb_fails`` draws
    raise InvariantLost; record every attempt and every draw.  A drawn
    curve is a name, so its linking number is stubbed."""
    runs, draws = [], []

    def run_once(curve, *args):
        runs.append(curve)
        if len(runs) == 1:
            raise GenericityViolation("forced", reason="knot")
        return "result"

    def perturb_for(reason, curve, framing, magnitude, seed):
        draws.append((magnitude, seed))
        if len(draws) <= perturb_fails:
            raise InvariantLost("forced")
        return f"perturbed-{seed}", framing

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_for)
    monkeypatch.setattr(pipeline, "linking_number", lambda curve, frame: 0)
    return runs, draws


def test_genericity_violation_names_its_reason():
    """Every raise names its retry reason; there is no default."""
    with pytest.raises(TypeError):
        GenericityViolation("no reason")
    assert GenericityViolation("forced", reason="framing").reason == "framing"


def test_invariant_lost_redraws_without_rerunning(monkeypatch):
    runs, draws = _forced_retries(monkeypatch, perturb_fails=1)
    out = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1}, seed=5)
    assert out == "result"
    # the unchanged input is not rerun: one failed attempt, one on the
    # second draw, which is half as large and uses the next seed
    assert len(runs) == 2 and runs[1] == "perturbed-7"
    m = draws[0][0]
    assert draws == [(m, 6), (m / 2, 7)]


def test_invariant_lost_redraws_spend_the_budget(monkeypatch):
    runs, draws = _forced_retries(monkeypatch, perturb_fails=99)
    with pytest.raises(GenericityExhausted, match="forced"):
        compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1})
    assert len(runs) == 1
    # the ninth draw could never be run, so it is not made
    assert [seed for _m, seed in draws] == list(range(1, 9))


def test_first_knot_perturbation_is_accepted(monkeypatch):
    runs, draws = [], []
    perturb_for = pipeline._perturb_for

    def run_once(curve, *args):
        runs.append(curve)
        if len(runs) == 1:
            raise GenericityViolation("forced", reason="knot")
        return "result"

    def spy(reason, curve, framing, magnitude, seed):
        try:
            out = perturb_for(reason, curve, framing, magnitude, seed)
        except InvariantLost:
            draws.append((magnitude, "refused"))
            raise
        draws.append((magnitude, "accepted"))
        return out

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", spy)
    assert compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1}) == "result"
    assert [outcome for _m, outcome in draws] == ["accepted"]
    assert draws[0][0] < runs[0].clearance / 4
    assert runs[1] is not runs[0]


def test_no_draw_after_budget_spent(monkeypatch):
    """A census that fails on every attempt spends the whole budget: eight
    draws, each run once, and no ninth draw that no census would use."""
    runs, draws = [], []
    perturb_for = pipeline._perturb_for

    def run_once(curve, *args):
        runs.append(curve)
        raise DegenerateCritical("forced")

    def perturb_spy(reason, curve, framing, magnitude, seed):
        draws.append(seed)
        return perturb_for(reason, curve, framing, magnitude, seed)

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_spy)
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "circle.json").read_text())
    with pytest.raises(GenericityExhausted, match="forced"):
        compute_cord_algebra(spec)
    assert draws == list(range(1, 9))
    assert len(runs) == 9


def test_circle_computes_the_unknot_after_one_knot_draw():
    """The round circle's census is a Bott family of diameters; the first
    knot bump covers more than half the circle, breaks every diameter and
    gives the unknot's presentation."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "circle.json").read_text())
    res = compute_cord_algebra(spec)
    assert res.census == (0, 2, 2)
    assert res.presentation.generators == []
    assert len(res.presentation.relations) == 1
    assert res.presentation.relations[0] == UNKNOT_RELATION
    assert res.metadata["retries"] == [
        {"attempt": 1, "reason": "knot", "error": "DegenerateCritical",
         "magnitude": build_curve(spec).clearance / 8.0, "seed": 1,
         "outcome": "accepted"},
    ]


def test_basepoint_retry_frames_its_own_curve(monkeypatch):
    """After a basepoint retry the framing is rebuilt on the shifted curve,
    so nu is normal to that curve's own tangents.  The shift is drawn from
    [L/16, L/8)."""
    attempts, shifts = [], []
    shift_basepoint = KnotCurve.shift_basepoint

    def run_once(curve, frame, *args):
        attempts.append((curve, frame))
        if len(attempts) == 1:
            raise GenericityViolation("forced", reason="basepoint")
        return "result"

    def shift_spy(curve, delta):
        shifts.append(delta / curve.L)
        return shift_basepoint(curve, delta)

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "trefoil.json").read_text())
    monkeypatch.setattr(KnotCurve, "shift_basepoint", shift_spy)
    assert compute_cord_algebra(spec) == "result"
    (first, _), (curve, frame) = attempts
    assert curve is not first
    # the spec's own basepoint_shift, then the retry's draw
    assert len(shifts) == 2
    assert 1 / 16 <= abs(shifts[1]) < 1 / 8
    assert frame.curve is curve
    probe = np.linspace(0.0, curve.L, 64, endpoint=False)
    dots = np.einsum("ij,ij->i", frame.nu(probe), curve.unit_tangent(probe))
    assert np.max(np.abs(dots)) < 1e-9


def test_retry_log_records_the_ellipse_basepoint_draw():
    """The ellipse's first attempt ends at the basepoint; the log holds that
    one draw, and the presentation's metadata stays without it."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "ellipse.json").read_text())
    res = compute_cord_algebra(spec)
    assert res.metadata["retries"] == [
        {"attempt": 1, "reason": "basepoint", "error": "GenericityViolation",
         "magnitude": build_curve(spec).L / 8.0, "seed": 1,
         "outcome": "accepted"},
    ]
    assert "retries" not in res.presentation.metadata


def test_framing_retry_turns_only_the_framing(monkeypatch):
    """A framing retry draws a framing turn of at most 0.3 with the next
    seed on the same curve object, and lk is not counted again."""
    attempts, counted = [], []
    linking_number = pipeline.linking_number

    def run_once(curve, frame, *args):
        attempts.append((curve, frame, list(args[-1])))
        if len(attempts) == 1:
            raise GenericityViolation("forced", reason="framing")
        return "result"

    def count(curve, frame):
        counted.append(curve)
        return linking_number(curve, frame)

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "linking_number", count)
    assert compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1}) == "result"
    (first, frame0, _), (curve, frame, log) = attempts
    assert log == [{"attempt": 1, "reason": "framing",
                    "error": "GenericityViolation", "magnitude": 0.3,
                    "seed": 1, "outcome": "accepted"}]
    assert curve is first and frame.curve is first
    assert 0.0 < abs(frame.rotation - frame0.rotation) <= 0.3
    assert counted == [first]


def test_retry_log_lists_refused_draws(monkeypatch):
    """A refused draw is logged with the error that made the run retry, and
    each attempt's run receives the log so far."""
    logs = []

    def run_once(curve, *args):
        logs.append(list(args[-1]))
        if len(logs) == 1:
            raise DegenerateCritical("forced")
        return "result"

    def perturb_for(reason, curve, framing, magnitude, seed):
        if seed == 1:
            raise InvariantLost("forced")
        return curve, framing

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_for)
    spec = {"type": "ellipse", "a": 2, "b": 1}
    assert compute_cord_algebra(spec) == "result"
    m = build_curve(spec).clearance / 8.0
    assert logs == [[], [
        {"attempt": 1, "reason": "knot", "error": "DegenerateCritical",
         "magnitude": m, "seed": 1, "outcome": "refused"},
        {"attempt": 2, "reason": "knot", "error": "DegenerateCritical",
         "magnitude": m / 2, "seed": 2, "outcome": "accepted"},
    ]]


def test_knot_draws_log_halving_magnitudes(monkeypatch):
    """Every knot draw, refused or run, is logged with its seed and half the
    magnitude of the draw before, starting from clearance / 8."""
    logs = []

    def run_once(curve, *args):
        logs.append(list(args[-1]))
        if len(logs) < 3:
            raise DegenerateCritical("forced")
        return "result"

    def perturb_for(reason, curve, framing, magnitude, seed):
        if seed == 7:
            raise InvariantLost("forced")
        return curve, framing

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_for)
    spec = {"type": "ellipse", "a": 2, "b": 1}
    assert compute_cord_algebra(spec, seed=5) == "result"
    m = build_curve(spec).clearance / 8.0
    assert [(r["magnitude"], r["seed"], r["outcome"]) for r in logs[-1]] == [
        (m, 6, "accepted"), (m / 2, 7, "refused"), (m / 4, 8, "accepted")]


def test_setup_rotates_braid_framings_once():
    """An absent or null rotation takes the layout's default; an explicit
    one, 0.0 included, is kept."""
    curve, frame = pipeline.setup_knot({"type": "braid", "word": [1, 1, 1]})
    assert curve.metadata["layout"] == "braid"
    assert frame.rotation == 0.15
    for rotation, expect in ((0.0, 0.0), (None, 0.15)):
        _curve, frame = pipeline.setup_knot(
            {"type": "braid", "word": [1, 1, 1], "framing_rotation": rotation})
        assert frame.rotation == expect
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "trefoil.json").read_text())
    _curve, frame = pipeline.setup_knot(spec)
    assert frame.rotation == -0.15
    _curve, frame = pipeline.setup_knot({"type": "ellipse", "a": 2, "b": 1})
    assert frame.rotation == 0.0


def test_setup_refuses_a_framing_key():
    with pytest.raises(SpecError, match="framing"):
        compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1,
                              "framing": {"kind": "custom", "table": []}})


def test_seifert_rules_refuse_non_braid_layout():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1})
    assert curve.metadata.get("layout") != "braid"
    assert derive_seifert_rules(curve, None, 0) == []
    assert issubclass(UnsupportedFraming, SpecError)
    with pytest.raises(UnsupportedFraming, match="lk = -3"):
        derive_seifert_rules(curve, None, -3)


def test_unsupported_seifert_request_is_refused_before_the_census(monkeypatch):
    """The torus knot (2,3) has lk = -3 off a braid layout: the Seifert
    framing is refused from lk alone, before any census runs."""
    calls = []

    def census(curve):
        calls.append(curve)
        return find_critical_points(curve)

    monkeypatch.setattr(pipeline, "find_critical_points", census)
    with pytest.raises(UnsupportedFraming, match="lk = -3"):
        compute_cord_algebra(json.loads(
            (Path(__file__).resolve().parent.parent / "specs"
             / "torus_2_3.json").read_text()))
    assert calls == []


def test_linking_number_is_computed_once_per_knot(monkeypatch):
    """lk is counted once per knot: the ellipse's basepoint retry keeps it,
    and the circle's knot redraw counts it again on the new curve."""
    curves = []
    linking_number = pipeline.linking_number

    def counted(curve, frame):
        curves.append(curve)
        return linking_number(curve, frame)

    monkeypatch.setattr(pipeline, "linking_number", counted)
    specs = Path(__file__).resolve().parent.parent / "specs"
    res = compute_cord_algebra(json.loads((specs / "ellipse.json").read_text()))
    assert [r["reason"] for r in res.metadata["retries"]] == ["basepoint"]
    assert len(curves) == 1
    curves.clear()
    res = compute_cord_algebra(json.loads((specs / "circle.json").read_text()))
    assert [r["reason"] for r in res.metadata["retries"]] == ["knot"]
    assert len(curves) == 2 and curves[0] is not curves[1]


def _radial_passage_params(curve, layout):
    """Reference crossing sites, re-derived from the drawn curve.

    Per slot, the samples whose elliptic angle lies nearest the slot centre
    give one passage per loop of the closure; the passage with the largest
    radial offset from the ellipse is the over-strand.
    """
    a, b = layout.a, layout.b
    loops = layout.strands
    n = len(curve.samples)
    params = np.arange(n) * (curve.L / n)
    pts = curve.point(params)
    theta = np.arctan2(pts[:, 1] / b, pts[:, 0] / a) % (2.0 * math.pi)
    chosen = []
    for (a_k, b_k) in layout.slots():
        center = 0.5 * (a_k + b_k)
        close = np.abs((theta - center + math.pi) % (2 * math.pi) - math.pi)
        hits = []
        for idx in np.argsort(close)[: 8 * loops]:
            p = params[idx]
            if all(curve.circ_dist(p, q) > 0.05 * curve.L for q in hits):
                hits.append(p)
            if len(hits) == loops:
                break
        radial = []
        for p in hits:
            x, y, _z = curve.point(p)
            th = math.atan2(y / b, x / a)
            n_hat = np.array([b * math.cos(th), a * math.sin(th), 0.0])
            n_hat /= np.linalg.norm(n_hat)
            base = np.array([a * math.cos(th), b * math.sin(th), 0.0])
            radial.append(float((curve.point(p) - base) @ n_hat))
        chosen.append(hits[int(np.argmax(radial))])
    return chosen


@pytest.mark.parametrize("word", [None, [1, 1, 1], [-1, -1, -1]])
def test_crossing_passages_match_the_radial_derivation(word):
    """The over-passages the layout records land within two sample spacings
    of the ones re-derived from the drawn curve, on the shipped trefoil, the
    default-layout trefoil and its mirror."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "trefoil.json").read_text())
    if word is not None:
        spec = {"type": "braid", "word": word}
    keys = ("strands", "a", "b", "spacing", "modulation", "theta_S", "quarter")
    layout = BraidLayoutSpec(word=list(spec["word"]),
                             **{k: spec[k] for k in keys if k in spec})
    curve = build_curve(spec)
    step = curve.L / len(curve.samples)
    new = crossing_passage_params(curve)
    ref = _radial_passage_params(curve, layout)
    assert len(new) == len(ref) == 3
    for p, q in zip(new, ref):
        assert round(curve.circ_dist(p, q) / step) <= 2


@pytest.mark.parametrize("spec", [
    {"type": "samples", "points": ellipse_points(2.0, 1.0, n=512).tolist()},
    {"type": "circle", "r": 1.0, "n": 256},
    {"type": "ellipse", "a": 2.0, "b": 1.0, "n": 512},
    {"type": "torus_knot", "p": 2, "q": 3, "R": 3.0, "r": 1.0},
    {"type": "braid", "word": [1, 1, 1], "strands": 2, "a": 3.0, "b": 2.0,
     "spacing": 0.12, "modulation": 0.3, "theta_S": math.radians(265.0),
     "quarter": [math.radians(272.0), math.radians(358.0)]},
], ids=lambda spec: spec["type"])
def test_every_spec_key_builds(spec):
    """A spec of each type that sets every key ``_SPEC_KEYS`` allows it
    builds, so the table names no key that the build would refuse."""
    spec = {**spec, "basepoint_shift": 0.25, "framing_rotation": 0.1}
    assert set(spec) == _SPEC_KEYS[spec["type"]]
    _curve, frame = pipeline.setup_knot(spec)
    assert frame.rotation == 0.1


@pytest.mark.parametrize("spec", [
    None,
    {"type": "braid", "word": [1, 1, 1]},
    {"type": "braid", "word": [-1, -1, -1]},
    {"type": "braid", "word": [1] * 5},
    {"type": "braid", "word": [1, -1, 1]},
    {"type": "braid", "word": [1, 1, 1], "spacing": 0.14},
    {"type": "braid", "word": [1, 1, 1], "modulation": 0.28},
], ids=["trefoil.json", "[1,1,1]", "[-1,-1,-1]", "[1]*5", "[1,-1,1]",
        "spacing 0.14", "modulation 0.28"])
def test_braid_linking_number_is_the_writhe(spec):
    """On a braid closure lk is the sum of the crossing signs, and the layout
    records one over-passage per crossing, so |lk| never exceeds the number
    of sites that the Seifert windings sweep to."""
    if spec is None:
        spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                           / "trefoil.json").read_text())
    curve, frame = pipeline.setup_knot(spec)
    assert linking_number(curve, frame) == sum(spec["word"])
    assert len(curve.metadata["over_passages"]) == len(spec["word"])
