"""End-to-end pipeline on the unknot family and genericity machinery."""

import json
from pathlib import Path

import numpy as np
import pytest

from cordalg import pipeline
from cordalg.energy import find_critical_points
from cordalg.errors import (
    GenericityExhausted,
    GenericityViolation,
    InvariantLost,
    SpecError,
    UnsupportedFraming,
)
from cordalg.knots import build_curve, build_framing, ellipse_points
from cordalg.pipeline import (
    compare,
    compute_cord_algebra,
    derive_seifert_rules,
    genericity_check,
    simplify,
)
from cordalg.ring import Presentation, parse, serialize

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
        assert compare(res.presentation, reference) == "identical", shift


def test_unknot_other_embeddings(unknot_result):
    reference = unknot_result.presentation
    for spec in ({"type": "ellipse", "a": 3, "b": 1},
                 {"type": "ellipse", "a": 1.7, "b": 0.8}):
        res = compute_cord_algebra(spec, framing="seifert")
        assert compare(res.presentation, reference) == "identical", spec


def test_unknot_perturbed_embedding(unknot_result):
    # mildly non-elliptical planar convex curve
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    r = 1.0 + 0.08 * np.cos(3 * th) + 0.04 * np.sin(2 * th)
    pts = np.stack([2 * r * np.cos(th), 1 * r * np.sin(th), np.zeros_like(th)],
                   axis=1)
    res = compute_cord_algebra({"type": "samples", "points": pts.tolist(),
                                "basepoint_shift": 0.4}, framing="seifert")
    assert compare(res.presentation, unknot_result.presentation) == "identical"


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
    raise InvariantLost; record every attempt and every draw."""
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
        return f"perturbed-{seed}", framing, reason

    monkeypatch.setattr(pipeline, "_run_once", run_once)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_for)
    return runs, draws


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
    from cordalg.tolerances import Tolerances
    runs, draws = _forced_retries(monkeypatch, perturb_fails=99)
    with pytest.raises(GenericityExhausted, match="forced"):
        compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1},
                             tol=Tolerances(max_perturb=3))
    assert len(runs) == 1
    # the fourth draw could never be run, so it is not made
    assert [seed for _m, seed in draws] == [1, 2, 3]


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
    """The degenerate circle spends the whole budget: eight censuses, eight
    draws, and no ninth draw that no census would use."""
    runs, draws = [], []
    run_once, perturb_for = pipeline._run_once, pipeline._perturb_for

    def run_spy(*args):
        runs.append(args[0])
        return run_once(*args)

    def perturb_spy(*args):
        draws.append(args[-1])
        return perturb_for(*args)

    monkeypatch.setattr(pipeline, "_run_once", run_spy)
    monkeypatch.setattr(pipeline, "_perturb_for", perturb_spy)
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "circle.json").read_text())
    with pytest.raises(GenericityExhausted):
        compute_cord_algebra(spec)
    assert draws == list(range(1, 9))
    assert len(runs) == 8


def test_setup_rotates_braid_framings_once():
    curve, frame, rules = pipeline.setup_knot({"type": "braid", "word": [1, 1, 1]})
    assert curve.metadata["layout"] == "braid"
    assert frame.rotation == 0.15 and rules is None
    spec = json.loads((Path(__file__).resolve().parent.parent / "specs"
                       / "trefoil.json").read_text())
    _curve, frame, _rules = pipeline.setup_knot(spec)
    assert frame.rotation == -0.15
    _curve, frame, _rules = pipeline.setup_knot({"type": "ellipse", "a": 2, "b": 1})
    assert frame.rotation == 0.0


def test_setup_refuses_a_framing_key():
    with pytest.raises(SpecError, match="framing"):
        compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1,
                              "framing": {"kind": "custom", "table": []}})


def test_spec_seifert_rules_replace_the_derivation():
    """The spec's seifert_rules key is the one way to override the sweep."""
    res = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1,
                                "seifert_rules": [["g1_s", "u g1_s"]]})
    assert res.raw.metadata["framing_transform"]["rules"] == {"g1_s": "u g1_s"}
    assert res.presentation.relations == [UNKNOT_RELATION]


def test_seifert_rules_refuse_non_braid_layout():
    curve = build_curve({"type": "ellipse", "a": 2, "b": 1})
    assert curve.metadata.get("layout") != "braid"
    assert derive_seifert_rules(curve, None, 0) == []
    assert issubclass(UnsupportedFraming, SpecError)
    with pytest.raises(UnsupportedFraming, match="lk = -3"):
        derive_seifert_rules(curve, None, -3)
