"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a pass line so ``pytest -v tests/test_acceptance.py`` reads
as the acceptance report.  The trefoil criteria are embedding-pinned: they
run on the canonical braid layout shipped in specs/trefoil.json.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cordalg import flow
from cordalg.energy import (
    cord_length,
    energy,
    find_critical_points,
    gradient,
    hessian,
    mirror_partners,
)
from cordalg.flow import (
    FlowContext,
    _torus_delta,
    _Tracer,
    boundary_D,
    mirror_trace,
    select_k_pm,
)
from cordalg.incidence import f_arc_ends, framing_event, tangent_boundary_cords
from cordalg.knots import build_curve, build_framing
from cordalg.pipeline import compute_cord_algebra
from cordalg.ring import parse, serialize
from cordalg.seifert import winding_sweep_rules
from cordalg.tolerances import DEFAULT_TOL

_SPECS = Path(__file__).resolve().parent.parent / "specs"
TREFOIL_SPEC = json.loads((_SPECS / "trefoil.json").read_text())
ELLIPSE_SPEC = json.loads((_SPECS / "ellipse.json").read_text())

# radius of the F^s arc-end circle around a tangency cord, as a fraction of L
F_ARC_RADIUS = 10 * 1e-4

UNKNOT_RELATION = "1 - u - l + l u"          # (l-1)(u-1)

TREFOIL_EQ_1_4 = [
    "-s_s + u s_t l^-1 u^-2",                # D(S^s)    eq (1)
    "-s_t + l u^2 s_s u^-1",                 # D(S^t)    eq (2)
    "-u s_s + 1 - u + u s_t u^-1 s_s u^-1",  # D(k12^s)  eq (3)
    "s_t u^-1 - 1 + u + u s_t s_s u^-1",     # D(k12^t)  eq (4)
]

TREFOIL_FINAL = [
    "s l u^6 - l u^6 s",
    "1 - u - s + l u^5 s u^-3 s u^-1",
    "-1 + u + l u^4 s u^-2 + l u^5 s u^-2 s u^-1",
]


@pytest.fixture(scope="module")
def unknot_result():
    t0 = time.time()
    res = compute_cord_algebra({"type": "ellipse", "a": 2, "b": 1},
                               framing="seifert", seed=0)
    res.metadata["runtime"] = time.time() - t0
    return res


@pytest.fixture(scope="module")
def trefoil_result():
    t0 = time.time()
    res = compute_cord_algebra(dict(TREFOIL_SPEC), framing="seifert", seed=0)
    res.metadata["runtime"] = time.time() - t0
    return res


def _swap_orientations(e):
    from cordalg.ring import AlgebraElement
    tmp = AlgebraElement.gen("tmp_g")
    return (e.substitute({"s_s": tmp})
             .substitute({"s_t": AlgebraElement.gen("s_s")})
             .substitute({"tmp_g": AlgebraElement.gen("s_t")}))


def test_criterion_1_unknot_golden(unknot_result):
    """compute(ellipse(2,1)) -> no generators, single relation (l-1)(u-1)."""
    p = unknot_result.presentation
    assert p.generators == []
    assert len(p.relations) == 1
    assert p.relations[0] == parse(UNKNOT_RELATION)
    assert unknot_result.metadata["runtime"] < 10.0
    print("\n[pass] criterion 1: unknot golden presentation "
          f"({unknot_result.metadata['runtime']:.1f}s)")


def test_criterion_2a_trefoil_census(trefoil_result):
    """2 off-diagonal index-0 cords, 10 index-1, Euler-complete."""
    assert trefoil_result.census == (2, 10, 8)
    assert trefoil_result.linking == 3
    print("\n[pass] criterion 2a: trefoil census (2, 10, 8), lk = 3")


def test_criterion_2b_trefoil_key_relations(trefoil_result):
    """The four key boundary values (paper eqs (1)-(4)) appear exactly."""
    values = list(trefoil_result.boundary_values.values())
    golden = [parse(t) for t in TREFOIL_EQ_1_4]
    golden_sw = [_swap_orientations(g) for g in golden]
    direct = sum(1 for g in golden if any(v == g for v in values))
    swapped = sum(1 for g in golden_sw if any(v == g for v in values))
    assert max(direct, swapped) == 4, (
        f"matched {max(direct, swapped)}/4 key relations")
    print("\n[pass] criterion 2b: trefoil boundary values eqs (1)-(4) exact")


def test_criterion_2b_full_boundary_multiset(trefoil_result):
    """All ten boundary values match the worked example as a multiset."""
    from tests.test_ring import TREFOIL_D
    values = list(trefoil_result.boundary_values.values())
    golden = [parse(t) for t in TREFOIL_D.values()]
    golden_sw = [_swap_orientations(g) for g in golden]

    def count(golds):
        used, hits = set(), 0
        for v in values:
            for i, g in enumerate(golds):
                if i not in used and v == g:
                    used.add(i)
                    hits += 1
                    break
        return hits
    assert max(count(golden), count(golden_sw)) == 10
    print("\n[pass] criterion 2b+: all ten boundary values exact")


def test_criterion_2c_trefoil_final_presentation(trefoil_result):
    """After framing transform and simplify: the three-relation presentation."""
    p = trefoil_result.presentation
    assert p.generators == ["s"]
    got = sorted(serialize(r) for r in p.relations)
    assert got == sorted(TREFOIL_FINAL)
    assert trefoil_result.metadata["runtime"] < 300.0
    print("\n[pass] criterion 2c: trefoil three-relation presentation "
          f"({trefoil_result.metadata['runtime']:.0f}s)")


def test_trefoil_seifert_sweep_rules(trefoil_result):
    """The pinned winding sweep gives the worked example's rules on the
    trefoil census: s_s -> u^-1 s_s and s_t -> s_t u."""
    curve = build_curve(dict(TREFOIL_SPEC))
    minima = [p for p in trefoil_result.critical_points if p.index == 0]
    rules = winding_sweep_rules(curve, SimpleNamespace(minima=minima),
                                trefoil_result.linking)
    assert [(g, serialize(e)) for g, e in rules] == [
        ("s_s", "u^-1 s_s"), ("s_t", "s_t u")]
    print("\n[pass] trefoil Seifert rules s_s -> u^-1 s_s, s_t -> s_t u")


def test_criterion_3_DM_zero(unknot_result, trefoil_result):
    """D(M) = 0 on every test knot."""
    for spec in ({"type": "ellipse", "a": 3, "b": 1},
                 {"type": "ellipse", "a": 1.7, "b": 0.8}):
        res = compute_cord_algebra(spec, framing="blackboard")
        assert res.D_M.is_zero()
    assert unknot_result.D_M.is_zero()
    assert trefoil_result.D_M.is_zero()
    print("\n[pass] criterion 3: D(M) = 0 on unknot x3 and trefoil")


def test_criterion_4_euler_count(unknot_result, trefoil_result):
    """#Crit0 - #Crit1 + #Crit2 = 0 including the diagonal pair m, M."""
    for res in (unknot_result, trefoil_result):
        n0, n1, n2 = res.census
        assert (n0 + 1) - (n1 + 1) + n2 == 0
    print("\n[pass] criterion 4: Euler count closes on all test knots")


@pytest.mark.parametrize("spec_name,spec", [
    ("ellipse", {"type": "ellipse", "a": 2, "b": 1}),
    ("trefoil", None),
])
def test_criterion_5_derivative_checks(spec_name, spec):
    """Gradient vs FD < 1e-6 relative, Hessian < 1e-4, 100 random cords."""
    curve = build_curve(spec if spec else dict(TREFOIL_SPEC))
    rng = np.random.default_rng(42)
    h_g = 1e-5 * curve.L
    h_h = 1e-6 * curve.L
    n_done = 0
    while n_done < 100:
        s, t = rng.random(2) * curve.L
        if curve.circ_dist(s, t) < 0.05 * curve.L:
            continue
        g = gradient(curve, s, t)
        fd_g = np.array([
            (energy(curve, s + h_g, t) - energy(curve, s - h_g, t)) / (2 * h_g),
            (energy(curve, s, t + h_g) - energy(curve, s, t - h_g)) / (2 * h_g),
        ])
        assert np.linalg.norm(fd_g - g) / max(np.linalg.norm(g), 1e-12) < 1e-6
        H = hessian(curve, s, t)
        fd_h = np.empty((2, 2))
        fd_h[:, 0] = (gradient(curve, s + h_h, t) - gradient(curve, s - h_h, t)) / (2 * h_h)
        fd_h[:, 1] = (gradient(curve, s, t + h_h) - gradient(curve, s, t - h_h)) / (2 * h_h)
        fd_h = 0.5 * (fd_h + fd_h.T)
        assert np.linalg.norm(fd_h - H) / max(np.linalg.norm(H), 1e-12) < 1e-4
        n_done += 1
    print(f"\n[pass] criterion 5: derivative checks on {spec_name} (100 cords)")


def test_criterion_6_energy_monotone_and_split_contract(trefoil_result):
    """E strictly decreases at every accepted step; splits shorten children."""
    floor = DEFAULT_TOL.min_split_decrease
    curve = build_curve(dict(TREFOIL_SPEC))

    def walk(tr):
        es = [energy(curve, s, t) for (_tau, s, t) in tr.path]
        assert all(b < a for a, b in zip(es, es[1:]))
        for sp in tr.splits:
            # the split cord (s, t) has children (s, u) and (u, t)
            c1, c2 = sp["children"]
            parent_len = cord_length(curve, c1.initial[0], c2.initial[1])
            l1, l2 = cord_length(curve, *c1.initial), cord_length(curve, *c2.initial)
            assert l1 <= parent_len - floor * curve.L
            assert l2 <= parent_len - floor * curve.L
            walk(c1)
            walk(c2)

    n_splits = 0
    for trp, trm in trefoil_result.traces.values():
        walk(trp)
        walk(trm)
        n_splits += len(trp.splits) + len(trm.splits)
    assert n_splits > 0
    print(f"\n[pass] criterion 6: energy monotone, {n_splits} splits all contract")


def _tree_counts(tr):
    """(traces, accepted steps, splits) of a trace and its split children."""
    traces, steps, splits = 1, len(tr.path) - 1, len(tr.splits)
    for sp in tr.splits:
        for child in sp["children"]:
            t, st, sp_n = _tree_counts(child)
            traces, steps, splits = traces + t, steps + st, splits + sp_n
    return traces, steps, splits


def test_trefoil_flow_step_count(trefoil_result):
    """The linearly implicit step flows all ten saddles in few steps."""
    totals = np.zeros(3, dtype=int)
    for trp, trm in trefoil_result.traces.values():
        totals += _tree_counts(trp)
        totals += _tree_counts(trm)
    traces, steps, splits = totals
    assert (traces, splits) == (68, 24)
    assert steps < 7_000
    print(f"\n[pass] trefoil flow: {steps} accepted steps, {traces} traces, "
          f"{splits} splits")


@pytest.fixture(scope="module")
def ellipse_result():
    return compute_cord_algebra(dict(ELLIPSE_SPEC), framing="seifert", seed=0)


def test_ellipse_flow_step_count(ellipse_result):
    """Away from knot branches a step moves the cord three screen steps."""
    totals = np.zeros(3, dtype=int)
    for trp, trm in ellipse_result.traces.values():
        totals += _tree_counts(trp)
        totals += _tree_counts(trm)
    traces, steps, splits = totals
    assert (traces, splits) == (4, 0)
    assert steps < 300
    print(f"\n[pass] ellipse flow: {steps} accepted steps, {traces} traces")


def _tree_paths(tr):
    """The path of a trace and of each split child below it."""
    yield tr.path
    for sp in tr.splits:
        for child in sp["children"]:
            yield from _tree_paths(child)


@pytest.mark.parametrize("name", ["trefoil", "ellipse"])
def test_steps_stay_within_the_branch_screen(name, trefoil_result, ellipse_result):
    """Every accepted step moves the cord at most the reach on the torus,
    and a chord point moved that far stays inside the screen radius, so no
    knot branch reaches the chord unscreened.  A basepoint retry keeps L
    and the sample count, so the first attempt's context has the same
    screen as the accepted one."""
    spec, result = {"trefoil": (TREFOIL_SPEC, trefoil_result),
                    "ellipse": (ELLIPSE_SPEC, ellipse_result)}[name]
    curve = build_curve(dict(spec))
    ctx = FlowContext(curve, build_framing(curve), [])
    assert ctx.reach * (1.0 + DEFAULT_TOL.tol_arc) < ctx.branch_radius
    longest = 0.0
    for pair in result.traces.values():
        for tr in pair:
            for path in _tree_paths(tr):
                for (_, s0, t0), (_, s1, t1) in zip(path, path[1:]):
                    d = math.hypot(*_torus_delta((s1, t1), (s0, t0), curve.L))
                    longest = max(longest, d)
    # the slack covers the rounding of the wrap onto the torus
    assert 0.0 < longest <= ctx.reach * (1.0 + 1e-12)
    print(f"\n[pass] {name}: longest step {longest / ctx.screen.step:.3f} "
          f"screen steps, reach {ctx.reach / ctx.screen.step:.3f}")


def test_trefoil_takes_no_retry(trefoil_result):
    """The pinned trefoil computes on its first attempt: the retry log is empty."""
    assert trefoil_result.metadata["retries"] == []


def test_split_budget_is_per_boundary_value(trefoil_result, monkeypatch):
    """Each saddle has its own split budget: 5 each suffice, 24 in total."""
    monkeypatch.setattr(flow, "DEFAULT_TOL", replace(DEFAULT_TOL, max_splits=5))
    spec = dict(TREFOIL_SPEC)
    curve = build_curve(spec)
    framing = build_framing(curve, rotation=spec.get("framing_rotation", 0.15))
    ctx = FlowContext(curve, framing, find_critical_points(curve))
    assert ctx.split_budget == 5
    total = 0
    for k in ctx.saddles:
        value, trp, trm = boundary_D(curve, framing, k, ctx)
        used = _tree_counts(trp)[2] + _tree_counts(trm)[2]
        assert used <= 5
        assert value == trefoil_result.boundary_values[k.label]
        total += used
    assert total == 24
    print(f"\n[pass] split budget per boundary value ({total} splits in total)")


def _assert_same_tree(a, b):
    """a and b agree exactly, but for chord fractions, where 1 - (1 - tau)
    may differ from tau in the last place."""
    assert (a.initial, a.terminal, a.left, a.right, a.events, a.path) == \
        (b.initial, b.terminal, b.left, b.right, b.events, b.path)
    assert len(a.splits) == len(b.splits)
    for sa, sb in zip(a.splits, b.splits):
        plain = ("time", "sign", "birth_mu", "left", "right")
        assert [sa[k] for k in plain] == [sb[k] for k in plain]
        assert sa["hit"][0] == sb["hit"][0]
        assert sa["hit"][1] == pytest.approx(sb["hit"][1], rel=0, abs=1e-15)
        for ca, cb in zip(sa["children"], sb["children"]):
            _assert_same_tree(ca, cb)


def test_mirror_pairs_on_the_trefoil(trefoil_result):
    """Five saddles are flowed and five derived; mirroring is an involution
    on every trace tree, split children included."""
    res = trefoil_result
    mirrored = res.metadata["mirrored"]
    assert mirrored == {label: label[:-2] + "_s"
                        for label in res.boundary_values if label.endswith("_t")}
    assert len(mirrored) == 5
    partners = mirror_partners(res.critical_points)
    for derived, flowed in mirrored.items():
        assert partners[derived] == flowed
    n_splits = 0
    for trp, trm in res.traces.values():
        for tr in (trp, trm):
            _assert_same_tree(mirror_trace(mirror_trace(tr, partners), partners), tr)
            n_splits += len(tr.splits)
    assert n_splits > 0
    print(f"\n[pass] trefoil mirror pairs: {sorted(mirrored.items())}")


def test_criterion_7_f_symmetry_and_boundary():
    """F start/end symmetry on 1000 cords; dF^s = d^sS by arc-end counts.

    Exactly one F^s arc ends near every tangency cord (one gated sign change
    of F-start on a circle of radius F_ARC_RADIUS L), and circles of
    radius 0.1 L that hold no tangency cord and stay off the diagonal count
    an even number.
    """
    curve = build_curve(dict(TREFOIL_SPEC))
    framing = build_framing(curve, rotation=dict(TREFOIL_SPEC).get(
        "framing_rotation", 0.15))
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        s, t = rng.random(2) * curve.L
        if curve.circ_dist(s, t) < 0.01 * curve.L:
            continue
        a = framing_event(curve, framing, s, t, "start")
        b = framing_event(curve, framing, t, s, "end")
        assert abs(a.value - b.value) < 1e-12 and a.positive == b.positive
        checked += 1
    boundary = tangent_boundary_cords(curve)
    assert len(boundary) == 6
    radius = F_ARC_RADIUS * curve.L
    for s0, t0 in boundary:
        assert f_arc_ends(curve, framing, s0, t0, radius) == 1
    far = 0.1 * curve.L
    counts = []
    while len(counts) < 36:
        s, t = rng.random(2) * curve.L
        if curve.circ_dist(s, t) < 2 * far or any(
                math.hypot(curve.circ_dist(s, a), curve.circ_dist(t, b)) < 1.5 * far
                for a, b in boundary):
            continue
        counts.append(f_arc_ends(curve, framing, s, t, far))
    assert all(c % 2 == 0 for c in counts)
    assert max(counts) >= 2   # some circles do cross F^s arcs
    print(f"\n[pass] criterion 7: F symmetry (1000 cords), "
          f"{len(boundary)}/{len(boundary)} dS arc ends confirmed, "
          f"off-boundary counts {sorted(set(counts))}")


def test_criterion_8_ring_property_suite():
    """Covered by hypothesis suites in test_ring (1000 cases each)."""
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "tests/test_ring.py::test_serialize_parse_round_trip",
         "tests/test_ring.py::test_ring_axioms",
         "tests/test_ring.py::test_units_central_among_themselves",
         "tests/test_ring.py::test_substitute_is_homomorphism"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("\n[pass] criterion 8: ring property suite (randomized, 0 failures)")


def test_criterion_9_invariance_smoke(unknot_result):
    """Unknot presentations agree across embeddings and basepoints."""
    reference = unknot_result.presentation
    runs = [
        {"type": "ellipse", "a": 3, "b": 1},
        {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.13},
        {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.31},
        {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.55},
        {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.72},
        {"type": "ellipse", "a": 2, "b": 1, "basepoint_shift": 0.91},
    ]
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    r = 1.0 + 0.08 * np.cos(3 * th) + 0.04 * np.sin(2 * th)
    pts = np.stack([2 * r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=1)
    runs.append({"type": "samples", "points": pts.tolist(), "basepoint_shift": 0.4})
    for spec in runs:
        res = compute_cord_algebra(spec, framing="seifert")
        got = res.presentation
        assert (got.generators, got.relations) == \
            (reference.generators, reference.relations), spec
    print("\n[pass] criterion 9: invariance smoke across embeddings/basepoints")
