"""Pipeline orchestration: presentation simplification and the full compute run."""

from __future__ import annotations

from dataclasses import dataclass, field

from .energy import diagonal_data, find_critical_points
from .errors import (
    DegenerateCritical,
    GenericityExhausted,
    GenericityViolation,
    InvariantLost,
    SeedingInsufficient,
    SpecError,
    UnsupportedFraming,
)
from .flow import FlowContext, boundary_D
from .incidence import chord_knot_intersections, framing_event
from .knots import (
    build_curve,
    build_framing,
    linking_number,
    perturb_basepoint,
    perturb_curve,
    perturb_framing,
)
from .ring import (
    AlgebraElement,
    Presentation,
    framing_transform,
    mono_inv,
    normalize_relation,
    parse,
    reduce_modulo,
    relations_equivalent,
    serialize,
)
from .seifert import winding_sweep_rules
from .tolerances import DEFAULT_TOL

# constant normal-plane rotation of the blackboard framing on braid layouts:
# pure vertical projection puts the whole inter-strand cord family inside F,
# and a rotation restores genericity without changing the framing class
BRAID_ROTATION = 0.15


def _solvable_candidates(relations):
    """Occurrences ``±mL g mR`` where g appears exactly once in its relation.

    Yields (complexity, label, relation index, word, coeff); complexity is the
    total exponent weight of the boundary monomials.
    """
    for idx, r in enumerate(relations):
        counts = {}
        for (_monos, wgens), _c in r.terms():
            for g in wgens:
                counts[g] = counts.get(g, 0) + 1
        for (monos, wgens), c in r.terms():
            if len(wgens) == 1 and counts[wgens[0]] == 1 and abs(c) == 1:
                m_l, m_r = monos
                cx = abs(m_l[0]) + abs(m_l[1]) + abs(m_r[0]) + abs(m_r[1])
                yield (cx, wgens[0], idx, (monos, wgens), c)


def simplify(p, reduce_cap=400):
    """Eliminate solvable generators, prune consequences, normalize.

    Elimination solves ``g = -c^-1 mL^-1 rest mR^-1`` from a relation where g
    occurs exactly once as a bare ``mL g mR`` word, preferring the cheapest
    occurrence and, on ties, eliminating the lexicographically larger label
    (so the surviving generator is the smaller one).  A capped two-sided
    rewriting pass then drops relations that reduce to zero modulo the kept
    ones; this only ever removes proven consequences.
    """
    rels = [r for r in p.relations if not r.is_zero()]
    gens = list(p.generators)
    solved_rules = {}

    while True:
        cands = list(_solvable_candidates(rels))
        if not cands:
            break
        min_cx = min(c[0] for c in cands)
        cx, g, idx, word, coeff = max(
            (c for c in cands if c[0] == min_cx), key=lambda c: c[1]
        )
        r = rels.pop(idx)
        monos, _gens = word
        rest = r - AlgebraElement({word: coeff})
        solved = (
            AlgebraElement.monomial(*mono_inv(monos[0]))
            * rest
            * AlgebraElement.monomial(*mono_inv(monos[1]))
            * (-coeff)
        )
        rule = {g: solved}
        rels = [rr.substitute(rule) for rr in rels if not rr.substitute(rule).is_zero()]
        solved_rules = {k: v.substitute(rule) for k, v in solved_rules.items()}
        solved_rules[g] = solved
        gens.remove(g)

    order = lambda r: (r.n_terms(), r.max_word_length(), len(serialize(r)), serialize(r))
    kept = []
    for r in sorted(rels, key=order):
        if kept and reduce_modulo(r, kept, cap=reduce_cap).is_zero():
            continue
        if any(relations_equivalent(r, q) for q in kept):
            continue
        kept.append(r)

    normalized = [normalize_relation(r) for r in kept]
    normalized = [r for r in normalized if not r.is_zero()]
    normalized.sort(key=lambda r: (r.max_word_length(), r.n_terms(), serialize(r)))

    gens, normalized, renames = _cosmetic_rename(gens, normalized)
    meta = dict(p.metadata)
    meta["eliminated"] = {g: serialize(e) for g, e in solved_rules.items()}
    if renames:
        meta["renamed"] = renames
    return Presentation(sorted(gens), normalized, p.ring, meta)


def _cosmetic_rename(gens, relations):
    """Strip orientation suffixes when only one orientation of a cord survives.

    With both ``x_s`` and ``x_t`` present the suffix is load-bearing; once one
    of the pair is eliminated the survivor is renamed to the bare cord name,
    matching how presentations are conventionally written.
    """
    renames = {}
    for g in list(gens):
        for suffix in ("_s", "_t"):
            if g.endswith(suffix):
                base = g[: -len(suffix)]
                partner = base + ("_t" if suffix == "_s" else "_s")
                if partner not in gens and base not in gens and base not in ("l", "u"):
                    renames[g] = base
    if not renames:
        return gens, relations, renames
    rules = {old: AlgebraElement.gen(new) for old, new in renames.items()}
    gens = [renames.get(g, g) for g in gens]
    relations = [r.substitute(rules) for r in relations]
    return gens, relations, renames


@dataclass
class ComputeResult:
    """Everything a pipeline run produces, for tests, the CLI and golden checks."""

    presentation: Presentation           # simplified
    raw: Presentation                    # relations as computed (post framing transform)
    boundary_values: dict                # index-1 label -> AlgebraElement
    critical_points: list
    traces: dict                         # index-1 label -> (trace+, trace-)
    census: tuple                        # off-diagonal counts by index
    linking: int
    metadata: dict = field(default_factory=dict)

    @property
    def D_M(self):
        return diagonal_data()["M"]["boundary"]


def genericity_check(curve, framing, critical_points, tol=DEFAULT_TOL):
    """Report-only check of Lemma-level genericity for Crit_{0,1}.

    Lists critical cords of index 0/1 lying on B, F or S within event
    tolerance; trajectory-level violations are detected during the flow
    itself and surface as GenericityViolation.
    """
    report = []
    margin = max(1e3 * tol.event_tol, 1e-4) * curve.L
    for p in critical_points:
        if p.index > 1:
            continue
        if min(curve.circ_dist(p.s, 0.0), curve.circ_dist(p.t, 0.0)) < margin:
            report.append((p.label, "B", "critical cord endpoint at the basepoint"))
        for endpoint in ("start", "end"):
            ev = framing_event(curve, framing, p.s, p.t, endpoint)
            if abs(ev.value) < 1e-4 and ev.positive:
                report.append((p.label, f"F-{endpoint}", "critical cord on the framing set"))
        if chord_knot_intersections(curve, p.s, p.t, tol):
            report.append((p.label, "S", "critical cord meets the knot interior"))
    return report


def _perturb_for(reason, curve, framing, magnitude, seed):
    if reason == "basepoint":
        # a basepoint shift is a pure reparametrization: its scale comes from
        # the diagonal tube (it must clear the degenerate zone), not from the
        # embedding clearance that caps geometric bumps
        shift = max(curve.L / 8.0, 4.0 * DEFAULT_TOL.diag_tube * curve.L)
        return perturb_basepoint(curve, shift, seed), framing, "basepoint"
    if reason == "framing":
        return curve, perturb_framing(framing, 0.3, seed), "framing"
    new_curve = perturb_curve(curve, magnitude, seed)
    return new_curve, build_framing(new_curve, rotation=framing.rotation,
                                    winding=framing.winding), "knot"


def setup_knot(spec, tol=DEFAULT_TOL):
    """The curve, its blackboard framing and the explicit Seifert rules of a
    knot spec dict, as (curve, framing, seifert_rules or None).

    ``framing_rotation`` rotates the framing in the normal planes; braid
    layouts default to ``BRAID_ROTATION``.  Every computation runs with this
    framing, so a ``framing`` key, which would ask for another one, raises
    SpecError.
    """
    if "framing" in spec:
        raise SpecError("the spec key 'framing' is not supported: computations"
                        " use the blackboard framing, rotated by"
                        " 'framing_rotation'")
    rotation = float(spec.get("framing_rotation", 0.0))
    rules = spec.get("seifert_rules")
    if rules is not None:
        rules = [(g, parse(txt)) for g, txt in rules]
    curve = build_curve(spec, tol=tol)
    if curve.metadata.get("layout") == "braid" and rotation == 0.0:
        rotation = BRAID_ROTATION
    return curve, build_framing(curve, kind="blackboard", rotation=rotation), rules


def compute_cord_algebra(spec, framing="seifert", seed=0, tol=DEFAULT_TOL):
    """Full pipeline: knot spec dict -> criticals -> flows -> presentation.

    ``framing`` selects the output framing: computations always run with the
    blackboard framing; 'seifert' applies the change-of-framing transform
    l -> l u^lk plus the winding sweep rules afterwards, which the spec's
    ``seifert_rules`` key overrides.  The presentation is simplified.
    Genericity failures trigger seeded perturbation with retries
    (geometrically shrinking magnitude).
    """
    curve, frame, seifert_rules = setup_knot(spec, tol)

    attempt = 0
    # perturb_curve refuses magnitudes from clearance / 4 up
    magnitude = curve.clearance / 8.0
    while True:
        try:
            return _run_once(curve, frame, framing, tol, seifert_rules, seed)
        except (GenericityViolation, DegenerateCritical, SeedingInsufficient,
                InvariantLost) as exc:
            # drop the traceback: it would pin the failed attempt's frames
            # and census arrays in a cycle while the next attempt runs
            last = exc.with_traceback(None)
            reason = getattr(exc, "reason", "knot")
            if isinstance(exc, (DegenerateCritical, SeedingInsufficient)):
                reason = "knot"
        # a perturbation that breaks an invariant is redrawn smaller with the
        # next seed, without rerunning the unchanged input; each draw spends
        # one attempt, and none is drawn once the budget is spent
        redrawn = False
        while not redrawn:
            if attempt >= tol.max_perturb:
                raise GenericityExhausted(
                    f"perturb-and-retry budget exhausted: {last}")
            attempt += 1
            try:
                curve, frame, _ = _perturb_for(reason, curve, frame,
                                               magnitude, seed + attempt)
                redrawn = True
            except InvariantLost as exc:
                last = exc.with_traceback(None)
            magnitude *= 0.5


def _run_once(curve, frame, framing, tol, seifert_rules, seed):
    critical = find_critical_points(curve, tol)
    report = genericity_check(curve, frame, critical, tol)
    if report:
        kind = report[0][1][0]
        reason = {"B": "basepoint", "F": "framing", "S": "knot"}[kind]
        raise GenericityViolation(f"genericity check: {report}", reason=reason)
    ctx = FlowContext(curve, frame, critical, tol)
    boundary_values = {}
    traces = {}
    for k in ctx.saddles:
        D, trp, trm = boundary_D(curve, frame, k, ctx)
        boundary_values[k.label] = D
        traces[k.label] = (trp, trm)
        for tr in (trp, trm):
            if tr.terminal != "contractible":
                continue
            near_bp = min(curve.circ_dist(tr.terminal_state[0], 0.0),
                          curve.circ_dist(tr.terminal_state[1], 0.0))
            if near_bp < 2.0 * tol.diag_tube * curve.L or \
                    _b_event_near_end(tr, curve, tol):
                raise GenericityViolation("contraction point at the basepoint",
                                          reason="basepoint")

    lk = linking_number(curve, frame)
    generators = sorted({p.label for p in ctx.minima})
    relations = [v for v in boundary_values.values() if not v.is_zero()]
    pres = Presentation(generators, relations, metadata={
        "framing": "blackboard", "lk": lk, "seed": seed,
        "census": tuple(sum(1 for p in critical if p.index == i) for i in range(3)),
    })
    if framing == "seifert":
        rules = seifert_rules
        if rules is None:
            rules = derive_seifert_rules(curve, ctx, lk)
        pres = framing_transform(pres, lk, rules)
        pres.metadata["framing"] = "seifert"
    raw = Presentation(list(pres.generators),
                       [r for r in pres.relations],
                       pres.ring, dict(pres.metadata))
    out = simplify(pres, tol.reduce_cap)
    return ComputeResult(
        presentation=out,
        raw=raw,
        boundary_values=boundary_values,
        critical_points=critical,
        traces=traces,
        census=tuple(sum(1 for p in critical if p.index == i) for i in range(3)),
        linking=lk,
        metadata=dict(out.metadata),
    )


def _b_event_near_end(trace, curve, tol):
    if not trace.events:
        return False
    last = trace.events[-1]
    return last.kind.startswith("B") and \
        curve.circ_dist(last.state[0], last.state[1]) < 3.0 * tol.diag_tube * curve.L


def derive_seifert_rules(curve, ctx, lk):
    """Winding-sweep rules for braid layouts (see change-of-framing).

    The lk windings added near the basepoint travel along the knot to the
    crossing sites; each index-0 cord endpoint they sweep past picks up one
    mu factor on the corresponding side.  lk = 0 needs no rules.  Other
    layouts have no derivation, so lk != 0 there raises
    ``UnsupportedFraming`` rather than return a presentation mislabelled
    "seifert".
    """
    if lk == 0:
        return []
    layout = curve.metadata.get("layout")
    if layout != "braid":
        raise UnsupportedFraming(
            f"no Seifert winding-sweep rules for layout {layout!r} with lk = {lk};"
            " give the spec 'seifert_rules' or use the blackboard framing")
    return winding_sweep_rules(curve, ctx, lk)


def compare(p, q, reduce_cap=400):
    """Compare two presentations: identical | identical-after-simplify | inconclusive.

    Never claims non-isomorphism.
    """
    if p.ring != q.ring:
        raise ValueError("presentations over different rings")

    def same(a, b):
        if sorted(a.generators) != sorted(b.generators):
            return False
        if len(a.relations) != len(b.relations):
            return False
        used = set()
        for r in a.relations:
            hit = next(
                (j for j, s in enumerate(b.relations)
                 if j not in used and relations_equivalent(r, s)),
                None,
            )
            if hit is None:
                return False
            used.add(hit)
        return True

    if same(p, q):
        return "identical"
    if same(simplify(p, reduce_cap), simplify(q, reduce_cap)):
        return "identical-after-simplify"
    return "inconclusive"
