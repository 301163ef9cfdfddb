"""Pipeline orchestration: presentation simplification and the full compute run.

The census returns the off-diagonal critical points in exact mirror pairs
(s,t), (t,s).  Of each pair of index-1 cords only the one with s < t is
flowed; the boundary value of its partner is folded from the mirrored
traces (``flow.mirror_boundary_D``), and ``ComputeResult.metadata["mirrored"]``
maps each derived label to the label that was flowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .energy import diagonal_data, find_critical_points, mirror_partners
from .errors import (
    DegenerateCritical,
    GenericityExhausted,
    GenericityViolation,
    InvariantLost,
    SeedingInsufficient,
    SpecError,
    TangentialContact,
    UnsupportedFraming,
    VerticalTangent,
)
from .flow import FlowContext, boundary_D, mirror_boundary_D
from .incidence import chord_knot_intersections, framing_event
from .knots import (
    build_curve,
    build_framing,
    linking_number,
    perturb_basepoint,
    perturb_curve,
    perturb_framing,
    spec_field,
)
from .ring import (
    AlgebraElement,
    Presentation,
    framing_transform,
    mono_inv,
    normalize_relation,
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


def simplify(p):
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
        rels = [rr for rr in (rr.substitute(rule) for rr in rels) if not rr.is_zero()]
        solved_rules = {k: v.substitute(rule) for k, v in solved_rules.items()}
        solved_rules[g] = solved
        gens.remove(g)

    order = lambda r: (r.n_terms(), r.max_word_length(), len(serialize(r)), serialize(r))
    kept = []
    for r in sorted(rels, key=order):
        if kept and reduce_modulo(r, kept).is_zero():
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


def genericity_check(curve, framing, critical_points):
    """Report-only check of Lemma-level genericity for Crit_{0,1}.

    Lists critical cords of index 0/1 lying on B, F or S within event
    tolerance; trajectory-level violations are detected during the flow
    itself and surface as GenericityViolation.
    """
    report = []
    # a cord endpoint this close to the basepoint lies on B; the margin is
    # wider than a thousand event tolerances (1e-6 L)
    margin = 1e-4 * curve.L
    cords = [p for p in critical_points if p.index <= 1]
    # every cord screened at once; a flat minimum raises at its own cord
    hits = chord_knot_intersections(curve, [p.s for p in cords],
                                    [p.t for p in cords])
    for p, p_hits in zip(cords, hits):
        if min(curve.circ_dist(p.s, 0.0), curve.circ_dist(p.t, 0.0)) < margin:
            report.append((p.label, "B", "critical cord endpoint at the basepoint"))
        for endpoint in ("start", "end"):
            ev = framing_event(curve, framing, p.s, p.t, endpoint)
            if abs(ev.value) < 1e-4 and ev.positive:
                report.append((p.label, f"F-{endpoint}", "critical cord on the framing set"))
        if p_hits is None:
            raise TangentialContact("flat distance minimum along the chord")
        if p_hits:
            report.append((p.label, "S", "critical cord meets the knot interior"))
    return report


def _draw_magnitude(reason, curve, magnitude):
    """The magnitude of a retry's draw: a framing turn of 0.3, a basepoint
    shift of L / 8, or the knot bump ``magnitude``."""
    if reason == "framing":
        return 0.3
    if reason == "basepoint":
        # a basepoint shift is a pure reparametrization: its scale is set to
        # clear the diagonal tube (four tube widths are 0.08 L, less than
        # L / 8), not by the embedding clearance that caps geometric bumps
        return curve.L / 8.0
    return magnitude


def _perturb_for(reason, curve, framing, magnitude, seed):
    """The curve and framing of a retry, the framing built on that curve."""
    if reason == "framing":
        return curve, perturb_framing(framing, magnitude, seed)
    if reason == "basepoint":
        curve = perturb_basepoint(curve, magnitude, seed)
    else:
        curve = perturb_curve(curve, magnitude, seed)
    return curve, build_framing(curve, rotation=framing.rotation,
                                winding=framing.winding)


def setup_knot(spec):
    """The curve and its blackboard framing of a knot spec dict, as
    (curve, framing).

    ``framing_rotation`` rotates the framing in the normal planes; braid
    layouts default to ``BRAID_ROTATION``.  Every computation runs with this
    framing.  ``build_curve`` refuses every key that the spec's type does
    not read, such as a ``framing`` key, which would ask for another
    framing, or a ``seifert_rules`` key, which would replace the derived
    Seifert rules.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"a knot spec is a JSON object, not a {type(spec).__name__}")
    rotation = spec_field(spec, "framing_rotation", default=0.0)
    curve = build_curve(spec)
    if curve.metadata.get("layout") == "braid" and rotation == 0.0:
        rotation = BRAID_ROTATION
    try:
        frame = build_framing(curve, kind="blackboard", rotation=rotation)
    except VerticalTangent as exc:
        raise UnsupportedFraming(f"no blackboard framing: {exc}") from exc
    return curve, frame


def compute_cord_algebra(spec, framing="seifert", seed=0):
    """Full pipeline: knot spec dict -> criticals -> flows -> presentation.

    ``framing`` selects the output framing: computations always run with the
    blackboard framing; 'seifert' applies the change-of-framing transform
    l -> l u^lk plus the winding sweep rules afterwards; a knot off the
    braid layout with lk != 0 has no such rules and is refused with
    ``UnsupportedFraming`` before the census.  The presentation is simplified.
    Genericity failures trigger seeded perturbation with retries
    (geometrically shrinking magnitude), each logged in ``metadata["retries"]``
    with its reason, the error that caused it, the magnitude and seed of its
    draw and its outcome.
    """
    curve, frame = setup_knot(spec)
    # a basepoint shift reparametrizes the knot and a framing retry turns nu
    # by a constant angle, so only a knot redraw can change lk
    lk = linking_number(curve, frame)
    if framing == "seifert" and curve.metadata.get("layout") != "braid":
        # no census or flow can lift the refusal of derive_seifert_rules,
        # which needs only lk and the layout
        derive_seifert_rules(curve, None, lk)

    attempt = 0
    retries = []
    # perturb_curve refuses magnitudes from clearance / 4 up
    magnitude = curve.clearance / 8.0
    while True:
        try:
            return _run_once(curve, frame, lk, framing, seed, retries)
        except (GenericityViolation, DegenerateCritical, SeedingInsufficient,
                InvariantLost) as exc:
            # drop the traceback: it would pin the failed attempt's frames
            # and census arrays in a cycle while the next attempt runs
            last = exc.with_traceback(None)
            error = type(exc).__name__
            reason = getattr(exc, "reason", "knot")
        # a perturbation that breaks an invariant is redrawn smaller with the
        # next seed, without rerunning the unchanged input; each draw spends
        # one attempt, and none is drawn once the budget is spent
        redrawn = False
        while not redrawn:
            if attempt >= DEFAULT_TOL.max_perturb:
                raise GenericityExhausted(
                    f"perturb-and-retry budget exhausted: {last}")
            attempt += 1
            size = _draw_magnitude(reason, curve, magnitude)
            try:
                curve, frame = _perturb_for(reason, curve, frame, size,
                                            seed + attempt)
                redrawn = True
            except InvariantLost as exc:
                last = exc.with_traceback(None)
            retries.append({"attempt": attempt, "reason": reason, "error": error,
                            "magnitude": size, "seed": seed + attempt,
                            "outcome": "accepted" if redrawn else "refused"})
            magnitude *= 0.5
        if reason == "knot":
            lk = linking_number(curve, frame)


def _run_once(curve, frame, lk, framing, seed, retries):
    critical = find_critical_points(curve)
    report = genericity_check(curve, frame, critical)
    if report:
        kind = report[0][1][0]
        reason = {"B": "basepoint", "F": "framing", "S": "knot"}[kind]
        raise GenericityViolation(f"genericity check: {report}", reason=reason)
    ctx = FlowContext(curve, frame, critical)
    partners = mirror_partners(critical)
    saddles = {k.label: k for k in ctx.saddles}
    flowed, mirrored = {}, {}

    def flow(label):
        if label not in flowed:
            flowed[label] = boundary_D(curve, frame, saddles[label], ctx)
        return flowed[label]

    boundary_values = {}
    traces = {}
    for k in ctx.saddles:
        # the s < t cord of each mirror pair is flowed; its partner's
        # traces are the exact mirror of the flowed ones
        if k.s < k.t:
            D, trp, trm = flow(k.label)
        else:
            rep = partners[k.label]
            D, trp, trm = mirror_boundary_D(curve, k, flow(rep)[1:], partners,
                                            ctx)
            mirrored[k.label] = rep
        boundary_values[k.label] = D
        traces[k.label] = (trp, trm)

    generators = sorted({p.label for p in ctx.minima})
    relations = [v for v in boundary_values.values() if not v.is_zero()]
    census = tuple(sum(1 for p in critical if p.index == i) for i in range(3))
    pres = Presentation(generators, relations, metadata={
        "framing": "blackboard", "lk": lk, "seed": seed, "census": census,
    })
    if framing == "seifert":
        pres = framing_transform(pres, lk, derive_seifert_rules(curve, ctx, lk))
        pres.metadata["framing"] = "seifert"
    out = simplify(pres)
    return ComputeResult(
        presentation=out,
        raw=pres,
        boundary_values=boundary_values,
        critical_points=critical,
        traces=traces,
        census=census,
        linking=lk,
        metadata={**out.metadata, "mirrored": mirrored, "retries": retries},
    )


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
            " use the blackboard framing")
    return winding_sweep_rules(curve, ctx, lk)

