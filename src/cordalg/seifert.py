"""Winding-sweep rules for the blackboard-to-Seifert framing change.

Changing to the Seifert framing adds lk windings of the framing near the
basepoint (the l -> l u^lk substitution) and then slides them along the knot
to the crossing sites.  A winding sweeping past an endpoint of an index-0
cord multiplies that generator by a mu factor on the corresponding side.

The paper fixes the sweep only in its figures; the rule here is pinned by
the worked trefoil (rules s^s -> u^-1 s^s, s^t -> s^t u).  The windings
travel along the orientation from the basepoint, each settles on the
over-strand passage of its crossing, and every winding that a cord endpoint
lies before gives u^-1 on the left at the start point and u on the right at
the end point.
"""

from __future__ import annotations

import numpy as np


def crossing_passage_params(curve):
    """Arclength parameter of each crossing's over-strand passage.

    The layout records, per crossing, the point where the strand on the
    outside of the swap (the over-strand of the radial diagram) passes the
    middle of its slot; the parameter is that of the curve sample nearest it.
    """
    n = len(curve.samples)
    params = np.arange(n) * (curve.L / n)
    return [float(params[np.argmin(np.linalg.norm(curve.samples - p, axis=1))])
            for p in curve.metadata["over_passages"]]


def winding_sweep_rules(curve, ctx, lk):
    """Substitution rules from sliding lk windings to the crossing sites.

    Returns a list of (generator label, AlgebraElement) pairs; labels not
    listed are unchanged.  On a braid closure lk is the writhe, the sum of
    the crossing signs, so there are at least |lk| crossing sites.
    """
    from .ring import AlgebraElement

    targets = crossing_passage_params(curve)[: abs(lk)]

    # a winding sweeps past every parameter between the basepoint and its
    # target
    L = curve.L
    ends = [tgt % L for tgt in targets]
    rules = []
    for p in ctx.minima:
        n_start = sum(1 for end in ends if p.s % L < end)
        n_end = sum(1 for end in ends if p.t % L < end)
        if n_start == 0 and n_end == 0:
            continue
        rules.append((
            p.label,
            AlgebraElement.mu(-n_start) * AlgebraElement.gen(p.label)
            * AlgebraElement.mu(n_end),
        ))
    return rules
