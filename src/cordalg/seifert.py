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

import math

import numpy as np


def crossing_passage_params(curve):
    """Arclength parameter of each crossing's over-strand passage.

    Per crossing, the passage whose strand runs on the outside of the swap
    (the over-strand of the radial diagram).
    """
    meta = curve.metadata
    slots = meta["slots"]
    loops = meta.get("loops", 2)
    n = len(curve.samples)
    params = np.arange(n) * (curve.L / n)
    pts = curve.point(params)
    a, b = meta["axes"]
    theta = np.arctan2(pts[:, 1] / b, pts[:, 0] / a) % (2.0 * math.pi)
    chosen = []
    for (a_k, b_k) in slots:
        center = 0.5 * (a_k + b_k)
        hits = []
        close = np.abs((theta - center + math.pi) % (2 * math.pi) - math.pi)
        order = np.argsort(close)
        for idx in order[: 8 * loops]:
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


def winding_sweep_rules(curve, ctx, lk):
    """Substitution rules from sliding lk windings to the crossing sites.

    Returns a list of (generator label, AlgebraElement) pairs; labels not
    listed are unchanged.
    """
    from .ring import AlgebraElement

    targets = crossing_passage_params(curve)
    if len(targets) < abs(lk):
        # more windings than crossings (or vice versa): spread them evenly
        targets = (targets * (abs(lk) // max(len(targets), 1) + 1))[: abs(lk)]
    else:
        targets = targets[: abs(lk)]

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
