"""Command line entry point.

Subcommands: compute | analyze | sets | trace | check.  Each accepts only
the options it honours, and every numerical setting is the one of
``tolerances.DEFAULT_TOL``: no option changes it.  Output goes to stdout, or
as UTF-8 to the ``-o`` file.  Exit status: 0 on success; 1 on genericity
exhaustion, and from ``check`` when an invariant fails; 2 on spec errors and
bad option values; 3 on numerical failures (any other package error, such as
StepCollapse, MaxSplits or NumericalAmbiguity); 141 (128 + SIGPIPE, as a
shell reports a writer that the signal ended) when the reader of stdout
closes the pipe early, as ``head`` does.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .energy import diagonal_data, find_critical_points
from .errors import CordAlgError, GenericityExhausted, SpecError
from .flow import FlowContext, _Tracer, dhat_of_trace, terminal_generator_values
# framing_event is re-exported: perfbench/layers.py counts its calls here
from .incidence import (  # noqa: F401
    ChordScreen,
    chord_knot_intersections,
    cord_events,
    framing_event,
)
# build_curve is re-exported: perfbench/layers.py wraps it here and in
# pipeline, where setup_knot calls it
from .knots import build_curve, linking_number  # noqa: F401
from .pipeline import compute_cord_algebra, genericity_check, setup_knot
from .ring import serialize
from .tolerances import DEFAULT_TOL


def _load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read knot spec {path}: {exc}") from exc


def _cord(text):
    """The ``--cord`` value: exactly two finite floats "s,t"."""
    try:
        s, t = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two numbers s,t, got {text!r}") from None
    if not (math.isfinite(s) and math.isfinite(t)):
        raise argparse.ArgumentTypeError(f"cord parameters must be finite: {text!r}")
    return s, t


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write(text, args):
    """Write ``text`` and a newline to the ``-o`` file, or print it."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(data, args):
    _write(json.dumps(data, indent=2, sort_keys=True, default=_jsonable), args)


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _setup(args):
    """Curve and framing of the spec file named in ``args``."""
    return setup_knot(_load_spec(args.spec))


def cmd_compute(args):
    spec = _load_spec(args.spec)
    result = compute_cord_algebra(spec, framing=args.framing, seed=args.seed)
    doc = result.presentation.to_dict()
    doc["metadata"]["D_M"] = serialize(result.D_M)
    if args.format == "text":
        lines = [f"ring: {doc['ring']}",
                 f"generators: {', '.join(doc['generators']) or '(none)'}",
                 "relations:"]
        lines += [f"  {r}" for r in doc["relations"]]
        _write("\n".join(lines), args)
    else:
        _emit(doc, args)
    return 0


def cmd_analyze(args):
    curve, frame = _setup(args)
    points = find_critical_points(curve)
    rows = [{
        "label": p.label, "index": p.index, "s": p.s, "t": p.t,
        "energy": p.energy, "grad_norm": p.grad_norm,
        "eigvals": list(p.eigvals),
    } for p in points]
    diag = diagonal_data()
    doc = {
        "critical_points": rows,
        "diagonal": {"m": {"index": 0, "value": serialize(diag["m"]["value"])},
                     "M": {"index": 1, "D": serialize(diag["M"]["boundary"])}},
        "linking": linking_number(curve, frame),
    }
    if args.format == "tsv":
        lines = ["label\tindex\ts\tt\tenergy"]
        lines += [f"{r['label']}\t{r['index']}\t{r['s']:.9f}\t{r['t']:.9f}"
                  f"\t{r['energy']:.9f}" for r in rows]
        _write("\n".join(lines), args)
    else:
        _emit(doc, args)
    return 0


def cmd_sets(args):
    curve, frame = _setup(args)
    n = args.resolution
    axis = np.arange(n) * (curve.L / n)
    P, V = curve.spline.eval_multi(axis, (0, 1))
    tube = DEFAULT_TOL.diag_tube * curve.L
    si, ti = np.nonzero(~(curve.circ_dist(axis[:, None], axis[None, :]) < tube))
    doc = {"L": curve.L, "B": [[0.0, "full-s-line"], [0.0, "full-t-line"]]}
    f_start = []
    for i, j in zip(si.tolist(), ti.tolist()):
        # the event kernel at the grid values; a cell where either F value
        # is undefined is skipped
        try:
            value, alpha = cord_events(frame, axis[i], axis[j], P[[i, j]],
                                       V[[i, j]])["F-start"]
        except CordAlgError:
            continue
        if alpha > 0.0 and abs(value) < 2.5 / n:
            f_start.append([float(axis[i]), float(axis[j])])
    doc["F_s"] = f_start
    # F-end at (s, t) is F-start at (t, s): same base point, same chord
    doc["F_e"] = sorted([t, s] for s, t in f_start)
    # a cord with a flat minimum (None) is not exported
    hits = chord_knot_intersections(curve, axis[si], axis[ti],
                                    screen=ChordScreen(curve))
    doc["S"] = [[float(axis[i]), float(axis[j])]
                for i, j, h in zip(si, ti, hits) if h]
    _emit(doc, args)
    return 0


def cmd_trace(args):
    curve, frame = _setup(args)
    s, t = args.cord
    points = find_critical_points(curve)
    ctx = FlowContext(curve, frame, points)
    trace = _Tracer(ctx).run(s, t)
    value = dhat_of_trace(trace, terminal_generator_values(ctx))

    def trace_doc(tr):
        return {
            "initial": list(tr.initial),
            "terminal": tr.terminal,
            "events": [{
                "time": e.time, "kind": e.kind, "direction": e.sigma,
                "exponent": e.exponent, "state": list(e.state),
            } for e in tr.events],
            "left": list(tr.left),
            "right": list(tr.right),
            "splits": [{
                "time": sp["time"], "sign": sp["sign"], "hit": list(sp["hit"]),
                "children": [trace_doc(c) for c in sp["children"]],
            } for sp in tr.splits],
        }

    doc = {"trace": trace_doc(trace), "value": serialize(value)}
    if args.format == "text":
        lines = [f"cord ({s}, {t}) -> {trace.terminal}"]
        lines += [f"  t={e.time:10.4f}  {e.kind:8s} dir={e.sigma:+d}"
                  f" exp={e.exponent:+d}" for e in trace.events]
        lines.append(f"value: {serialize(value)}")
        _write("\n".join(lines), args)
    else:
        _emit(doc, args)
    return 0


def cmd_check(args):
    curve, frame = _setup(args)
    checks = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except CordAlgError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))
        print(f"[{'pass' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")

    def arclength():
        probe = np.linspace(0, curve.L, 2000)
        worst = float(np.max(np.abs(
            np.linalg.norm(curve.tangent(probe), axis=1) - 1.0)))
        return worst < DEFAULT_TOL.tol_arc, f"max |gamma'|-1 = {worst:.2e}"

    def embedded():
        return curve.clearance > DEFAULT_TOL.embedding_floor * curve.L, \
            f"clearance {curve.clearance:.4f}"

    def linking_stable():
        lk1 = linking_number(curve, frame)
        lk2 = linking_number(curve, frame, eps=frame.eps / 2)
        return lk1 == lk2, f"lk = {lk1}"

    # the census and genericity checks share one census run, or its error
    try:
        points, census_error = find_critical_points(curve), None
    except CordAlgError as exc:
        points, census_error = None, exc

    def critical_points():
        if census_error is not None:
            raise census_error
        return points

    def census():
        counts = [sum(1 for p in critical_points() if p.index == i) for i in range(3)]
        ok = counts[0] - counts[1] + counts[2] == 0
        return ok, f"census {counts}"

    def genericity():
        report = genericity_check(curve, frame, critical_points())
        return not report, "; ".join(f"{a}:{b}" for a, b, _ in report)

    record("arclength parametrization", arclength)
    record("embeddedness clearance", embedded)
    record("linking number stability", linking_stable)
    record("euler census", census)
    record("critical genericity", genericity)
    failed = [c for c in checks if not c[1]]
    print(f"{len(checks) - len(failed)}/{len(checks)} invariants hold")
    return 0 if not failed else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cordalg",
        description="Cord algebra of knots via Morse theory on linear cords")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, formats=(), output=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="knot spec JSON file")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if output:
            p.add_argument("-o", "--output", default=None)
        p.set_defaults(fn=fn)
        return p

    p = command("compute", cmd_compute, "full cord algebra presentation",
                formats=("json", "text"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--framing", choices=("blackboard", "seifert"),
                   default="seifert")

    command("analyze", cmd_analyze, "critical point table",
            formats=("json", "tsv"))

    p = command("sets", cmd_sets, "export B/F/S polylines on the torus")
    p.add_argument("--resolution", type=_positive_int, default=128)

    p = command("trace", cmd_trace, "event log of one cord's flow",
                formats=("json", "text"))
    p.add_argument("--cord", required=True, type=_cord, help="s,t parameters")

    command("check", cmd_check, "invariant suite with pass/fail summary",
            output=False)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; with no stdout left that
        # flush cannot fail a second time
        sys.stdout = None
        return 141
    except GenericityExhausted as exc:
        print(f"genericity exhausted: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except CordAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
