"""The cordalg benchmark: one workload in one single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trefoil --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process, prints their metrics side by side and saves them to
``perfbench/out/all-seed<n>-trace<0|1>.json``.

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(median wall time of one pass over the workload), ``setup_s`` (median over
five fresh processes of ``import cordalg`` plus loading the workload's
inputs) and ``peak_rss_mib`` (peak resident memory of this process).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass, including the tracing overhead.

Passes repeat while another one still fits in ``--seconds``; at least one
always runs.  Every output is checked against the goldens in
``workloads.py``; the counts that must repeat exactly (census, flow steps,
splits, events, attempts, retries and the presentation bytes) are compared
between the passes of a run and against the previous run of the same source
and seed, kept under ``perfbench/out/``.  A wrong or non-repeating output
makes the run exit with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation that
ends in a named ``CordAlgError`` counts as failed.
"""

import os

# Set before numpy is imported, here and in the set-up probes, which inherit
# the environment: one BLAS/OpenMP thread, and no transparent huge pages
# requested by numpy, whose availability depends on the host's memory
# fragmentation rather than on the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("trefoil", "unknot_sweep", "sets_ellipse")
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this process and print it")
    return ap.parse_args(argv)


def source_digest():
    """SHA-256 over the program's sources, the specs and this benchmark."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "specs").glob("*.json")) \
        + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """The checked-out commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def setup_probe(args):
    """Time ``import cordalg`` plus loading the inputs, in this fresh process."""
    start = time.perf_counter()
    import workloads
    workloads.load_inputs(ROOT, args.workload, args.seed)
    print(repr(time.perf_counter() - start))


def setup_seconds(args):
    """Median of several set-ups, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def declared_metrics(kind, values):
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def timed_pass(workloads, args, inputs, recorder, traced=False):
    start, cpu = time.perf_counter(), time.process_time()
    records, counts = workloads.run_pass(args.workload, inputs, recorder)
    return {"wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu,
            "traced": traced, "flow": counts, "items": records}


def fingerprint(records, counts):
    """What must repeat exactly from pass to pass and run to run."""
    return {"items": [{k: v for k, v in r.items() if k != "seconds"}
                      for r in records],
            "flow": counts}


def check_repeats(args, digest, prints):
    """Compare the passes' fingerprints with each other and with the last run."""
    problems = [f"pass {i} differs from pass 0"
                for i, p in enumerate(prints) if p != prints[0]]
    store = OUT / "fingerprints" / f"{args.workload}-seed{args.seed}-{digest[:16]}.json"
    if store.is_file():
        if json.loads(store.read_text()) != prints[0]:
            problems.append(f"differs from the earlier run recorded in {store}")
    elif not problems:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(prints[0], indent=1, sort_keys=True))
        os.replace(tmp, store)
    return problems


def trefoil_curve(workloads):
    """The pinned trefoil's curve, on which the spline kernel is timed."""
    import cordalg.pipeline as pipeline
    spec = workloads.load_inputs(ROOT, "trefoil", 0)["spec"]
    spec.pop("framing_rotation")
    return pipeline.build_curve(spec)


def print_metrics(metrics, attempted, failed, indent=""):
    """Each metric with its unit, then the share of failed operations."""
    for name, m in metrics.items():
        print(f"{indent}{name:32s} {m['value']:>16.6f} {m['unit']}")
    if attempted:
        print(f"{indent}{'fail_ratio':32s} {failed / attempted:>16.6f} ratio "
              f"({failed}/{attempted} operations raised a CordAlgError)")


def run_all(args):
    """Run every workload in a fresh process; print and save their metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0,
                             "metrics": {}}
    for name, r in results.items():
        print(f"{name}: {'correct' if r['correct'] else 'CHECK FAILED'}")
        print_metrics(r["metrics"], r["attempted"], r["failed"], indent="  ")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1))
    print(f"summary written to {out_file.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cordalg" / "__init__.py").is_file() or \
            not (ROOT / "specs").is_dir():
        print(f"cordalg sources not found under {ROOT}: run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup = None
    if not args.trace:
        setup = setup_seconds(args)
    import workloads
    import layers
    env = environment(args)
    inputs = workloads.load_inputs(ROOT, args.workload, args.seed)
    recorder = layers.Recorder()
    recorder.install_light()

    passes = []
    wrong = None
    try:
        if args.trace:
            micro = layers.eval_multi_microbench(trefoil_curve(workloads))
            passes.append(timed_pass(workloads, args, inputs, recorder))
            recorder.restore()
            recorder = layers.Recorder()
            recorder.install_light()
            recorder.install_full()
            passes.append(timed_pass(workloads, args, inputs, recorder, traced=True))
        else:
            start = time.perf_counter()
            while True:
                passes.append(timed_pass(workloads, args, inputs, recorder))
                elapsed = time.perf_counter() - start
                if elapsed + passes[-1]["wall_s"] > args.seconds:
                    break
    except workloads.WrongOutput as exc:
        wrong = str(exc)
    finally:
        recorder.restore()

    records = [r for p in passes for r in p["items"]]
    attempted = len(records) + (1 if wrong else 0)
    failed = sum(1 for r in records if r["outcome"] != "ok")
    problems = [f"wrong output: {wrong}"] if wrong else \
        check_repeats(args, env["source_sha256"],
                      [fingerprint(p["items"], p["flow"]) for p in passes])

    metrics = {}
    if not problems and args.trace:
        untraced, traced = passes
        values = recorder.layer_metrics(traced["flow"], micro, traced["wall_s"],
                                        untraced["wall_s"])
        metrics = declared_metrics("per_layer", values)
    elif not problems:
        metrics = declared_metrics("end_to_end", {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": setup[0],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })

    report = {
        "env": env,
        "passes": passes,
        "setup_samples_s": setup[1] if setup else None,
        "problems": problems,
        "metrics": metrics,
        "spans": recorder.span_records() if args.trace else None,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    print(json.dumps({"env": env}))
    for r in (passes[0]["items"] if passes else []):
        retries = ", ".join(f"{k} {r[k]}" for k in ("basepoint", "framing", "knot")
                            if r.get(k))
        print(f"  {r['item']:34s} {r['outcome']:22s} attempts {r.get('attempts', '-')}"
              + (f"  retries: {retries}" if retries else ""))
    print_metrics(metrics, attempted, failed)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"report written to {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
