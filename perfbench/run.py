"""Benchmark of the quditmag package: one workload per run, one JSON line out.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {ensemble,optimize,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record-references   # rewrite references.jsonl

    for w in ensemble optimize cli; do python3 perfbench/run.py --workload $w; done

Workloads (see ``workloads.py``; the reasons are in BENCHMARK.json):

* ``ensemble`` -- ``harness.run_ensemble`` for the five schedules;
* ``optimize`` -- ``optimizer.optimize_step_params`` at t = 15, 75 ns with
  the F3 readout fixed and free;
* ``cli``      -- in-process ``cli.main`` gain-curve, oscillations and
  lama-trace.

One operation is one ensemble, one search or one CLI command.  With
``--trace 0`` operations run back to back from one single-threaded process
for ``--seconds`` seconds (the first round always completes) and the result
carries the end-to-end metrics:

* ``setup_s``: seconds from spawning a fresh interpreter until it has
  imported the package, generated the inputs and warmed up, ready for the
  first timed operation; the median of three fresh processes;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``work_per_s``: work units per second of operation time; PER steps
  (``ensemble``), ``expected_gain`` evaluations (``optimize``) or commands
  (``cli``), for one round of operations at each kind's median seconds per
  unit.

The lines before the JSON repeat these by name with units, together with
``failed_ratio`` and each workload's own figures (``steps_per_s``,
``evals_per_s``, ``search_s``, ``gain_curve_s``, ...).

With ``--trace 1`` a fixed number of rounds runs with every public entry
point of the package wrapped (``tracing.py``); the result carries per-layer
call counts, self times and work counters, the spans go to
``.perfbench-out/``, and the run checks that its exact-count identities
hold.  Every operation's outputs are checked against references recorded
for its inputs; a failed check counts the operation as failed.
"""

import argparse
import collections
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters and the values set for them.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 2**30),
                   "M_MMAP_THRESHOLD": (-3, 32 * 2**20)}  # the largest allowed


def pin_process() -> dict:
    """Fix the process settings the timings depend on; call before numpy is
    imported.

    BLAS and OpenMP pools get one thread: the bundled OpenBLAS would start
    up to 64.  glibc keeps freed memory in the heap: by default each
    m = 8192 likelihood evaluation hands its temporaries back to the kernel
    and faults about 1100 pages (4.4 MB) in again on the next call, which is
    a third of its time, and in a virtual machine the cost of those faults
    drifts by tens of percent from minute to minute.  So the timings leave
    out allocation churn; growth of the heap still shows in ``peak_rss_mb``.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_process() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    settings = {"threads": {var: "1" for var in THREAD_VARS}}
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        settings["malloc"] = "default (no glibc mallopt)"
        return settings
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in MALLOC_SETTINGS.values():
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({param}, {value}) failed")
    settings["malloc"] = {name: value
                          for name, (_, value) in MALLOC_SETTINGS.items()}
    return settings


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = BENCH / "references.jsonl"
SETUP_PROBES = 3
TRACE_ROUNDS = {"ensemble": 1, "optimize": 1, "cli": 4}
# Counts that must agree exactly with the work the traced rounds did.
IDENTITIES = {
    "ensemble": ("decoherence.likelihood_grid.calls", "protocols.steps"),
    "optimize": ("bayes.expected_gain.calls", "optimizer.evaluations"),
    "cli": ("cli.main.calls",),
}


def import_package():
    """Import quditmag from this checkout's src/ and nowhere else."""
    if not (SRC / "quditmag" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'quditmag'}")
    sys.path.insert(0, str(SRC))
    import quditmag
    if Path(quditmag.__file__).resolve().parent != SRC / "quditmag":
        raise SystemExit(f"error: quditmag imported from {quditmag.__file__}")


def machine_facts(settings: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **settings,
            "process_threads": int(next(
                line.split()[1]
                for line in Path("/proc/self/status").read_text().splitlines()
                if line.startswith("Threads:")))}


def setup(name: str, workdir: Path):
    from workloads import WORKLOADS
    workload = WORKLOADS[name](workdir)
    workload.warm_up()
    return workload


def measure_setup_s(name: str, seed: int) -> float:
    """Median spawn-to-ready time of fresh interpreters doing the set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_rounds(workload, seed, seconds, rounds, counters):
    """Run operations; stop after ``rounds`` rounds, or, when ``rounds`` is
    None, once ``seconds`` have passed and at least one round is done."""
    from workloads import MEMBERS
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        member = (seed + r) % MEMBERS
        for kind in workload.kinds:
            if rounds is None and r > 0 and time.perf_counter() - start >= seconds:
                return records
            rec = {"round": r, "member": member, "kind": kind}
            records.append(rec)
            t0 = time.perf_counter()
            try:
                rec["result"] = workload.run_op(member, kind)
            except Exception as err:  # the operation failed; count it
                rec["error"] = f"{type(err).__name__}: {err}"
                continue
            rec["seconds"] = time.perf_counter() - t0
            rec["units"] = workload.units(kind, rec["result"])
            try:
                rec["values"] = workload.extract(member, kind, rec["result"],
                                                 counters)
            except Exception as err:
                rec["error"] = f"output unreadable: {type(err).__name__}: {err}"
        r += 1
        if r == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            return records


def load_references() -> dict:
    refs = {}
    for line in REFERENCES.read_text().splitlines():
        entry = json.loads(line)
        refs[entry["workload"], entry["member"], entry["kind"]] = entry["values"]
    return refs


def check_records(workload, records) -> None:
    """Compare each operation's outputs with its reference; a mismatch marks
    the operation failed."""
    refs = load_references()
    for rec in records:
        if "error" in rec:
            continue
        key = (workload.name, rec["member"], rec["kind"])
        try:
            workload.check(rec["member"], rec["kind"], rec["values"], refs[key],
                           rec["result"])
        except Exception as err:  # a check that cannot run fails the op
            rec["error"] = f"{type(err).__name__}: {err}"
    if workload.name == "cli":
        for rec in records:
            if rec["round"] == 0 and "error" not in rec:
                try:
                    workload.rerun_identical(rec["member"], rec["result"][1],
                                             rec["kind"])
                except Exception as err:
                    rec["error"] = f"{type(err).__name__}: {err}"


def end_to_end(workload, records, setup_s: float) -> tuple[dict, list[str]]:
    done = [rec for rec in records if "error" not in rec]
    per_kind = {kind: [r for r in done if r["kind"] == kind]
                for kind in workload.kinds}
    per_kind = {kind: recs for kind, recs in per_kind.items() if recs}
    # One round's work at each kind's median cost per unit, so the rate does
    # not depend on which kind the time limit happened to cut off.
    units = {kind: statistics.fmean(r["units"] for r in recs)
             for kind, recs in per_kind.items()}
    cost = {kind: statistics.median(r["seconds"] / r["units"] for r in recs)
            for kind, recs in per_kind.items()}
    rate = sum(units.values()) / sum(units[k] * cost[k] for k in per_kind)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "work_per_s": (rate, "1/s"),
    }
    median_s = {kind: statistics.median(r["seconds"] for r in recs)
                for kind, recs in per_kind.items()}
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit)
             in {**metrics, workload.rate_name: (rate, "1/s")}.items()]
    lines += [f"{kind.replace('-', '_')}_s {seconds:.6g} s "
              f"(median of {len(per_kind[kind])})"
              for kind, seconds in median_s.items()]
    if workload.name == "optimize":
        lines.append(f"search_s {statistics.fmean(median_s.values()):.6g} s "
                     f"(mean over the {len(median_s)} searches of their medians)")
    lines.append(f"failed_ratio {(len(records) - len(done)) / len(records):.6g} "
                 f"({len(records) - len(done)} of {len(records)} operations)")
    return metrics, lines


def per_layer(tracer, overhead_per_call_s: float) -> dict:
    from tracing import TRACED
    c = tracer.counters
    metrics = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name, unit in (("decoherence.likelihood_grid.points", "count"),
                       ("decoherence.likelihood_grid.bytes_computed", "bytes"),
                       ("bayes.expected_gain.points", "count"),
                       ("protocols.steps", "count"),
                       ("optimizer.evaluations", "count"),
                       ("cli.bytes_written", "bytes"),
                       ("cli.csv_cells", "count")):
        metrics[name] = (c[name], unit)
    metrics["optimizer.useful_start_ratio"] = (
        c["optimizer.useful_starts"] / c["optimizer.starts"]
        if c["optimizer.starts"] else 0.0, "ratio")
    metrics["optimizer.budget_exhausted_ratio"] = (
        c["optimizer.budget_exhausted"] / c["optimizer.searches"]
        if c["optimizer.searches"] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        overhead_per_call_s * len(tracer.spans) + tracer.counting_s, "s")
    return metrics


def declared(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def record_references(names) -> None:
    """Run every member's operations once and store their outputs, keeping
    the stored entries of workloads not in ``names``."""
    from workloads import MEMBERS
    lines = [line for line in (REFERENCES.read_text().splitlines()
                               if REFERENCES.exists() else [])
             if json.loads(line)["workload"] not in names]
    for name in names:
        with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
            workload = setup(name, Path(tmp))
            for member in range(MEMBERS):
                for kind in workload.kinds:
                    result = workload.run_op(member, kind)
                    values = workload.extract(member, kind, result,
                                              collections.Counter())
                    lines.append(json.dumps({"workload": name, "member": member,
                                             "kind": kind, "values": values}))
                    print(name, member, kind, flush=True)
    REFERENCES.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ensemble", "optimize", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    settings = pin_process()
    import_package()
    OUT.mkdir(exist_ok=True)
    if args.record_references:
        record_references([args.workload] if args.workload
                          else ["ensemble", "optimize", "cli"])
        return 0
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup(args.workload, Path(tmp))
            print("ready", repr(time.monotonic()), flush=True)
        return 0

    wanted = declared("per_layer" if args.trace else "end_to_end")
    setup_s = None if args.trace else measure_setup_s(args.workload, args.seed)
    facts = machine_facts(settings)
    lines = ["machine " + json.dumps(facts, sort_keys=True)]
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = setup(args.workload, Path(tmp))
        tracer = None
        counters = collections.Counter()
        if args.trace:
            from tracing import Tracer, per_call_overhead_s
            overhead = per_call_overhead_s()
            tracer = Tracer()
            counters = tracer.counters
            tracer.install()
        try:
            records = run_rounds(workload, args.seed, args.seconds,
                                 TRACE_ROUNDS[args.workload] if args.trace
                                 else None, counters)
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_records(workload, records)

        failed = sum("error" in rec for rec in records)
        correct = failed == 0
        lines.append(f"workload {args.workload} seed {args.seed}: "
                     f"{len(records)} operations, members "
                     f"{sorted({rec['member'] for rec in records})}")
        lines += [f"FAILED {rec['kind']} (member {rec['member']}): {rec['error']}"
                  for rec in records if "error" in rec]
        if args.trace:
            metrics = per_layer(tracer, overhead)
            work = sum(rec.get("units", 0) for rec in records)
            for name in IDENTITIES[args.workload]:
                if metrics[name][0] != work:
                    correct = False
                    lines.append(f"FAILED count identity: {name} = "
                                 f"{metrics[name][0]} != {work} units of work")
            lines.append("count identities: " + " == ".join(
                IDENTITIES[args.workload]) + f" == {work}")
            lines.append(f"traced bindings: {', '.join(sorted(tracer.bindings))}")
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(str(trace_path), facts)
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
            lines.append(f"tracing overhead: {overhead * 1e6:.3g} us per span "
                         f"(traced minus untraced no-op call) x "
                         f"{len(tracer.spans)} spans + {tracer.counting_s:.3g} s "
                         "in the work counters")
            lines += [f"{name} {value:.6g} {unit}"
                      for name, (value, unit) in metrics.items()]
        elif failed < len(records):
            metrics, summary = end_to_end(workload, records, setup_s)
            lines += summary
        else:
            metrics = {}

    mismatched = sorted(name for name, unit in wanted.items()
                        if metrics.get(name, (None, unit))[1] != unit)
    missing = sorted(set(wanted) - set(metrics))
    if missing or mismatched:
        correct = False
        lines.append(f"FAILED: declared metrics without a value {missing}, "
                     f"with another unit {mismatched}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items() if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
