"""Solver benchmark: time to a verified solution on four PDE workloads.

BENCHMARK.json gates ``conv1d`` and ``steady2d``, the convergence study and
the 2D steady-state run.  ``fine2d`` and ``sat1d`` run the same way and go
into the committed baseline, but are not gated: on a shared 2-core host
their ten-seed spreads reached the largest bound the gate allows.

Run one workload (the form the BENCHMARK.json contract uses):

    python3 bench/run_bench.py --workload conv1d --seed 0 --seconds 45 --trace 0

It builds nothing: it puts ``src/`` on the import path of a fresh
interpreter, pins BLAS/OpenMP to one thread, measures set-up (the median of
repeated set-ups), then runs whole workload instances for ``--seconds`` (at
least one) and checks each against the seed-0 references.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A traced run first runs one untraced
instance, so that it can report the tracing overhead.  Each run also writes
a record with the machine, versions, thread pinning, seed and commit to
``.bench_out/records/`` (and, traced, its raw spans to ``.bench_out/spans/``).

Run every workload, one fresh interpreter at a time, and print each
end-to-end metric as median, quartiles and sample count:

    python3 bench/run_bench.py --workload all --seeds 0-9 [--trace 1] [--json PATH]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("conv1d", "steady2d", "fine2d", "sat1d")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up runs in two blocks, before and after the measured instances, each of at least
# SETUP_REPEATS set-ups and SETUP_SECONDS; setup_s is the median of all of them.  The
# two blocks sit a run apart, so one burst of host contention cannot set the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
PERCENTILES = (50, 90, 99, 99.9)

# (name, unit) of the end-to-end metrics with a regression bound, as in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
)
# per-step wall times: recorded and printed, but without a bound, because their
# run-to-run spread on a shared 2-core host is as wide as the largest bound allowed
STEP_METRICS = (
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
)


def tail_percentile(n_samples):
    """Highest of PERCENTILES with at least ten samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if n_samples * (1 - Fraction(str(p)) / 100) >= 10:
            best = p
    return best


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit(root):
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_record(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


# -- one workload in this interpreter -------------------------------------------------------


def _run_instance(instance, fv, workloads, spans, tracer=None):
    """Run the workload once; returns a dict describing the attempt."""
    clock = spans.StepClock()
    if tracer is None:
        replacements = clock.replacements(fv.scheme, fv.harness)
        run = instance.run
    else:
        replacements = tracer.traced_functions(clock, fv.scheme, fv.harness, fv.diagnostics)
        run = tracer.wrap("entry", instance.run)
    attempt = {"traced": tracer is not None}
    t0 = perf_counter()
    try:
        with spans.replaced(replacements):
            result = run()
        attempt["wall_s"] = perf_counter() - t0
        attempt["solve_s"] = clock.solve_s
        attempt["step_s"] = clock.step_s
        quantities = instance.quantities(result, clock.reports)
        attempt["quantities"] = quantities
        problems, attempt["result_drift"] = workloads.check(
            instance.workload.name, instance.seed, quantities, workloads.load_references())
        if problems:
            attempt["failure"] = "IncorrectResult: " + "; ".join(problems)
    except (Exception, SystemExit) as exc:  # every failure is counted, none ends the run
        attempt.setdefault("wall_s", perf_counter() - t0)
        attempt["failure"] = f"{type(exc).__name__}: {exc}"
    return attempt


def _percentile_ms(step_s, p):
    import numpy as np

    return float(np.percentile(np.asarray(step_s) * 1e3, p))


def end_to_end_metrics(attempts, setup_s, peak_rss_mb):
    """END_TO_END and STEP_METRICS values of one run, from its untraced instances."""
    good = [a for a in attempts if "failure" not in a and not a["traced"]]
    if not good:
        return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    steps = [s for a in good for s in a["step_s"]]
    return {
        "wall_s": statistics.median(a["wall_s"] for a in good),
        "setup_s": setup_s,
        "solve_s": statistics.median(a["solve_s"] for a in good),
        "step_ms_p50": _percentile_ms(steps, 50),
        "step_ms_p90": _percentile_ms(steps, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(name, seed, seconds, trace):
    """Run one workload for ``seconds``; returns (contract result, record)."""
    sys.path.insert(0, str(ROOT / "src"))
    import biofilm_fv.cli
    import biofilm_fv.diagnostics
    import biofilm_fv.harness
    import biofilm_fv.scheme

    import spans
    import workloads

    out_root = ROOT / ".bench_out"
    work_dir = out_root / "work" / f"{name}-seed{seed}-{os.getpid()}"
    attempts, layer_runs, setup_times = [], [], []

    def setup_block():
        block_end = perf_counter() + SETUP_SECONDS
        for k in itertools.count():
            if k >= SETUP_REPEATS and perf_counter() >= block_end:
                break
            t0 = perf_counter()
            instance.setup()
            setup_times.append(perf_counter() - t0)

    try:
        instance = workloads.Instance(workloads.WORKLOADS[name], seed, ROOT, work_dir,
                                      biofilm_fv)
        setup_block()
        deadline = perf_counter() + seconds
        if trace:
            attempts.append(_run_instance(instance, biofilm_fv, workloads, spans))
        while True:
            tracer = spans.Tracer() if trace else None
            attempt = _run_instance(instance, biofilm_fv, workloads, spans, tracer)
            attempts.append(attempt)
            if tracer is not None and "failure" not in attempt:
                layer_runs.append((tracer, attempt["wall_s"]))
            # a failed instance would fail again: the problem is deterministic
            if "failure" in attempt or perf_counter() + attempt["wall_s"] > deadline:
                break
        setup_block()
    except (Exception, SystemExit) as exc:  # a workload that cannot even be set up
        attempts.append({"traced": False, "failure": f"{type(exc).__name__}: {exc}"})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [a["failure"] for a in attempts if "failure" in a]
    setup_s = statistics.median(setup_times) if setup_times else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end_metrics(attempts, setup_s, peak_rss_mb)
    if trace:
        metrics = {}
        untraced = [a["wall_s"] for a in attempts if not a["traced"] and "failure" not in a]
        if layer_runs and untraced:
            per_run = [t.metrics(wall, untraced[0]) for t, wall in layer_runs]
            units = spans.per_layer_metric_units()
            metrics = {key: {"value": statistics.median(m[key] for m in per_run), "unit": unit}
                       for key, unit in units}
            spans_dir = out_root / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            layer_runs[0][0].save(spans_dir / f"{name}-seed{seed}.npz")
    else:
        metrics = {key: {"value": e2e[key], "unit": unit}
                   for key, unit in END_TO_END if e2e.get(key) is not None}

    steps = [s for a in attempts if "failure" not in a and not a["traced"] for s in a["step_s"]]
    tail = tail_percentile(len(steps))
    good = [a for a in attempts if "failure" not in a]
    record = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(seed),
        "perturbation_factor": workloads.perturbation_factor(
            seed, workloads.WORKLOADS[name].factor_range),
        "attempted": len(attempts),
        "failed": len(failures),
        "failures": failures,
        "fail_ratio": len(failures) / len(attempts),
        "result_drift": max((a["result_drift"] for a in good), default=None),
        "quantities": next((a["quantities"] for a in attempts if "quantities" in a), None),
        "setup_s_samples": setup_times,
        "instances": [{k: a.get(k) for k in ("traced", "wall_s", "solve_s", "failure")}
                      for a in attempts],
        "steps_timed": len(steps),
        "step_ms_tail": None if tail is None else
        {"percentile": tail, "value": _percentile_ms(steps, tail)},
        "end_to_end": e2e,
        "metrics": metrics,
    }
    result = {"correct": not failures, "attempted": len(attempts), "failed": len(failures),
              "metrics": metrics}
    return result, record


# -- every workload, one fresh interpreter each ----------------------------------------------


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _child(name, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run_bench.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr[-2000:]}")
    record_path = ROOT / ".bench_out" / "records" / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(record_path.read_text())


def run_all(seeds, seconds, trace, json_path):
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        records = []
        for seed in seeds:
            _, record = _child(name, seed, seconds, 0)
            records.append(record)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in record["end_to_end"].items() if v is not None),
                flush=True)
        entry = {"why": records[0]["why"], "metrics": {}, "runs": records}
        for key, unit in END_TO_END + STEP_METRICS:
            values = [r["end_to_end"][key] for r in records
                      if r["end_to_end"].get(key) is not None]
            if values:
                q1, med, q3 = quartiles(values)
                entry["metrics"][key] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "n": len(values), "spread": (q3 - q1) / med}
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        entry["fail_ratio"] = failed / attempted
        entry["result_drift_seed0"] = next(
            (r["result_drift"] for r in records if r["seed"] == 0), None)
        if trace:
            _, traced = _child(name, seeds[0], seconds, 1)
            entry["traced"] = traced
        summary["workloads"][name] = entry
    summary["machine"] = records[0]["machine"]
    summary["machine"].pop("seed")

    for name, entry in summary["workloads"].items():
        print(f"\n{name}: {entry['why']}")
        unbounded = dict(STEP_METRICS)
        for key, m in entry["metrics"].items():
            print(f"  {key:<14} median {m['median']:.6g} {m['unit']:<3} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']} spread {m['spread']:.3f}"
                  + (" (no bound)" if key in unbounded else ""))
        print(f"  {'fail_ratio':<14} {entry['fail_ratio']:.3g}")
        if entry["result_drift_seed0"] is not None:
            print(f"  {'result_drift':<14} {entry['result_drift_seed0']:.3g} (seed 0)")
        tail = entry["runs"][0]["step_ms_tail"]
        if tail is not None:
            print(f"  step_ms_p{tail['percentile']:<5} {tail['value']:.6g} ms "
                  f"(highest percentile with 10 steps beyond it, "
                  f"{entry['runs'][0]['steps_timed']} steps, seed {seeds[0]})")
        if trace:
            layer = entry["traced"]["metrics"]
            print(f"  traced: overhead {layer['trace.overhead_s']['value']:.3g} s, "
                  f"spans cover {layer['scheme.advance.covered_ratio']['value']:.3f} "
                  "of advance")
    if json_path:
        Path(json_path).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(e["fail_ratio"] == 0 for e in summary["workloads"].values()) else 1


# -- entry point -------------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default=None,
                        help="with --workload all: seeds to run, as 0-9 or 0,3,5")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None,
                        help="with --workload all: write the summary to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biofilm_fv" / "__init__.py").is_file():
        print(f"error: no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
        return run_all(seeds, seconds, args.trace, args.json)

    for key in THREAD_VARIABLES:  # before numpy is first imported
        os.environ[key] = "1"
    result, record = run_workload(args.workload, args.seed, seconds, args.trace)
    records_dir = ROOT / ".bench_out" / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    record_path = records_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for key, unit in STEP_METRICS:
            if record["end_to_end"].get(key) is not None:
                print(f"{key} {record['end_to_end'][key]:.6g} {unit} (no bound)")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
