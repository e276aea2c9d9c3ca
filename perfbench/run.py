"""qgrowth benchmark entry point.

Run from the root of a qgrowth checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around every call into the package.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads
and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("tables", "factorizations", "crosscheck")
#: Fresh processes timed from spawn to "trial list built"; setup_s is their median.
SETUP_PROBES = 5
#: Tail percentile: the highest one with at least this many samples above it.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_p50_s", "s"),
    ("trial_tail_s", "s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_SPANS = (
    "models.random_spec", "models.reduce_clean_qubits", "models.hybrid_truth_table",
    "fourier.restrict_spectrum", "fourier.signed_growth", "fourier.embed_spectrum",
    "fourier.hbqp_alpha_signed_growth", "decomposition.verify", "decomposition.decompose",
    "decomposition.brute_force_tensor", "decomposition.free_start_block",
    "decomposition.factor_operator_norms", "decomposition.random_decomposition_spec",
    "decomposition.spectrum_via_decomposition", "forrelation.tightness_circuit",
    "forrelation.forr", "forrelation.forr_dense",
)
_TABLE_MODELS = ("bqp", "dqck", "half_bqp")

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"models.truth_table.{m}.{what}", unit, better)
     for m in _TABLE_MODELS
     for what, unit, better in (("s", "s", "lower"), ("entries", "count", "lower"),
                                ("inputs_per_s", "1/s", "higher"))]
    + [
        ("models.truth_table.gflop", "GFLOP", "lower"),
        ("models.truth_table.gflop_per_s", "GFLOP/s", "higher"),
        ("models.truth_table.guard_headroom", "ratio", "higher"),
        ("models.hybrid_truth_table.entries", "count", "lower"),
        ("models.hybrid_truth_table.useful_ratio", "ratio", "higher"),
        ("models.acceptance_direct.s", "s", "lower"),
        ("models.acceptance_direct.calls", "count", "lower"),
        ("models.acceptance_formula.s", "s", "lower"),
        ("models.acceptance_formula.calls", "count", "lower"),
        ("fourier.spectrum_from_table.s", "s", "lower"),
        ("fourier.spectrum_from_table.points", "count", "lower"),
        ("fourier.growth.s", "s", "lower"),
        ("fourier.growth.calls", "count", "lower"),
        ("fourier.direct_restricted_spectrum.s", "s", "lower"),
        ("fourier.direct_restricted_spectrum.tuples", "count", "lower"),
        ("fourier.direct_restricted_spectrum.guard_headroom", "ratio", "higher"),
        ("decomposition.verify.rest_s", "s", "lower"),
        ("decomposition.brute_force_tensor.paths", "count", "lower"),
        ("decomposition.dense_svd.gflop", "GFLOP", "lower"),
        ("decomposition.dense_svd.max_dim", "count", "lower"),
        ("decomposition.augmented_dim.max", "count", "lower"),
        ("decomposition.augmented_dim.guard_headroom", "ratio", "higher"),
        ("bounds.checks", "count", "higher"),
        ("bounds.max_slack", "ratio", "lower"),
        ("cli.parity_rows", "count", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    + [(f"{name}.s", "s", "lower") for name in _SPANS]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the trial list (used to time set-up)")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median time from spawning a fresh process to its report that qgrowth
    is imported and this run's trial list is built."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE) as probe:
            # a blocking read: a timed wait() would poll in 50 ms steps
            ready = probe.stdout.readline()
            times.append(perf_counter() - start)
            probe.wait(timeout=120)
        if probe.returncode != 0 or ready.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return statistics.median(times)


def environment(workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "workers": workers,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
    }


def layer_metrics(tracer, traced_cycles: int, overhead: float, parity_rows: int) -> dict:
    from qgrowth.decomposition import AUGMENTED_DIM_GUARD
    from qgrowth.fourier import DIRECT_SUM_GUARD
    from qgrowth.linalg import MAX_QUBITS

    self_s = tracer.self_times()
    counts, peaks = tracer.counts, tracer.peaks

    def per_cycle(value):
        return value / traced_cycles

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for m in _TABLE_MODELS:
        span = f"models.truth_table.{m}"
        out[f"{span}.s"] = per_cycle(self_s.get(span, 0.0))
        out[f"{span}.entries"] = per_cycle(counts[f"{span}.entries"])
        out[f"{span}.inputs_per_s"] = rate(counts[f"{span}.entries"], self_s.get(span, 0.0))
    table_s = sum(self_s.get(f"models.truth_table.{m}", 0.0) for m in _TABLE_MODELS)
    gflop = counts["models.truth_table.flop"] / 1e9
    out["models.truth_table.gflop"] = per_cycle(gflop)
    out["models.truth_table.gflop_per_s"] = rate(gflop, table_s)
    out["models.truth_table.guard_headroom"] = (
        1 - peaks["models.truth_table.max_entries"] / (1 << MAX_QUBITS))
    hybrid = counts["models.hybrid_truth_table.entries"]
    out["models.hybrid_truth_table.entries"] = per_cycle(hybrid)
    out["models.hybrid_truth_table.useful_ratio"] = rate(
        counts["models.hybrid_truth_table.useful"], hybrid)
    for name, count in (("models.acceptance_direct", "calls"),
                        ("models.acceptance_formula", "calls"),
                        ("fourier.spectrum_from_table", "points"),
                        ("fourier.growth", "calls"),
                        ("fourier.direct_restricted_spectrum", "tuples")):
        out[f"{name}.s"] = per_cycle(self_s.get(name, 0.0))
        out[f"{name}.{count}"] = per_cycle(counts[f"{name}.{count}"])
    out["fourier.direct_restricted_spectrum.guard_headroom"] = (
        1 - peaks["fourier.direct_restricted_spectrum.max_tuples"] / DIRECT_SUM_GUARD)
    for name in _SPANS:
        out[f"{name}.s"] = per_cycle(self_s.get(name, 0.0))
    out["decomposition.verify.rest_s"] = out["decomposition.verify.s"] - sum(
        out[f"decomposition.{step}.s"]
        for step in ("decompose", "brute_force_tensor", "free_start_block", "factor_operator_norms"))
    out["decomposition.brute_force_tensor.paths"] = per_cycle(
        counts["decomposition.brute_force_tensor.paths"])
    out["decomposition.dense_svd.gflop"] = per_cycle(counts["decomposition.dense_svd.flop"] / 1e9)
    out["decomposition.dense_svd.max_dim"] = peaks["decomposition.dense_svd.max_dim"]
    out["decomposition.augmented_dim.max"] = peaks["decomposition.augmented_dim.max"]
    out["decomposition.augmented_dim.guard_headroom"] = (
        1 - peaks["decomposition.augmented_dim.max"] / AUGMENTED_DIM_GUARD)
    out["bounds.checks"] = per_cycle(counts["bounds.checks"])
    out["bounds.max_slack"] = peaks["bounds.max_slack"]
    out["cli.parity_rows"] = parity_rows
    roots = [(end - start, child)
             for (name, start, end, _, _), child in zip(tracer.spans, tracer.child_times())
             if name.startswith("trial.")]
    out["trace.overhead_ratio"] = overhead
    out["trace.coverage"] = rate(sum(c for _, c in roots), sum(d for d, _ in roots))
    return {name: out[name] for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qgrowth" / "__init__.py").is_file():
        print(f"perfbench: no qgrowth sources at {ROOT / 'src' / 'qgrowth'}; "
              "run from the root of a qgrowth checkout", file=sys.stderr)
        return 2
    # BLAS threads are fixed before numpy loads: table workers supply the
    # parallelism, and workers x BLAS threads stays within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    cycles = workloads.cycle_count(args.workload, args.seconds)
    if args.setup_probe:
        workloads.build(args.workload, args.seed, cycles)
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args)
    workers = os.cpu_count() or 1
    trials = workloads.build(args.workload, args.seed, cycles)
    tracer = Tracer(False)
    walls, outcomes = [], []
    limit = min(4 * args.seconds, 120.0)
    start = perf_counter()
    for idx, trial in enumerate(trials):
        if perf_counter() - start > limit:
            print(f"perfbench: time limit {limit:.0f} s reached after {idx} of "
                  f"{len(trials)} trials", file=sys.stderr)
            break
        tracer.enabled = bool(args.trace) and trial.cycle % 2 == 1
        tracer.trial = idx
        t0 = perf_counter()
        try:
            outcome = tracer.call(f"trial.{trial.kind}", workloads.run_trial,
                                  tracer, trial, workers)
        except Exception as exc:  # a trial that raises is a failed trial
            outcome = workloads.Outcome(False, f"{type(exc).__name__}: {exc}", raised=True)
        walls.append(perf_counter() - t0)
        outcomes.append(outcome)
        if tracer.enabled and trial.kind == "verify" and not outcome.raised:
            workloads.verify_substeps(tracer, trial)
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    done = trials[: len(outcomes)]

    OUT_DIR.mkdir(exist_ok=True)
    parity_errors, parity_known, parity_rows = [], [], 0
    for idx in workloads.parity_trials(args.workload, done):
        error, known = workloads.cli_parity(done[idx], outcomes[idx].rows, workers,
                                            OUT_DIR / f"cli-{args.workload}-{args.seed}.json")
        parity_rows += len(outcomes[idx].rows)
        parity_errors += [error] if error else []
        parity_known += [known] if known else []

    failed = [i for i, o in enumerate(outcomes) if not o.ok]
    unexpected = [i for i in failed if not done[i].known_defect or outcomes[i].raised]
    correct = not unexpected and not parity_errors

    n = len(walls)
    ordered = sorted(walls)
    tail_idx = max(0, n - TAIL_BEYOND - 1)
    if args.trace:
        traced = [w for w, t in zip(walls, done) if t.cycle % 2 == 1]
        plain = [w for w, t in zip(walls, done) if t.cycle % 2 == 0]
        # a run cut by the time limit may hold no traced unit
        traced_cycles = len({t.cycle for t in done if t.cycle % 2 == 1}) or 1
        plain_cycles = len({t.cycle for t in done if t.cycle % 2 == 0})
        overhead = (sum(traced) / traced_cycles) / (sum(plain) / plain_cycles)
        metrics = layer_metrics(tracer, traced_cycles, overhead, parity_rows)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "trials_per_s": n / elapsed,
            "trial_p50_s": statistics.median(walls),
            "trial_tail_s": ordered[tail_idx],
            "pass_ratio": (n - len(failed)) / n,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(workers),
        "cycles": cycles,
        "trials": {"planned": len(trials), "attempted": n, "measured_s": elapsed},
        "trial_tail": {"percentile": 100.0 * (tail_idx + 1) / n,
                       "samples_beyond": n - 1 - tail_idx, "samples": n},
        "failed_trials": [
            {"index": i, "kind": done[i].kind, "seed": done[i].seed,
             "params": done[i].params, "known_defect": done[i].known_defect,
             "detail": outcomes[i].detail}
            for i in failed
        ],
        "parity_errors": parity_errors,
        "parity_known_svds_nondeterminism": parity_known,
    }
    print(json.dumps(detail, default=str))
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
