"""Command-line experiment harness.

Commands: growth, verify-decomposition, forrelation, tightness, spectrum,
reduce, hybrid-growth.  Every run is deterministic per seed, every emitted
table row carries the certified growth ceiling next to the observation, and every
artifact echoes its configuration.

Exit codes: 0 all checks passed, 1 a certified bound was violated (a genuine
finding), 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, fourier, forrelation
from .decomposition import random_decomposition_spec, verify
from .errors import ParameterError, ResourceLimitError
from .linalg import IndexSpace, leq_tol
from .models import (
    Model,
    Restriction,
    bias,
    hybrid_truth_table,
    load_spec,
    random_hybrid,
    random_restriction,
    random_spec,
    reduce_clean_qubits,
)

_USAGE_EXIT = 2
_VIOLATION_EXIT = 1


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(path, config: dict, header, rows) -> None:
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(path, config, header, rows, payload, fmt: str) -> None:
    if fmt == "json":
        _write_json(path, payload)
    else:
        _write_rows(path, config, header, rows)


def _parse_levels(text: str):
    return [int(part) for part in text.split(",") if part]


def _restriction_for(option, n, rng):
    if option is None:
        return Restriction.all_free(n)
    if option.startswith("random:"):
        fixed_prob = float(option.split(":", 1)[1])
        if not 0.0 <= fixed_prob <= 1.0:
            raise ParameterError(f"random:p needs 0 <= p <= 1, got {fixed_prob}")
        return random_restriction(n, rng, star_prob=1.0 - fixed_prob)
    return Restriction.from_string(option)


def _config_of(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


# ---------------------------------------------------------------------------
# commands


def cmd_growth(args) -> int:
    name = args.model.upper().replace("-", "_")
    if name == "DQC1":
        name, args.k = "DQCK", 1
    model = Model[name]
    if model is not Model.DQCK:
        args.k = 0
    space = IndexSpace.qubits(args.n, args.w, args.k)
    levels = _parse_levels(args.levels)
    rng = np.random.default_rng(args.seed)
    observed = {level: 0.0 for level in levels}
    for _ in range(args.trials):
        spec = random_spec(model, space, args.d, rng)
        rho = _restriction_for(args.restriction, space.oracle_dim, rng)
        base = fourier.spectrum_of_algorithm(spec, workers=args.workers)
        sp = fourier.restrict_spectrum(base, rho)
        for level in levels:
            observed[level] = max(observed[level], fourier.growth(sp, level))

    rows = []
    all_pass = True
    for level in levels:
        if model is Model.DQCK:
            ceiling = bounds.dqck_growth_ceiling(space.oracle_dim, args.k, args.d, level)
        else:
            ceiling = bounds.bqp_growth_ceiling(space.oracle_dim, args.d, level)
        ok = leq_tol(observed[level], ceiling)
        all_pass &= ok
        rows.append(
            (args.model, args.n, args.w, args.k, args.d, level, args.trials,
             observed[level], ceiling, "pass" if ok else "VIOLATION")
        )
    config = _config_of(args, ["model", "n", "w", "k", "d", "levels", "trials",
                               "seed", "restriction", "workers"])
    header = ["model", "n", "w", "k", "d", "level", "trials", "observed_max", "ceiling", "status"]
    payload = {
        "config": config,
        "rows": [dict(zip(header, row)) for row in rows],
        "pass": all_pass,
    }
    _emit(args.out, config, header, rows, payload, args.format)
    return 0 if all_pass else _VIOLATION_EXIT


def cmd_verify_decomposition(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = []
    all_pass = True
    for trial in range(args.trials):
        spec = random_decomposition_spec(rng)
        report = verify(spec)
        report["trial"] = trial
        reports.append(report)
        all_pass &= report["pass"]
    config = _config_of(args, ["trials", "seed"])
    payload = {"config": config, "reports": reports, "pass": all_pass}
    _write_json(args.out, payload)
    return 0 if all_pass else _VIOLATION_EXIT


def cmd_forrelation(args) -> int:
    rng = np.random.default_rng(args.seed)
    eps = args.eps if args.eps else forrelation.default_eps(args.k, 1 << args.n)
    rows = []
    ok = True
    for trial in range(args.trials):
        kind = "random" if trial % 2 == 0 else "forrelated"
        maker = forrelation.random_instance if kind == "random" else forrelation.forrelated_instance
        inst = maker(args.k, args.n, rng)
        value = forrelation.forr(inst)
        ok &= abs(value) <= 1.0 + 1e-12
        rows.append((trial, kind, value, forrelation.classify(inst, eps).name))
    config = _config_of(args, ["k", "n", "trials", "seed"])
    config["eps"] = eps
    header = ["id", "kind", "forr_value", "label"]
    payload = {"config": config, "rows": [dict(zip(header, r)) for r in rows], "pass": ok}
    _emit(args.out, config, header, rows, payload, args.format)
    return 0 if ok else _VIOLATION_EXIT


def cmd_tightness(args) -> int:
    circuit = forrelation.tightness_circuit(args.n, args.d)
    sp = fourier.spectrum_of_algorithm(circuit.spec, circuit.rho, workers=args.workers)
    size = circuit.block_size
    d = circuit.num_blocks
    magnitude = 1.0 / (2 * size * size ** (d / 2))
    expected_growth = forrelation.tightness_level_growth(args.n, args.d)
    got_growth = fourier.growth(sp, d)
    nonzero = np.flatnonzero(np.abs(sp.coeffs) > 1e-12)
    nonzero = nonzero[nonzero != 0]  # the empty set carries the 1/2 offset
    count_ok = nonzero.size == size**d
    magnitude_ok = bool(np.all(np.abs(np.abs(sp.coeffs[nonzero]) - magnitude) <= 1e-9))
    growth_ok = abs(got_growth - expected_growth) <= 1e-9
    payload = {
        "config": _config_of(args, ["n", "d", "seed", "workers"]),
        "level": d,
        "growth": got_growth,
        "expected_growth": expected_growth,
        "nonzero_coefficients": int(nonzero.size),
        "expected_nonzero": size**d,
        "coefficient_magnitude": magnitude,
        "pass": bool(growth_ok and count_ok and magnitude_ok),
    }
    _write_json(args.out, payload)
    print(f"tightness n={args.n} d={args.d}: growth {got_growth:.12g} "
          f"(expected {expected_growth:.12g}) -> {'PASS' if payload['pass'] else 'FAIL'}")
    return 0 if payload["pass"] else _VIOLATION_EXIT


def cmd_spectrum(args) -> int:
    if not args.spec:
        print("spectrum: --spec is required", file=sys.stderr)
        return _USAGE_EXIT
    spec, rho = load_spec(args.spec)
    rng = np.random.default_rng(args.seed)
    if args.restriction:
        rho = _restriction_for(args.restriction, spec.num_inputs, rng)
    sp = fourier.spectrum_of_algorithm(spec, rho, workers=args.workers)
    config = _config_of(args, ["spec", "restriction", "seed"])
    rows = [(mask, float(c)) for mask, c in enumerate(sp.coeffs)]
    payload = {"config": config, "num_vars": sp.num_vars,
               "coeffs": [float(c) for c in sp.coeffs]}
    _emit(args.out, config, ["mask", "coefficient"], rows, payload, args.format)
    return 0


def cmd_reduce(args) -> int:
    rng = np.random.default_rng(args.seed)
    space = IndexSpace.qubits(args.n, args.w, args.k)
    spec = random_spec(Model.DQCK, space, args.d, rng)
    reduced = reduce_clean_qubits(spec, args.t)
    scale = 2.0 ** (-(args.t + 1))
    n_inputs = space.oracle_dim
    worst = 0.0
    ratios = []
    for mask in range(1 << n_inputs):
        bits = (mask >> np.arange(n_inputs)) & 1
        x = np.where(bits == 0, 1.0, -1.0)
        before = bias(spec, x)
        after = bias(reduced, x)
        worst = max(worst, abs(after - scale * before))
        if abs(before) > 1e-6:
            ratios.append(after / before)
    ok = worst <= 1e-9
    payload = {
        "config": _config_of(args, ["n", "w", "k", "d", "t", "seed"]),
        "expected_ratio": scale,
        "median_observed_ratio": float(np.median(ratios)) if ratios else float("nan"),
        "max_pointwise_deviation": worst,
        "pass": ok,
    }
    _write_json(args.out, payload)
    print(f"reduce t={args.t}: pointwise bias ratio {scale} "
          f"(max deviation {worst:.3g}) -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else _VIOLATION_EXIT


def cmd_hybrid_growth(args) -> int:
    space = IndexSpace.qubits(args.n, args.w, args.k)
    levels = _parse_levels(args.levels)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_pass = True
    for trial in range(args.trials):
        depth = int(rng.integers(1, min(args.d, space.oracle_dim) + 1))
        hybrid = random_hybrid(Model.DQCK, space, args.d, rng, depth=depth)
        sp = fourier.spectrum_from_table(hybrid_truth_table(hybrid, workers=args.workers))
        for level in levels:
            got = fourier.growth(sp, level)
            ceiling = bounds.hybrid_dqck_growth_ceiling(space.oracle_dim, args.k, args.d, level)
            ok = leq_tol(got, ceiling)
            all_pass &= ok
            rows.append((trial, depth, level, got, ceiling, "pass" if ok else "VIOLATION"))
    config = _config_of(args, ["n", "w", "k", "d", "levels", "trials", "seed", "workers"])
    header = ["trial", "depth", "level", "observed", "ceiling", "status"]
    payload = {"config": config, "rows": [dict(zip(header, r)) for r in rows], "pass": all_pass}
    _emit(args.out, config, header, rows, payload, args.format)
    return 0 if all_pass else _VIOLATION_EXIT


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrowth",
        description="Fourier-growth laboratory for noisy quantum query algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="random-algorithm growth vs certified ceilings")
    p.add_argument("--model", choices=["bqp", "dqck", "dqc1"], default="dqck")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--levels", default="2,3")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--restriction", default=None,
                   help="fixed pattern over '+-*' or 'random:p' (p = fix probability)")
    _add_common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify-decomposition", help="factorization guarantees on random specs")
    p.add_argument("--trials", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("forrelation", help="amplitude evaluation and classification")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--eps", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_forrelation)

    p = sub.add_parser("tightness", help="growth-saturating circuit certification")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("spectrum", help="exact spectrum of a JSON algorithm spec")
    p.add_argument("--spec", default=None, help="path to an algorithm-spec JSON document")
    p.add_argument("--restriction", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("reduce", help="clean-qubit reduction bias certification")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hybrid-growth", help="classical-pre-processing growth ceilings")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--levels", default="2,3")
    p.add_argument("--trials", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_hybrid_growth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return _USAGE_EXIT
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except Exception as exc:  # exit 1 is reserved for violated bounds
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
