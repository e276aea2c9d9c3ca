"""Command-line experiment harness.

Commands: growth, verify-decomposition, forrelation, tightness, spectrum,
reduce, hybrid-growth.  Every run is deterministic per seed, every emitted
table row carries the certified growth ceiling next to the observation, and every
artifact echoes its configuration: every option except --out, --format and
--workers, which cannot change a result.  --format (csv or json) exists only
for the commands that write rows: growth, forrelation, spectrum and
hybrid-growth.  --seed, --restriction, --levels (distinct, in [L, N]: L = 2 for
the mixed-start ceilings of dqck, dqc1 and hybrid-growth, else 1), --d,
--k, --t, --w, --n and --eps (positive, finite) are checked, by name, before any
gate or instance is drawn (growth's --k: default 1 for dqck, only 1 for dqc1, no
effect but >= 0 for bqp and half-bqp, which echo 0), and so are the two caps: a
truth table or forrelation instance of at most 2^20 entries and a register of at
most 2^12 dimensions (reduce's 4M-dimensional reduced register included).
Summary lines and notes go to stderr, so stdout without --out holds only the
output.  ``main`` returns the exit code.

Exit codes: 0 all checks passed, 1 a certified bound was violated (a genuine
finding), 2 usage or resource error, or a reader that closed stdout or stderr.
Every refusal, argparse's usage errors included, goes through ``_run``'s one
handler as one line: a ``ValueError`` prints ``error: <message>``, a
``ResourceLimitError`` ``resource error: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, fourier, forrelation
from .decomposition import random_decomposition_spec, verify
from .errors import ResourceLimitError
from .linalg import (MATCH_TOL, MAX_QUBITS, IndexSpace, check_register_size, check_table_size,
                     leq_tol)
from .models import (
    Model,
    Restriction,
    hybrid_truth_table,
    load_spec,
    random_hybrid,
    random_restriction,
    random_spec,
    reduce_clean_qubits,
    truth_table,
)

_USAGE_EXIT = 2
_VIOLATION_EXIT = 1

#: Parsed options left out of the echoed config, since none can change a
#: result: ``command`` and ``func`` name the command the output comes from,
#: and ``out``, ``format`` and ``workers`` choose where and how it is written.
_NOT_ECHOED = frozenset({"command", "func", "out", "format", "workers"})

#: (option, lowest value) of the integer options checked before any command runs;
#: a command without the option skips its check.
_LOWEST = (("workers", 1), ("seed", 0), ("trials", 1), ("d", 1), ("w", 0))

#: Rounding allowance on exact values: a tightness coefficient at or below it
#: is zero, and a forrelation amplitude may exceed 1 by it.
ZERO_TOL = 1e-12
#: Smallest |bias| whose ratio enters reduce's median observed ratio.
RATIO_FLOOR = 1e-6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _report(args, payload: dict, header=None, rows=None) -> int:
    """Write a run's output to ``--out`` (default stdout); exit 1 if ``payload["pass"]`` is false.

    The echoed config is every parsed option that is not None, minus ``_NOT_ECHOED``.
    With ``rows`` and ``--format csv`` it writes ``# <config>``, the header and
    the rows, else ``{"config": config, **payload}`` as sorted JSON.
    """
    config = {key: value for key, value in vars(args).items()
              if value is not None and key not in _NOT_ECHOED}
    if rows is not None and args.format == "csv":
        lines = ["# " + json.dumps(config, sort_keys=True), ",".join(header)]
        lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                  for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        _write_stdout(text)
    return 0 if payload.get("pass", True) else _VIOLATION_EXIT


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout in full.

    Unbuffered (``python -u``, ``PYTHONUNBUFFERED``), ``sys.stdout`` drops what a
    short write leaves, and a pipe whose reader leaves mid-write gives one; writing
    the rest until none remains turns that reader's exit into a ``BrokenPipeError``.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[buffer.write(data):]


def _parse_levels(text: str, allowed: range):
    """``--levels`` as distinct integers in ``allowed``, [L, N]: L is the lowest level
    the command's ceiling covers, and a level above N has no subsets."""
    try:
        levels = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--levels takes comma-separated integers, got {text!r}") from None
    if len(set(levels)) < len(levels):
        raise ValueError(f"--levels needs distinct levels, at least one, got {text!r}")
    if not all(level in allowed for level in levels):
        raise ValueError(f"--levels needs levels >= {allowed.start} and "
                         f"<= N = {allowed.stop - 1}, got {text!r}")
    return levels


def _qubit_space(args) -> IndexSpace:
    """The register space of ``--n``, ``--w`` and ``--k``, refusing ``--n`` by name
    (``_run`` has refused ``--w`` and each command that reads ``--k`` a bad one)."""
    if not 1 <= args.n <= MAX_QUBITS:
        raise ValueError(f"--n must lie in [1, {MAX_QUBITS}], got {args.n}")
    return IndexSpace.qubits(args.n, args.w, args.k)


def _restrictions(option, n):
    """Check ``--restriction`` for n inputs before any gate is drawn; return its per-trial draw."""
    if option is None:
        return lambda rng: Restriction.all_free(n)
    if option.startswith("random:"):
        text = option.split(":", 1)[1]
        try:
            fixed_prob = float(text)
        except ValueError:
            raise ValueError(f"random:p needs a number p in [0, 1], got {text!r}") from None
        if not 0.0 <= fixed_prob <= 1.0:
            raise ValueError(f"random:p needs 0 <= p <= 1, got {fixed_prob}")
        return lambda rng: random_restriction(n, rng, star_prob=1.0 - fixed_prob)
    rho = Restriction.from_string(option)
    if len(rho) != n:
        raise ValueError(f"--restriction has length {len(rho)}, needs one per input ({n})")
    return lambda rng: rho


def _finite(value: float, what: str) -> float:
    """An observation to certify: NaN or inf is an error, never a violation."""
    if not np.isfinite(value):
        raise ValueError(f"{what} is not finite: {value}")
    return value


# ---------------------------------------------------------------------------
# commands


def cmd_growth(args) -> int:
    name = args.model.upper().replace("-", "_")
    model = Model["DQCK" if name == "DQC1" else name]
    if name == "DQC1" and args.k not in (None, 1):
        raise ValueError(f"DQC1 has exactly one clean qubit, got --k {args.k}")
    if model is Model.DQCK and args.k is not None and args.k < 1:
        raise ValueError(f"DQCK needs at least one clean qubit, got --k {args.k}")
    if model is not Model.DQCK and args.k is not None and args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")
    args.k = (1 if args.k is None else args.k) if model is Model.DQCK else 0  # no effect on BQP
    space = _qubit_space(args)
    levels = _parse_levels(args.levels, range(2 if model is Model.DQCK else 1,
                                              space.oracle_dim + 1))
    if model is Model.DQCK:
        ceilings = {level: bounds.dqck_growth_ceiling(space.oracle_dim, args.k, args.d, level)
                    for level in levels}
    else:
        ceilings = {level: bounds.bqp_growth_ceiling(space.oracle_dim, args.d, level)
                    for level in levels}
    check_table_size(space.oracle_dim)
    draw_restriction = _restrictions(args.restriction, space.oracle_dim)
    rng = np.random.default_rng(args.seed)
    observed = {level: 0.0 for level in levels}
    for _ in range(args.trials):
        spec = random_spec(model, space, args.d, rng)
        rho = draw_restriction(rng)
        base = fourier.spectrum_of_algorithm(spec, workers=args.workers)
        sp = fourier.restrict_spectrum(base, rho)
        for level in levels:
            got = _finite(fourier.growth(sp, level), f"level-{level} growth")
            observed[level] = max(observed[level], got)

    header = ["model", "n", "w", "k", "d", "level", "trials", "observed_max", "ceiling", "status"]
    rows = [(args.model, args.n, args.w, args.k, args.d, level, args.trials, observed[level],
             ceilings[level], "pass" if leq_tol(observed[level], ceilings[level]) else "VIOLATION")
            for level in levels]
    code = _report(args, {"rows": [dict(zip(header, row)) for row in rows],
                          "pass": all(row[-1] == "pass" for row in rows)}, header, rows)
    if args.restriction is None:
        # x -> -x multiplies every state by (-1)^d, so f(-x) = f(x); the same
        # symmetry lets truth_table simulate only half of an unrestricted cube
        for level in levels:
            if level % 2:
                print(f"note: level {level} is exactly 0 without --restriction",
                      file=sys.stderr)
    return code


def cmd_verify_decomposition(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = [{**verify(random_decomposition_spec(rng)), "trial": trial}
               for trial in range(args.trials)]
    return _report(args, {"reports": reports, "pass": all(r["pass"] for r in reports)})


def cmd_forrelation(args) -> int:
    if not 1 <= args.n <= forrelation.FORR_MAX_N:
        raise ValueError(f"--n must lie in [1, {forrelation.FORR_MAX_N}], got {args.n}")
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.eps is not None and not 0 < args.eps < np.inf:  # NaN fails too
        raise ValueError(f"--eps must be positive and finite, got {args.eps}")
    forrelation.check_instance_size(args.k, args.n)
    rng = np.random.default_rng(args.seed)
    if args.eps is None:
        if args.n == 1:
            raise ValueError("--n 1 has no default --eps; pass one")
        args.eps = forrelation.default_eps(args.k, 1 << args.n)
        if args.eps == 0.0:
            raise ValueError(f"--k {args.k} at --n {args.n} rounds the default --eps "
                             f"(log2 N)^-k to 0.0; pass --eps")
    rows = []
    ok = True
    for trial in range(args.trials):
        kind = "random" if trial % 2 == 0 else "forrelated"
        maker = forrelation.random_instance if kind == "random" else forrelation.forrelated_instance
        inst = maker(args.k, args.n, rng)
        value = forrelation.forr(inst)
        ok &= abs(value) <= 1.0 + ZERO_TOL
        rows.append((trial, kind, value, forrelation.classify(value, args.eps).name))
    header = ["id", "kind", "forr_value", "label"]
    return _report(args, {"rows": [dict(zip(header, r)) for r in rows], "pass": ok},
                   header, rows)


def cmd_tightness(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    circuit = forrelation.tightness_circuit(args.n, args.d)
    sp = fourier.spectrum_of_algorithm(circuit.spec, circuit.rho, workers=args.workers)
    want = forrelation.tightness_spectrum(circuit).coeffs
    d = circuit.num_blocks
    expected_growth = forrelation.tightness_level_growth(args.n, args.d)
    got_growth = fourier.growth(sp, d)
    nonzero = np.flatnonzero(np.abs(sp.coeffs) > ZERO_TOL)
    nonzero = nonzero[nonzero != 0]  # the empty set carries the 1/2 offset
    expected_nonzero = int(np.count_nonzero(want[1:]))
    coeffs_ok = bool(np.all(np.abs(sp.coeffs - want) <= MATCH_TOL))
    growth_ok = abs(got_growth - expected_growth) <= MATCH_TOL
    passed = bool(growth_ok and nonzero.size == expected_nonzero and coeffs_ok)
    code = _report(args, {
        "level": d,
        "growth": got_growth,
        "expected_growth": expected_growth,
        "nonzero_coefficients": int(nonzero.size),
        "expected_nonzero": expected_nonzero,
        "coefficient_magnitude": float(np.abs(want[1:]).max()),
        "pass": passed,
    })
    print(f"tightness n={args.n} d={args.d}: growth {got_growth:.12g} "
          f"(expected {expected_growth:.12g}) -> {'PASS' if passed else 'FAIL'}",
          file=sys.stderr)
    return code


def cmd_spectrum(args) -> int:
    if not args.spec:
        raise ValueError("--spec is required")
    spec, rho = load_spec(args.spec)
    if args.restriction is not None:
        rho = _restrictions(args.restriction, spec.num_inputs)(np.random.default_rng(args.seed))
    sp = fourier.spectrum_of_algorithm(spec, rho, workers=args.workers)
    coeffs = sp.coeffs.tolist()
    return _report(args, {"num_vars": sp.num_vars, "coeffs": coeffs},
                   ["mask", "coefficient"], list(enumerate(coeffs)))


def cmd_reduce(args) -> int:
    if not 1 <= args.t < args.k:
        raise ValueError(f"need 1 <= t < k (k={args.k}), got t={args.t}")
    rng = np.random.default_rng(args.seed)
    space = _qubit_space(args)
    check_table_size(space.oracle_dim)
    check_register_size(4 * space.total_dim)  # the reduced register, before any draw
    spec = random_spec(Model.DQCK, space, args.d, rng)
    reduced = reduce_clean_qubits(spec, args.t)
    scale = 2.0 ** (-(args.t + 1))
    before = 2 * truth_table(spec, workers=args.workers) - 1
    after = 2 * truth_table(reduced, workers=args.workers) - 1
    worst = float(np.max(np.abs(after - scale * before)))
    counted = np.abs(before) > RATIO_FLOOR
    ok = worst <= MATCH_TOL
    code = _report(args, {
        "expected_ratio": scale,
        "median_observed_ratio": (float(np.median(after[counted] / before[counted]))
                                  if counted.any() else float("nan")),
        "max_pointwise_deviation": worst,
        "pass": ok,
    })
    print(f"reduce t={args.t}: pointwise bias ratio {scale} "
          f"(max deviation {worst:.3g}) -> {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return code


def cmd_hybrid_growth(args) -> int:
    if args.k < 1:
        raise ValueError(f"DQCK needs at least one clean qubit, got --k {args.k}")
    space = _qubit_space(args)
    levels = _parse_levels(args.levels, range(2, space.oracle_dim + 1))
    ceilings = {level: bounds.hybrid_dqck_growth_ceiling(space.oracle_dim, args.k, args.d, level)
                for level in levels}
    check_table_size(space.oracle_dim)
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        depth = int(rng.integers(1, min(args.d, space.oracle_dim) + 1))
        hybrid = random_hybrid(Model.DQCK, space, args.d, rng, depth=depth)
        sp = fourier.spectrum_from_table(hybrid_truth_table(hybrid, workers=args.workers))
        for level in levels:
            got = _finite(fourier.growth(sp, level), f"level-{level} growth")
            ok = leq_tol(got, ceilings[level])
            rows.append((trial, depth, level, got, ceilings[level], "pass" if ok else "VIOLATION"))
    header = ["trial", "depth", "level", "observed", "ceiling", "status"]
    return _report(args, {"rows": [dict(zip(header, r)) for r in rows],
                          "pass": all(r[-1] == "pass" for r in rows)}, header, rows)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ValueError``, so ``_run``'s one handler prints them on one line."""

    def error(self, message):
        raise ValueError(message)


def _add_common(parser: argparse.ArgumentParser, rows: bool = False) -> None:
    """Options every command takes; ``rows`` adds ``--format`` for commands that write rows."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if rows:
        parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qgrowth",
        description="Fourier-growth laboratory for noisy quantum query algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="random-algorithm growth vs certified ceilings")
    p.add_argument("--model", choices=["bqp", "dqck", "dqc1", "half-bqp"], default="dqck")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="clean qubits (DQCK default 1)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--levels", default="2,3")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--restriction", default=None,
                   help="fixed pattern over '+-*' or 'random:p' (p = fix probability)")
    _add_common(p, rows=True)
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
    _add_common(p, rows=True)
    p.set_defaults(func=cmd_forrelation)

    p = sub.add_parser("tightness", help="growth-saturating circuit certification")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("spectrum", help="exact spectrum of a JSON algorithm spec")
    p.add_argument("--spec", default=None, help="path to an algorithm-spec JSON document")
    p.add_argument("--restriction", default=None)
    _add_common(p, rows=True)
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
    _add_common(p, rows=True)
    p.set_defaults(func=cmd_hybrid_growth)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # a reader closed stdout or stderr: no traceback, no exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit cannot fail
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        return _USAGE_EXIT


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes a pattern such as -+* for an option
        if argv[i - 1] == "--restriction" and argv[i] and not argv[i].strip("+-*"):
            argv[i - 1 : i + 1] = [f"--restriction={argv[i]}"]
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help: return its code, do not exit
            return exc.code
        for option, lowest in _LOWEST:
            value = getattr(args, option, lowest)
            if value < lowest:
                raise ValueError(f"--{option} must be >= {lowest}, got {value}")
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
