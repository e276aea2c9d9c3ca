"""Kill matrix of the checking code: the Tier-1 tests that fail under each mutation.

Each mutation loosens or breaks one checker or tolerance in ``src/qgrowth``.  For
each, the script copies the checkout (without ``.git`` and caches) to a temporary
directory, applies its text edits there, runs the Tier-1 suite in that copy and
prints the tests that fail or error.  A mutation that no test fails survives; the script
then exits 1.  The checkout itself is never edited.  pytest does not collect this
file (its name does not start with ``test_``).

    python tests/kill_matrix.py                          # all ten, one after another
    python tests/kill_matrix.py "cli.ZERO_TOL 1e-6"      # only the named ones
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: name: the (file under src/qgrowth, text, replacement) edits of one mutation; each
#: text must occur exactly once in its file.
MUTATIONS = {
    "every BQP and DQCK ceiling / 4": [
        ("bounds.py", "* big_n ** ((level - 1) / 2)\n", "* big_n ** ((level - 1) / 2) / 4\n"),
        ("bounds.py", "* comb(2 * d, level) * big_n ** ((level - 2) / 2)\n",
         "* comb(2 * d, level) * big_n ** ((level - 2) / 2) / 4\n")],
    "verify's entries pass at 1e-3": [
        ("decomposition.py", "bool(max_dev <= MATCH_TOL)", "bool(max_dev <= 1e-3)")],
    "verify's factor norms pass up to 2": [
        ("decomposition.py", "leq_tol(max(factor_norms), 1.0)", "leq_tol(max(factor_norms), 2.0)")],
    "verify's Frobenius bound x 2": [
        ("decomposition.py", "leq_tol(block_frob, min_input_frob)",
         "leq_tol(block_frob, 2 * min_input_frob)")],
    "LEQ_SLACK 1e-3": [("linalg.py", "LEQ_SLACK = 1e-9", "LEQ_SLACK = 1e-3")],
    "MATCH_TOL 1e-4": [("linalg.py", "MATCH_TOL = 1e-9", "MATCH_TOL = 1e-4")],
    "cli.ZERO_TOL 1e-6": [("cli.py", "ZERO_TOL = 1e-12", "ZERO_TOL = 1e-6")],
    "forrelation's |forr| <= 2": [
        ("cli.py", "abs(value) <= 1.0 + ZERO_TOL", "abs(value) <= 2.0 + ZERO_TOL")],
    "tightness's growth match at 1e-3": [
        ("cli.py", "abs(got_growth - expected_growth) <= MATCH_TOL",
         "abs(got_growth - expected_growth) <= 1e-3")],
    "UNITARY_TOL 1e-3": [("linalg.py", "UNITARY_TOL = 1e-9", "UNITARY_TOL = 1e-3")],
}


def failing_tests(edits) -> list:
    """Failing test ids of Tier-1 in a copy of the checkout with ``edits`` applied."""
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for rel, old, new in edits:
            path = copy / "src" / "qgrowth" / rel
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{old!r} occurs {text.count(old)} times in {rel}")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
    return re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - |$)", done.stdout, flags=re.MULTILINE)


def main(argv) -> int:
    names = argv or list(MUTATIONS)
    unknown = [name for name in names if name not in MUTATIONS]
    if unknown:
        raise SystemExit(f"unknown mutations {unknown}; known: {', '.join(MUTATIONS)}")
    survivors = []
    for name in names:
        failed = failing_tests(MUTATIONS[name])
        print(f"{name}: {len(failed)} failed", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
        if not failed:
            survivors.append(name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
