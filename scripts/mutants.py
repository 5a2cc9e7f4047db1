#!/usr/bin/env python3
"""The mutation catalogue: each mutant breaks one rule of pclab, and the tests
it names must catch it.

MUTANTS lists (file, exact source text, replacement, tests); the text occurs
exactly once in the file, and tests are test files or pytest node ids. For
each distinct set of tests, one run on a fresh `git archive` copy of COMMIT
must pass, or the script stops. Then for each mutant it makes a fresh copy,
replaces the text, and runs `python -m pytest -q -x` on the named tests with
the copy's src on PYTHONPATH: the mutant is killed when pytest fails and
survives when it passes.

Prints one JSON line per mutant, with the first test that failed (null for
a survivor), and a summary line (mutants, killed, the survivors, wall
seconds); exits 1 if any mutant survives.

Usage: python scripts/mutants.py [COMMIT]
Run from the root of the repository's checkout; COMMIT defaults to HEAD.
"""
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import fresh_copy

EXPERIMENTS = "src/pclab/experiments.py"
ACCEPTANCE = "src/pclab/acceptance.py"
FACTOR = "src/pclab/factor.py"
ORACLE_TESTS = ("tests/test_acceptance.py::test_oracle_kernel_matches_100_digits",
                "tests/test_acceptance.py::test_oracles_match_a_cos_sin_evaluation",
                "tests/test_acceptance.py::test_oracle_doubles_at_criterion_12_inputs_are_pinned",
                "tests/test_acceptance.py::test_criterion[12]")

MUTANTS = (
    # the census's log2 bound, once per block: Omega(m) <= bit_length - 1 of
    # the block's last member, not one less, and the bound itself passes
    (EXPERIMENTS, "lambda top: R >= top.bit_length() - 1", "lambda top: R >= top.bit_length() - 2",
     ("tests/test_experiments.py",)),
    (EXPERIMENTS, "lambda top: R >= top.bit_length() - 1", "lambda top: R > top.bit_length() - 1",
     ("tests/test_experiments.py",)),
    (EXPERIMENTS, "passes_all(int(vals[-1]))", "passes_all(int(vals[0]))", ("tests/test_experiments.py",)),
    # the pool: serial while one chunk holds every member, _CHUNK to a task
    (EXPERIMENTS, "if jobs <= 1 or len(items) <= chunksize:", "if jobs <= 1 or len(items) < chunksize:",
     ("tests/test_experiments.py",)),
    (EXPERIMENTS, "ex.map(func, items, chunksize=chunksize)", "ex.map(func, items)",
     ("tests/test_experiments.py",)),
    # members is one block, laid out by its last floor
    (EXPERIMENTS, "    return ps, _block_floors(ps, c, caps)\n", "    return ps, floor_pow_batch(ps, c, caps)\n",
     ("tests/test_experiments.py",)),
    # an object block's floors below 2^62 come from one batch
    (EXPERIMENTS, "k = bisect_left(ps, TWO62,", "k = 0 and bisect_left(ps, TWO62,", ("tests/test_experiments.py",)),
    (EXPERIMENTS, "k = bisect_left(ps, TWO62,", "k = bisect_left(ps, TWO64,", ("tests/test_experiments.py",)),
    # the residue plan: _PARTNERS offers, each modulus covered once
    (EXPERIMENTS, "if offered == _PARTNERS or", "if offered > _PARTNERS or", ("tests/test_experiments.py",)),
    (EXPERIMENTS, "if q <= D and not covered[q]:", "if q <= D:", ("tests/test_experiments.py",)),
    # --config: the file's defaults reach the second parse
    ("src/pclab/cli.py", "            _apply_config(ap, args.config)\n            args = ap.parse_args(argv)\n",
     "            _apply_config(ap, args.config)\n", ("tests/test_cli.py",)),
    # criterion 12's fixed-point oracles
    (ACCEPTANCE, "u = to_fixed(t, _K) & mask", "u = to_fixed(t, _K)", ORACLE_TESTS),
    (ACCEPTANCE, "from_man_exp(u, 1 - _K)", "from_man_exp(u, -_K)", ORACLE_TESTS),
    (ACCEPTANCE, "    a, b = ce.num, ce.den\n", "    a, b, _K = ce.num, ce.den, 100\n", ORACLE_TESTS),
    (ACCEPTANCE, "power((l_scale + 1 + li) * (m_scale + 1 + mi))", "power((m_scale + 1 + li) * (l_scale + 1 + mi))",
     ORACLE_TESTS),
    (ACCEPTANCE, "_oracle_sum(logs, ", "_oracle_sum(repeat(1 << _K), ", ORACLE_TESTS),
    # _factorize's stop rule and factor_signature's table walk
    (FACTOR, "        if m < q2:\n", "        if m <= q2:\n", ("tests/test_factor.py",)),
    (FACTOR, "        if m < q2:\n            if m > 1:\n                factors[m] = 1\n",
     "        if m < q2:\n            if m > 1:\n                pass\n", ("tests/test_factor.py",)),
    (FACTOR, "            if p == q:\n                squarefree = False",
     "            if p != q:\n                squarefree = False", ("tests/test_factor.py",)),
    (FACTOR, "        if m == q:\n            squarefree = False", "        if m == 1:\n            squarefree = False",
     ("tests/test_factor.py",)),
)


def _failure(commit: str, tests, mutant=None) -> str | None:
    """pytest's first FAILED or ERROR line on tests in a fresh copy of commit,
    with mutant's text replaced; None when they pass."""
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        fresh_copy(commit, tmp)
        if mutant:
            path, old, new = Path(tmp) / mutant[0], mutant[1], mutant[2]
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{mutant[0]}: {old!r} occurs {text.count(old)} times at {commit}")
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    return next((line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))),
                f"pytest exited {proc.returncode}")


def main() -> int:
    commit = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    t0 = time.perf_counter()
    for tests in dict.fromkeys(m[3] for m in MUTANTS):
        failure = _failure(commit, tests)
        if failure:
            raise SystemExit(f"{failure} at {commit} before any mutation")
    survivors = []
    for i, (path, old, new, tests) in enumerate(MUTANTS):
        t = time.perf_counter()
        failure = _failure(commit, tests, (path, old, new))
        if not failure:
            survivors.append(i)
        print(json.dumps({"mutant": i, "file": path, "text": old, "replacement": new, "tests": list(tests),
                          "killed_by": failure, "seconds": round(time.perf_counter() - t, 1)}), flush=True)
    print(json.dumps({"mutants": len(MUTANTS), "killed": len(MUTANTS) - len(survivors), "survivors": survivors,
                      "wall_s": round(time.perf_counter() - t0, 1)}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
