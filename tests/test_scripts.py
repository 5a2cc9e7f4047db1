"""Smoke runs of each program in scripts/ at a tiny size."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pclab
from pclab.exactpow import as_ratio

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    "census_sweep.py": ["--max-x", "1e3"],
    "constants_dossier.py": ["--steps", "1"],
    "expsum_ratio_scan.py": ["--n-grid", "50"],
    "peak_memory.py": ["ps_prime_count", "--x", "1e3", "-c", "3/2"],
}


@pytest.mark.parametrize("script", list(RUNS))
def test_script_prints_one_json_object_per_line(script):
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *RUNS[script]], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(isinstance(json.loads(line), dict) for line in lines)


# a stand-in for perfbench/run.py: it logs which side's copy ran it, with its
# arguments and directory, and reports that side's wall_s
_FAKE_RUN = '''import json, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
text = (root / "side.py").read_text()
side = "null" if "_UNUSED" in text else text.split('"')[1]
with open({log!r}, "a") as f:
    f.write(" ".join([side, *sys.argv[1:], str(root)]) + "\\n")
print("workload lines")
wall = {{"parent": 2.0, "change": 1.0, "null": 2.5}}[side]
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {{"wall_s": {{"value": wall, "unit": "s"}}}}}}))
'''


def test_bench_pairs_alternates_fresh_copies(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN.format(log=str(log)))
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 0.5}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    for side in ("parent", "change"):
        (repo / "side.py").write_text(f'SIDE = "{side}"\n')
        subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
        subprocess.run([*git, "commit", "-qm", side], cwd=repo, check=True)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_pairs.py"), "HEAD~1", "HEAD", "--workload", "suite",
                           "--seeds", "1", "2", "--pairs", "3", "--null", "side.py"],
                          cwd=repo, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    runs = [line.split() for line in log.read_text().splitlines()]
    triplets = ["parent", "change", "null", "change", "parent", "null", "parent", "change", "null"]
    assert [r[0] for r in runs] == triplets * 2
    assert [r[1:7] for r in runs] == [["--workload", "suite", "--seed", s, "--seconds", "0.5"]
                                      for s in "12" for _ in triplets]
    assert len({r[7] for r in runs}) == len(runs)  # a fresh copy for every run

    out = json.loads(proc.stdout)
    assert list(out) == ["command", "parent_commit", "change_commit", "null_file", "nproc", "python", "numpy",
                         "mpmath", "pairs", "runs"]
    assert list(out["runs"]) == ["suite"] and list(out["runs"]["suite"]) == ["1", "2"]
    seed = out["runs"]["suite"]["1"]
    assert list(seed) == ["order", "attempted", "failed", "metrics"]
    assert seed["order"] == triplets
    assert seed["failed"] == {"parent": [0] * 3, "change": [0] * 3, "null": [0] * 3}
    wall = seed["metrics"]["wall_s"]
    assert list(wall) == ["unit", "parent", "change", "null"]
    assert wall["parent"] == {"runs": [2.0] * 3, "median": 2.0, "quartiles": [2.0, 2.0]}
    assert wall["change"] == {"runs": [1.0] * 3, "median": 1.0, "quartiles": [1.0, 1.0],
                              "lower": "3 of 3", "vs_parent": "-50.0 %"}
    assert wall["null"]["lower"] == "0 of 3" and wall["null"]["vs_parent"] == "+25.0 %"


def _peak_memory():
    spec = importlib.util.spec_from_file_location("peak_memory", SCRIPTS / "peak_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cliff_names_a_known_call_with_valid_arguments():
    # checked without running the set: each entry parses, binds to its
    # function's signature, and every argument is a positive ratio or count
    pm = _peak_memory()
    ap = pm.parser()
    calls = []
    for argv in pm.CLIFFS:
        args = ap.parse_args(argv)
        _, bound = pm.bind(args)  # a TypeError if the arguments do not fit the signature
        assert all(as_ratio(v) > 0 for v in bound.arguments.values()), argv
        calls.append(args.call)
    assert calls == ["almost_prime_census"] * 4 + ["squarefree_census", "weyl_sum", "prime_expsum", "triple_sum",
                                                    "ps_prime_count", "squarefree_census", "margin_verify"]


@pytest.mark.parametrize("argv", [["weyl_sum", "--x", "1e3", "-c", "5/2"],
                                  ["prime_expsum", "--x", "1e3", "-c", "7/2", "--h", "3", "--d", "7"],
                                  ["triple_sum", "--x", "1e3", "--D", "2", "--H", "2", "-c", "77/10"],
                                  ["margin_verify", "-c", "15", "--eps", "10"]])
def test_peak_memory_measures_the_sums_and_margins(argv):
    pm = _peak_memory()
    line = pm.measure(pm.parser().parse_args(argv))
    assert list(line) == ["call", "args", "wall_s", "peak_rss_mb"] and line["call"] == argv[0]
