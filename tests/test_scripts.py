"""Smoke runs of each program in scripts/ at a tiny size."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pclab

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
