"""Every script under scripts/ runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import intrarc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("make_demo_clip.py", ["--out", "clip.y4m", "--frames", "3", "--size", "64x64"]),
    ("make_training_csv.py", ["--out", "train.csv", "--samples", "200"]),
    ("closed_loop_experiment.py", ["--frames", "20", "--train-samples", "500", "--trees", "3",
                                   "--target-qps", "30"]),
    # fewer frames leave the RD curve of the noise baseline too short
    ("noise_baseline_experiment.py", ["--frames", "100", "--train-samples", "500",
                                      "--trees", "3", "--seeds", "1"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(intrarc.__file__)))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
