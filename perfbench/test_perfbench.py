"""Self-test of the benchmark at toy sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, chain  # noqa: E402
from perfbench.launcher import Launcher  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def launcher():
    launcher = Launcher()
    yield launcher
    launcher.close()


def toy_run(launcher, trace: bool, workload: str = "toy") -> bench.Run:
    return bench.Run(launcher, ROOT, workload, chain.TOY, SEED, 1, trace)


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_plain_run_emits_every_end_to_end_metric(launcher):
    result = toy_run(launcher, trace=False).execute()
    assert (result["correct"], result["failed"]) == (True, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_with_identical_outputs(launcher):
    plain = toy_run(launcher, trace=False)
    plain.execute()
    traced = toy_run(launcher, trace=True)
    result = traced.execute()
    assert (result["correct"], result["failed"]) == (True, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # outputs of the CLI in child processes and of the wrapped in-process run
    assert bench.compare_outputs(plain.dir / "cycle0", traced.dir / "cycle0" / "traced") == []


def truncate_features(out: Path) -> None:
    path = out / "features_1080p.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def corrupt_model(out: Path) -> None:
    path = out / "model.ircf"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_bad_outputs_count_as_failed_without_stopping_the_run(launcher):
    run = toy_run(launcher, trace=False, workload="toy-tampered")
    result = run.execute(tamper={"analyze_1080p": truncate_features, "train": corrupt_model})
    assert (result["correct"], result["failed"]) == (False, 2)
    record = json.loads((run.results / f"{run.dir.name}.json").read_text())
    failed = {c["stage"]: c["problems"] for c in record["calls"] if c["problems"]}
    assert set(failed) == {"analyze_1080p", "train"}
    assert "bdrate" in {c["stage"] for c in record["calls"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
