"""The functions the benchmark's traced run wraps still exist and are still called.

`perfbench/spans.py` wraps module attributes by name. A renamed or
deleted function breaks `perfbench/run.py --trace 1`, so this test runs
a tiny chain through the CLI under those wrappers and checks that every
wrapped name records a span and that no call fails.
"""

import itertools
import sys
from pathlib import Path

from intrarc import cli, features, forest, metrics
from intrarc import simulator as sim
from intrarc import video_io as vio

from conftest import make_frame

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import spans  # noqa: E402

WRAPPED = {
    "video_io.open_y4m.next",
    "features.extract_features", "features.plane_energy", "features.extract_sequence",
    "features.write_features_csv", "features.read_features_csv",
    "forest.read_training_csv", "forest.train_arrays", "forest.save", "forest.load",
    "forest.predict", "forest.predict_batch",
    "ratecontrol.build_first_pass", "ratecontrol.run_second_pass",
    "ratecontrol.write_trace_csv",
    "simulator.encoder",
    "metrics.bd_report",
}


def test_every_wrapped_name_records_a_span(tmp_path, rng):
    clip = tmp_path / "clip.y4m"
    vio.write_y4m(str(clip), [make_frame(rng, index=i) for i in range(3)])
    X, y = sim.generate_dataset(200, sim.SimParams(kappa=1.0), seed=1, pixels=64 * 64)
    forest.write_training_csv(str(tmp_path / "train.csv"), X, y)
    pairs = [(1e5, 30.0), (2e5, 33.0), (4e5, 36.0), (8e5, 39.0)]
    metrics.write_rd_csv(str(tmp_path / "anchor.csv"), metrics.RdCurve.from_pairs(pairs))
    metrics.write_rd_csv(str(tmp_path / "test.csv"),
                         metrics.RdCurve.from_pairs([(r * 1.1, p) for r, p in pairs]))
    commands = [
        f"analyze --input {clip} --threads 2 --out {tmp_path}/f.csv",
        f"train --data {tmp_path}/train.csv --trees 2 --max-depth 4 --holdout 0.2 "
        f"--threads 2 --out {tmp_path}/m.ircf",
        f"predict --model {tmp_path}/m.ircf --features {tmp_path}/f.csv --qp 32 "
        f"--out {tmp_path}/p.csv",
        f"rc --features {tmp_path}/f.csv --model {tmp_path}/m.ircf --bitrate 1e5 "
        f"--resolution 64x64 --trace {tmp_path}/t.csv",
        f"bdrate --anchor {tmp_path}/anchor.csv --test {tmp_path}/test.csv",
    ]

    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rec.stage = "chain"
        assert [cli.main(c.split()) for c in commands] == [cli.EXIT_OK] * len(commands)
        # Calls the CLI never makes: analysis with an explicit config, and one-row prediction.
        frames = itertools.islice(vio.open_y4m(str(clip)), 2)
        features.extract_sequence(frames, features.AnalyzerConfig(), threads=1)
        forest.predict(forest.load(str(tmp_path / "m.ircf")),
                       features.read_features_csv(str(tmp_path / "f.csv"))[0], 32)
    finally:
        rec.stage = ""
        uninstall()

    assert {s.name for s in rec.spans} == WRAPPED
    assert not rec.errors
