"""Workloads and one cycle of the analyze -> train -> predict -> rc -> bdrate chain.

A cycle is one closed-loop client: each CLI call starts only after the
previous one has exited. Every workload runs the whole chain, so every
end-to-end metric has a value on every workload; a workload makes some
stages heavy and keeps the others small:

- ``analyze``: a 30-frame 1080p clip and a 4-frame 2160p clip.
- ``model``: the forest's write side (a 10,000-row table grown into
  depth-12 trees) and its read side (the default 100-tree model read by
  predict and by four rc calls over 400 frames of the 2160p class).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench import checks
from perfbench.inputs import FPS, RATE_SIGMA, RC_RESOLUTION, Inputs

PREDICT_QP = 32
CALL_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Sizes:
    clip_1080p: tuple[int, int, int]   # width, height, frames
    clip_2160p: tuple[int, int, int]
    train_rows: int                    # rows of the table `intrarc train` reads
    train_trees: int
    predict_frames: int                # frames `intrarc predict` reads
    rc_frames: int                     # frames each `intrarc rc` reads
    rc_model_rows: int                 # the model predict and rc read, trained in set-up
    rc_model_trees: int
    predict_calls: int = 1             # `intrarc predict` calls per cycle


# A cycle makes about ten CLI calls; the heavy stages are kept to a few
# seconds so that a run repeats the cycle four or five times, because
# single calls on a shared machine vary by tens of percent. A run reports
# the median of every call of a stage, so a stage that is small on a
# workload (predict on analyze: mostly interpreter start-up) is called
# more than once per cycle to give its median enough calls.
# rc reads 400 frames: with fewer, the start-up transient alone takes the
# bitrate deviation at the highest anchor rate close to the 5% check.
WORKLOADS = {
    "analyze": Sizes(clip_1080p=(1920, 1080, 30), clip_2160p=(3840, 2160, 4),
                     train_rows=2000, train_trees=4, predict_frames=100, rc_frames=400,
                     rc_model_rows=2000, rc_model_trees=8, predict_calls=2),
    "model": Sizes(clip_1080p=(1920, 1080, 2), clip_2160p=(3840, 2160, 1),
                   train_rows=10_000, train_trees=4, predict_frames=60, rc_frames=400,
                   rc_model_rows=8000, rc_model_trees=100),
}

# Toy sizes for the benchmark's self-test.
TOY = Sizes(clip_1080p=(64, 64, 3), clip_2160p=(64, 64, 2), train_rows=200, train_trees=2,
            predict_frames=100, rc_frames=400, rc_model_rows=2000, rc_model_trees=2)


@dataclass
class CallResult:
    stage: str
    exit_code: int | None           # None: not started
    wall_s: float | None
    peak_rss_mb: float | None       # child runs only
    problems: list[str]
    values: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(src: Path, threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


class ChildRunner:
    """Runs each CLI call in its own child process, started by the launcher."""

    def __init__(self, launcher, root: Path, threads: int, log_dir: Path):
        self.launcher = launcher
        self.root = root
        self.env = child_env(root / "src", threads)
        self.log_dir = log_dir
        self.count = 0

    def call(self, stage: str, argv: list[str]) -> tuple[int, float, float, str]:
        self.count += 1
        log = self.log_dir / f"{self.count:04d}-{stage}.log"
        code, wall, maxrss_kb = self.launcher.call(
            [sys.executable, "-m", "intrarc.cli", *argv], str(self.root), self.env, str(log),
            CALL_TIMEOUT_S)
        return code, wall, maxrss_kb * 1024 / 1e6, log.read_text()


class InProcessRunner:
    """Runs each CLI call through intrarc.cli.main in this process.

    With a recorder, each call is the root span ``cli.<subcommand>``.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder

    def call(self, stage: str, argv: list[str]) -> tuple[int, float, None, str]:
        from intrarc import cli

        out = io.StringIO()
        rec = self.recorder
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if rec:
                rec.stage = stage
            start = time.perf_counter()
            span = rec.open(f"cli.{argv[0]}") if rec else None
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc(file=out)
                code = 1
                if rec:
                    rec.errors["cli"] += 1
            finally:
                if span:
                    rec.close(span)
                    rec.stage = ""  # the benchmark's own checks are not traced
            wall = time.perf_counter() - start
        return code, wall, None, out.getvalue()


def setup_probe(runner) -> CallResult:
    """Start-up of one CLI process: interpreter plus `import intrarc.cli`."""
    code, wall, rss, text = runner.call("setup", ["--version"])
    problems = [f"exit code {code}"] if code != 0 else (
        [] if text.strip().startswith("intrarc ") else [f"--version printed {text!r}"])
    return CallResult("setup", code, wall, rss, problems)


def run_cycle(runner, inputs: Inputs, sizes: Sizes, out: Path, threads: int,
              sampled: dict[str, int], verified: dict[str, bytes],
              tamper: dict[str, Callable[[Path], None]] | None = None,
              bdrate: bool = True) -> list[CallResult]:
    """Run the chain once into ``out`` and check every call's outputs.

    The analyze and predict outputs are checked against their references
    once per run; ``verified`` keeps their bytes, and the bytes of every
    rc trace, which later calls must reproduce. Without ``bdrate`` the
    cycle ends after the rc calls: their traces then equal the verified
    ones, so the BD-rate would too. ``tamper`` maps a stage to a function
    that damages that stage's output before it is checked; only the
    self-test uses it.
    """
    out.mkdir(parents=True, exist_ok=True)
    calls: list[CallResult] = []

    def run(stage: str, argv: list[str], check: Callable[[], tuple[list[str], dict]]):
        code, wall, rss, _ = runner.call(stage, argv)
        if tamper and stage in tamper:
            tamper[stage](out)
        problems, values = ([f"exit code {code}"], {}) if code != 0 else check()
        calls.append(CallResult(stage, code, wall, rss, problems, values))
        return calls[-1]

    def once(key: Path, name: str, check: Callable[[], tuple[list[str], dict]]):
        """Run check the first time; afterwards require the bytes it passed."""
        try:
            text = key.read_bytes()
        except OSError as exc:
            return [f"output unreadable: {exc}"], {}
        if name in verified:
            return ([] if text == verified[name] else
                    [f"{key.name} differs from the verified first output"]), {}
        problems, values = check()
        if not problems:
            verified[name] = text
        return problems, values

    for role, clip in inputs.clips.items():
        feats = out / f"features_{role}.csv"
        run(f"analyze_{role}",
            ["analyze", "--input", str(clip.path), "--threads", str(threads), "--out", str(feats)],
            lambda f=feats, c=clip, r=role: once(
                f, f"analyze_{r}",
                lambda: (checks.check_analyze(f, c.path, c.frames, sampled[r]), {})))

    model = out / "model.ircf"
    run("train", ["train", "--data", str(inputs.train_csv), "--holdout", "0.2",
                  "--max-depth", "12", "--trees", str(sizes.train_trees), "--seed", "0",
                  "--threads", str(threads), "--out", str(model)],
        lambda: checks.check_train(model, sizes.train_trees))

    pred = out / "predict.csv"

    def predict():
        run("predict", ["predict", "--model", str(inputs.rc_model), "--features",
                        str(inputs.predict_features), "--qp", str(PREDICT_QP),
                        "--out", str(pred)],
            lambda: once(pred, "predict", lambda: (checks.check_predict(
                pred, inputs.rc_model, inputs.predict_features, PREDICT_QP), {})))

    predict()
    rc_calls = []
    for i, target in enumerate(inputs.targets):
        trace, report = out / f"trace_{i}.csv", out / f"report_{i}.json"

        def check_rc(t=trace, r=report, i=i):
            problems, values = checks.check_rc(t, r, inputs.rc_frames)
            if not problems:
                problems = once(t, f"rc_{i}", lambda: ([], {}))[0]
            return problems, values

        rc_calls.append(run("rc", [
            "rc", "--features", str(inputs.rc_features), "--model", str(inputs.rc_model),
            "--bitrate", target, "--fps", str(FPS), "--resolution", RC_RESOLUTION,
            "--sim-noise", str(RATE_SIGMA), "--trace", str(trace), "--report", str(report)],
            check_rc))
    for _ in range(sizes.predict_calls - 1):
        predict()

    if not bdrate:
        return calls
    if not all(c.ok for c in rc_calls):
        calls.append(CallResult("bdrate", None, None, None, ["not run: an rc call failed"]))
        return calls
    test_rd = out / "test_rd.csv"
    with open(test_rd, "w") as fh:
        fh.write("bitrate,psnr_yuv\n")
        for c in sorted(rc_calls, key=lambda c: c.values["rate"]):
            fh.write(f"{c.values['rate']:.9g},{c.values['psnr']:.9g}\n")
    bd = out / "bdrate.json"
    run("bdrate", ["bdrate", "--anchor", str(inputs.anchor_csv), "--test", str(test_rd),
                   "--out", str(bd)],
        lambda: checks.check_bdrate(bd))
    return calls


def run_metrics(cycles: list[list[CallResult]], inputs: Inputs) -> dict[str, float]:
    """End-to-end values of a run: per stage, the median over every call that ran.

    ``rc_s`` sums the median of each of the four rc calls; the peak RSS
    of rc is the largest of those four medians.
    """
    walls: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    values: dict[str, list[float]] = {}
    for calls in cycles:
        rc_index = 0
        for c in calls:
            if c.wall_s is None:
                continue
            stage = c.stage
            if stage == "rc":
                stage, rc_index = f"rc_{rc_index}", rc_index + 1
                if "deviation_pct" in c.values:
                    values.setdefault("deviation", []).append(abs(c.values["deviation_pct"]))
            walls.setdefault(stage, []).append(c.wall_s)
            if c.peak_rss_mb is not None:
                rss.setdefault(stage, []).append(c.peak_rss_mb)
            for key in ("model_bytes", "holdout_r2", "bd_rate_pct"):
                if key in c.values:
                    values.setdefault(key, []).append(float(c.values[key]))

    med = statistics.median
    m: dict[str, float] = {}
    for role, clip in inputs.clips.items():
        if f"analyze_{role}" in walls:
            m[f"analyze_{role}_fps"] = clip.frames / med(walls[f"analyze_{role}"])
        if f"analyze_{role}" in rss:
            m[f"analyze_{role}_peak_rss_mb"] = med(rss[f"analyze_{role}"])
    if "train" in walls:
        m["train_s"] = med(walls["train"])
    if "train" in rss:
        m["train_peak_rss_mb"] = med(rss["train"])
    if "predict" in walls:
        m["predict_s"] = med(walls["predict"])
    rc = [f"rc_{i}" for i in range(len(inputs.targets))]
    if all(s in walls for s in rc):
        m["rc_s"] = sum(med(walls[s]) for s in rc)
    if all(s in rss for s in rc):
        m["rc_peak_rss_mb"] = max(med(rss[s]) for s in rc)
    if "deviation" in values:
        m["max_abs_deviation_pct"] = max(values["deviation"])
    if "model_bytes" in values:
        m["model_bytes"] = med(values["model_bytes"])
        m["holdout_r2"] = med(values["holdout_r2"])
    if "bd_rate_pct" in values:
        m["bd_bits_ratio"] = 1.0 + med(values["bd_rate_pct"]) / 100.0
    return m
