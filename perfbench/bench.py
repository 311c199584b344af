"""One benchmark run: inputs, the plain or traced chain, metrics and the record.

See run.py for how to run it.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from perfbench import chain, inputs

THREADS = len(os.sched_getaffinity(0))
CLI_STAGES = {"analyze_1080p", "analyze_2160p", "train", "predict", "rc", "bdrate"}

END_TO_END = {
    "setup_s": "s",
    "analyze_1080p_fps": "frames/s",
    "analyze_2160p_fps": "frames/s",
    "analyze_1080p_peak_rss_mb": "MB",
    "analyze_2160p_peak_rss_mb": "MB",
    "train_s": "s",
    "train_peak_rss_mb": "MB",
    "model_bytes": "bytes",
    "holdout_r2": "ratio",
    "predict_s": "s",
    "rc_s": "s",
    "rc_peak_rss_mb": "MB",
    "max_abs_deviation_pct": "%",
    "bd_bits_ratio": "ratio",
}


class Run:
    """One benchmark run: a workload at one seed, plain or traced."""

    def __init__(self, launcher, root: Path, workload: str, sizes: chain.Sizes, seed: int,
                 seconds: float, trace: bool):
        self.launcher = launcher
        self.root = root
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        work = root / ".bench_work"
        self.cache = inputs.Cache(work / "cache")
        self.dir = work / "runs" / f"{workload}-s{seed}-t{int(trace)}"
        self.results = work / "results"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        runner = chain.ChildRunner(self.launcher, self.root, THREADS, self.dir / "logs")

        def train_model(data: Path, out: Path, trees: int) -> None:
            code, _, _, log = runner.call("setup-model", [
                "train", "--data", str(data), "--trees", str(trees), "--max-depth", "12",
                "--seed", "0", "--threads", str(THREADS), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"training the set-up model failed: {log}")

        self.inputs = inputs.prepare(self.cache, self.sizes, self.seed, self.root / "src",
                                     train_model)
        rng = np.random.default_rng(self.seed)
        # the frame of each clip the analyze check recomputes
        self.sampled = {role: int(rng.integers(clip.frames))
                        for role, clip in self.inputs.clips.items()}
        self.verified: dict[str, bytes] = {}

    def _cycles(self, one_cycle) -> list:
        """Repeat one_cycle while another fits in the time left; at least once."""
        start = time.perf_counter()
        out, took = [], []
        while not out or time.perf_counter() - start + statistics.median(took) <= self.seconds:
            t0 = time.perf_counter()
            out.append(one_cycle(len(out)))
            took.append(time.perf_counter() - t0)
        return out

    def plain(self, tamper=None) -> tuple[list, dict]:
        runner = chain.ChildRunner(self.launcher, self.root, THREADS, self.dir / "logs")
        runner.call("warmup", ["--version"])  # compiles bytecode; not measured
        # Start-up probes open the run and close every cycle, so their
        # median spans the whole run.
        probes = [chain.setup_probe(runner)]

        def cycle(i):
            # The BD-rate of later cycles' rc traces, which must equal the
            # first cycle's, is the first cycle's; bdrate runs once.
            calls = chain.run_cycle(runner, self.inputs, self.sizes, self.dir / f"cycle{i}",
                                    THREADS, self.sampled, self.verified, tamper,
                                    bdrate=i == 0)
            probes.append(chain.setup_probe(runner))
            return calls

        cycles = self._cycles(cycle)
        values = chain.run_metrics(cycles, self.inputs)
        values["setup_s"] = statistics.median(p.wall_s for p in probes)
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in END_TO_END.items()}
        return probes + [c for calls in cycles for c in calls], metrics

    def traced(self, tamper=None) -> tuple[list, dict]:
        from intrarc import cli  # noqa: F401  (imports every module once, untimed)
        from perfbench import spans

        rec = spans.Recorder()
        walls = {"plain": 0.0, "traced": 0.0}
        checks = []

        def run_pass(label: str, out: Path) -> list:
            if label == "plain":
                return chain.run_cycle(chain.InProcessRunner(), self.inputs, self.sizes, out,
                                       THREADS, self.sampled, self.verified)
            uninstall = spans.install(rec)
            try:
                calls = chain.run_cycle(chain.InProcessRunner(rec), self.inputs, self.sizes,
                                        out, THREADS, self.sampled, self.verified, tamper)
                direct = self._direct_calls(rec)
            finally:
                uninstall()
            return calls + [direct]

        def cycle(i):
            base = self.dir / f"cycle{i}"
            calls = []
            # The pass that runs first pays for warm-up, so the order alternates.
            for label in ("plain", "traced")[::1 if i % 2 == 0 else -1]:
                done = run_pass(label, base / label)
                walls[label] += sum(c.wall_s for c in done if c.wall_s is not None)
                calls += done
            diff = compare_outputs(base / "plain", base / "traced")
            checks.append(chain.CallResult("byte-identical", 0 if not diff else 1, None, None,
                                           [f"traced output differs: {d}" for d in diff]))
            return calls

        cycles = self._cycles(cycle)
        rec.write(self.results / f"{self.dir.name}-spans.json")
        metrics = spans.layer_metrics(rec.spans, rec.errors, CLI_STAGES)
        metrics["trace.overhead_pct"] = (
            100.0 * (walls["traced"] - walls["plain"]) / walls["plain"], "%")
        return [c for calls in cycles for c in calls] + checks, metrics

    def _direct_calls(self, rec) -> chain.CallResult:
        """Calls into public functions that the CLI makes only at one thread count."""
        from intrarc import features, forest, video_io

        clip = self.inputs.clips["1080p"]
        try:
            for label, threads in (("threads1", 1), ("threadsN", THREADS)):
                rec.stage = f"direct.extract_sequence.{label}"
                frames = itertools.islice(video_io.open_y4m(str(clip.path)), 16)
                features.extract_sequence(frames, features.AnalyzerConfig(), threads=threads)
            rec.stage = "direct.train_arrays.threads1"
            X, y = forest.read_training_csv(str(self.inputs.train_csv))
            # the rows `intrarc train --holdout 0.2 --seed 0` trains on
            perm = np.random.default_rng(0).permutation(len(y))
            train_idx = perm[max(1, int(round(0.2 * len(y)))):]
            hp = forest.ForestHyperparams(n_estimators=min(self.sizes.train_trees, 8),
                                          max_depth=12)
            forest.train_arrays(X[train_idx], y[train_idx], hp, threads=1)
            problems = []
        except Exception as exc:  # a failing program call is counted, not fatal
            problems = [f"{rec.stage}: {exc!r}"]
        finally:
            rec.stage = ""
        return chain.CallResult("direct", None, None, None, problems)

    def execute(self, tamper=None) -> dict:
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.prepare()
        calls, metrics = (self.traced if self.trace else self.plain)(tamper)
        failed = [c for c in calls if not c.ok]
        result = {"correct": not failed, "attempted": len(calls), "failed": len(failed),
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        record = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "started": started, "machine": machine(self.root),
            "sizes": self.sizes.__dict__, "inputs": self.inputs.digests,
            "failed_ops": len(failed) / len(calls),
            "calls": [c.__dict__ for c in calls], "result": result,
        }
        (self.results / f"{self.dir.name}.json").write_text(
            json.dumps(record, indent=1, default=str))
        return result


def compare_outputs(a: Path, b: Path) -> list[str]:
    """Files that differ between two output directories.

    Manifests are compared without their timestamp and measured
    throughput, the only fields that differ between identical runs, and
    with each directory's own path replaced by a placeholder.
    """
    diff = []
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            diff.append(f"{name} missing")
        elif name.endswith(".manifest.json"):
            ja, jb = (json.loads(p.read_text().replace(str(d), "<out>"))
                      for p, d in ((pa, a), (pb, b)))
            for j in (ja, jb):
                j.pop("timestamp", None)
                j.pop("first_pass_throughput", None)
            if ja != jb:
                diff.append(name)
        elif pa.read_bytes() != pb.read_bytes():
            diff.append(name)
    return diff


def machine(root: Path) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "threads": THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "platform": platform.platform(), "commit": commit}
