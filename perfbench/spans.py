"""Spans around calls into the program's modules, for the traced run.

Wrappers are installed on module attributes (``intrarc.forest.load`` and
so on), so they see the calls the CLI makes without any change to the
program. Each span keeps its name, start, end, parent, thread, the CLI
stage it ran under and a few counts. Spans stay in memory and are
written once, when the run ends. Each wrapper also counts the
exceptions it sees, per layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("video_io", "features", "forest", "ratecontrol", "simulator", "metrics", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    stage: str
    end: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store shared by every thread of the traced run.

    A span opened on a thread with no open span of its own (a worker of
    a thread pool) takes the innermost open span of the thread that
    created the recorder as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.stage = ""
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open(self, name: str, **meta) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            parent = stack[-1] if stack else (
                self._stacks.get(self._main) or [None])[-1]
            span = Span(next(self._ids), name, time.perf_counter(),
                        parent.id if parent else None, thread, self.stage, meta=meta)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].remove(span)
            self.spans.append(span)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _span_call(rec: Recorder, layer: str, name: str, fn, meta=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.stage:
            return fn(*args, **kwargs)
        span = rec.open(name, **(meta(*args, **kwargs) if meta else {}))
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec.errors[layer] += 1
            raise
        finally:
            rec.close(span)
    return wrapper


def install(rec: Recorder):
    """Wrap the program's public functions; returns a function that removes the wrappers."""
    from intrarc import features, forest, metrics, ratecontrol, simulator, video_io

    saved = []

    def patch(module, attr, layer, meta=None, make=None):
        orig = getattr(module, attr)
        saved.append((module, attr, orig))
        name = f"{layer}.{attr}"
        setattr(module, attr, make(orig) if make else _span_call(rec, layer, name, orig, meta))

    def traced_y4m(orig):
        @functools.wraps(orig)
        def open_y4m(path):
            frames = orig(path)
            if not rec.stage:
                yield from frames
                return
            try:
                while True:
                    span = rec.open("video_io.open_y4m.next")
                    try:
                        frame = next(frames)
                    except StopIteration:
                        span.meta["end_of_stream"] = True
                        return
                    except BaseException:
                        rec.errors["video_io"] += 1
                        raise
                    finally:
                        rec.close(span)
                    span.meta["bytes"] = frame.geometry.frame_bytes()
                    yield frame
            finally:
                frames.close()
        return open_y4m

    local = threading.local()

    def traced_extract(orig):
        @functools.wraps(orig)
        def extract_features(frame, *args, **kwargs):
            if not rec.stage:
                return orig(frame, *args, **kwargs)
            g = frame.geometry
            span = rec.open("features.extract_features", height=g.height)
            local.luma_shape = (g.height, g.width)
            try:
                return orig(frame, *args, **kwargs)
            except BaseException:
                rec.errors["features"] += 1
                raise
            finally:
                rec.close(span)
        return extract_features

    def plane_meta(plane, block_size, *_):
        h, w = plane.shape
        return {"luma": plane.shape == getattr(local, "luma_shape", None),
                "blocks": -(-h // block_size) * -(-w // block_size)}

    def traced_make_encoder(orig):
        @functools.wraps(orig)
        def make_encoder(*args, **kwargs):
            return _span_call(rec, "simulator", "simulator.encoder", orig(*args, **kwargs))
        return make_encoder

    patch(video_io, "open_y4m", "video_io", make=traced_y4m)
    patch(features, "extract_features", "features", make=traced_extract)
    patch(features, "plane_energy", "features", meta=plane_meta)
    patch(features, "extract_sequence", "features",
          meta=lambda frames, cfg=None, threads=1: {"threads": threads})
    patch(features, "write_features_csv", "features")
    patch(features, "read_features_csv", "features")
    patch(forest, "read_training_csv", "forest")
    patch(forest, "train_arrays", "forest",
          meta=lambda X, y, hp, threads=1: {"trees": hp.n_estimators, "threads": threads})
    patch(forest, "save", "forest",
          meta=lambda model, path: {"nodes": sum(t.n_nodes for t in model.trees),
                                    "trees": len(model.trees)})
    patch(forest, "load", "forest")
    patch(forest, "predict", "forest")
    patch(forest, "predict_batch", "forest",
          meta=lambda model, X: {"trees": len(model.trees), "rows": len(X)})
    patch(ratecontrol, "build_first_pass", "ratecontrol")
    patch(ratecontrol, "run_second_pass", "ratecontrol",
          meta=lambda records, encoder, cfg: {"frames": len(records)})
    patch(ratecontrol, "write_trace_csv", "ratecontrol")
    patch(simulator, "make_encoder", "simulator", make=traced_make_encoder)
    patch(metrics, "bd_report", "metrics")

    def uninstall():
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
    return uninstall


# --- per-layer metrics ------------------------------------------------------

def _q(values: list[float], pct: int) -> float:
    """50th or 90th percentile; 0.0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[pct // 10 - 1]


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration of span minus the part of it its children cover."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.dur - covered


def _read_ahead_max(spans: list[Span]) -> int:
    """Most frames decoded but not yet through extract_features, at any instant."""
    events = [(s.end, 1) for s in spans if s.name == "video_io.open_y4m.next"
              and not s.meta.get("end_of_stream")]
    events += [(s.end, -1) for s in spans if s.name == "features.extract_features"]
    held = peak = 0
    for _, step in sorted(events):
        held += step
        peak = max(peak, held)
    return peak


def layer_metrics(spans: list[Span], errors: Counter,
                  cli_stages: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced run, as name -> (value, unit).

    Spans of the CLI calls (stages in ``cli_stages``) give most metrics;
    the direct calls the traced run makes itself give the threads1 /
    threadsN comparisons.
    """
    by_id = {s.id: s for s in spans}
    cli = [s for s in spans if s.stage in cli_stages]

    def named(name, pool=cli):
        return [s for s in pool if s.name == name]

    def ms(name, pool=cli):
        return [s.dur * 1e3 for s in named(name, pool)]

    out: dict[str, tuple[float, str]] = {}
    decode = [s for s in named("video_io.open_y4m.next") if not s.meta.get("end_of_stream")]
    out["video_io.open_y4m.frame_ms.p50"] = (_q([s.dur * 1e3 for s in decode], 50), "ms")
    out["video_io.open_y4m.frame_ms.p90"] = (_q([s.dur * 1e3 for s in decode], 90), "ms")
    out["video_io.open_y4m.frames"] = (float(len(decode)), "count")
    out["video_io.open_y4m.bytes"] = (float(sum(s.meta["bytes"] for s in decode)), "bytes")

    for role in ("1080p", "2160p"):
        frames = [s.dur * 1e3 for s in named("features.extract_features")
                  if s.stage == f"analyze_{role}"]
        out[f"features.extract_features.frame_ms.{role}.p50"] = (_q(frames, 50), "ms")
        out[f"features.extract_features.frame_ms.{role}.p90"] = (_q(frames, 90), "ms")
    planes = named("features.plane_energy")
    out["features.plane_energy.luma_ms"] = (
        _q([s.dur * 1e3 for s in planes if s.meta["luma"]], 50), "ms")
    out["features.plane_energy.chroma_ms"] = (
        _q([s.dur * 1e3 for s in planes if not s.meta["luma"]], 50), "ms")
    busy = sum(s.dur for s in planes)
    out["features.blocks_per_s"] = (
        sum(s.meta["blocks"] for s in planes) / busy if busy else 0.0, "blocks/s")
    seq = named("features.extract_sequence")
    wall = sum(s.dur for s in seq)
    work = sum(s.dur for s in named("features.extract_features"))
    out["features.extract_sequence.parallelism"] = (work / wall if wall else 0.0, "ratio")
    out["features.read_ahead_frames_max"] = (float(_read_ahead_max(cli)), "count")
    for label in ("threads1", "threadsN"):
        direct = [s for s in spans if s.stage == f"direct.extract_sequence.{label}"]
        frames = len(named("features.extract_features", direct))
        wall = sum(s.dur for s in named("features.extract_sequence", direct))
        out[f"features.extract_sequence.fps.{label}"] = (frames / wall if wall else 0.0, "frames/s")
    out["features.write_features_csv.ms"] = (_q(ms("features.write_features_csv"), 50), "ms")
    out["features.read_features_csv.ms"] = (_q(ms("features.read_features_csv"), 50), "ms")

    out["forest.read_training_csv.s"] = (
        _q([s.dur for s in named("forest.read_training_csv")], 50), "s")
    direct_train = [s for s in spans if s.stage == "direct.train_arrays.threads1"]
    for label, pool in (("threads1", direct_train), ("threadsN", cli)):
        per_tree = [s.dur * 1e3 / s.meta["trees"] for s in named("forest.train_arrays", pool)]
        out[f"forest.train_arrays.ms_per_tree.{label}"] = (_q(per_tree, 50), "ms")
    saves = named("forest.save")
    out["forest.nodes_per_tree"] = (
        sum(s.meta["nodes"] for s in saves) / sum(s.meta["trees"] for s in saves)
        if saves else 0.0, "count")
    out["forest.save.ms"] = (_q(ms("forest.save"), 50), "ms")
    out["forest.load.ms"] = (_q(ms("forest.load"), 50), "ms")
    out["forest.predict.ms_per_row"] = (_q(ms("forest.predict"), 50), "ms")
    batch = [s for s in named("forest.predict_batch")
             if s.parent and by_id[s.parent].name == "ratecontrol.build_first_pass"]
    work = sum(s.meta["rows"] * s.meta["trees"] for s in batch)
    out["forest.predict_batch.us_per_row_tree"] = (
        sum(s.dur for s in batch) * 1e6 / work if work else 0.0, "us")

    out["ratecontrol.build_first_pass.ms"] = (_q(ms("ratecontrol.build_first_pass"), 50), "ms")
    encoder = named("simulator.encoder")
    children: dict[int, list[Span]] = {}
    for s in encoder:
        children.setdefault(s.parent, []).append(s)
    second = [_self_time(s, children.get(s.id, [])) * 1e6 / s.meta["frames"]
              for s in named("ratecontrol.run_second_pass")]
    out["ratecontrol.run_second_pass.us_per_frame"] = (_q(second, 50), "us")
    out["ratecontrol.write_trace_csv.ms"] = (_q(ms("ratecontrol.write_trace_csv"), 50), "ms")
    out["simulator.encoder.us_per_call"] = (
        sum(s.dur for s in encoder) * 1e6 / len(encoder) if encoder else 0.0, "us")
    out["simulator.encoder.calls"] = (float(len(encoder)), "count")
    out["metrics.bd_report.ms"] = (_q(ms("metrics.bd_report"), 50), "ms")

    kids: dict[int, list[Span]] = {}
    for s in cli:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    for sub in ("analyze", "train", "predict", "rc", "bdrate"):
        roots = named(f"cli.{sub}")
        out[f"cli.{sub}.self_ms"] = (
            _q([_self_time(s, kids.get(s.id, [])) * 1e3 for s in roots], 50), "ms")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(errors[layer]), "count")
    return out
