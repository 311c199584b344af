"""Command-line front end: analyze | train | predict | rc | bdrate.

Every subcommand that writes an output also writes
<out>.manifest.json recording the command, inputs, fully resolved
configuration and seeds, so a run can be reproduced exactly. All
randomness flows from explicit --seed flags.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 I/O error.

Each subcommand imports the modules it runs inside its own function, so
a call pays only for what it uses: `analyze` never loads the forest,
and `--version`, `--help` and usage errors load none of them, nor numpy.

`main()` pins BLAS to one thread when it runs before numpy is loaded, as
it does in an intrarc process: `--threads` is intrarc's only
parallelism, and its BLAS calls are too small for a BLAS pool to pay.
A caller that loaded numpy first keeps its environment and its BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from intrarc import __version__
from intrarc import tables

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 64   # the most --threads takes: each analysis thread holds a frame

PREDICT_COLUMNS = {"frame_index": tables.INDEX, "q": tables.QP, "b_hat": tables.REAL}
LOG_COLUMNS = {"frame_index": tables.INDEX, "q": tables.QP, "bits": tables.BITS}


def _write_manifest(out_path: str, command: str, inputs: dict, config: dict,
                    seeds: dict, extra: dict | None = None) -> None:
    _write_json(f"{out_path}.manifest.json", {
        "command": command,
        "inputs": inputs,
        "config": config,
        "seeds": seeds,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **(extra or {}),
    })


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fps(text: str) -> tuple[int, int]:
    try:
        num, den = text.split("/", 1) if "/" in text else (text, 1)
        return int(num), int(den)
    except ValueError:
        raise UsageError(f"--fps {text!r} is not N or N/D") from None


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x", 1)
        return int(w), int(h)
    except ValueError:
        raise UsageError(f"--resolution {text!r} is not WIDTHxHEIGHT") from None


@contextmanager
def _flag_values(flags: str):
    """A value that the class built from `flags` rejects is a usage error naming them."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _parse_raw_geometry(text: str) -> video_io.VideoGeometry:
    """WIDTHxHEIGHT:BITDEPTH:CHROMA, e.g. 1920x1080:8:420."""
    from intrarc import video_io

    try:
        dims, bits, chroma = text.split(":")
        w, h = dims.lower().split("x")
        w, h, bits = int(w), int(h), int(bits)
    except ValueError:
        raise UsageError(f"--raw-geometry {text!r} is not WIDTHxHEIGHT:BITDEPTH:CHROMA") from None
    with _flag_values(f"--raw-geometry {text!r}"):
        return video_io.VideoGeometry(width=w, height=h, bit_depth=bits, chroma_format=chroma)


def _is_y4m(path: str) -> bool:
    from intrarc import video_io

    with open(path, "rb") as fh:
        return fh.read(len(video_io.Y4M_MAGIC)) == video_io.Y4M_MAGIC


def _check_flag(flag: str, value, ok: bool, rule: str) -> None:
    """A flag value that breaks its rule is a usage error naming the flag."""
    if not ok:
        raise UsageError(f"{flag} must be {rule}, got {value}")


def _check_threads(threads: int) -> None:
    _check_flag("--threads", threads, threads >= 1, "at least 1")
    _check_flag("--threads", threads, threads <= MAX_THREADS, f"at most {MAX_THREADS}")


def cmd_analyze(args) -> int:
    from intrarc import features as feat
    from intrarc import video_io

    _check_threads(args.threads)
    if _is_y4m(args.input):
        if args.raw_geometry is not None:
            raise UsageError(f"--raw-geometry is for headerless input, but --input "
                             f"{args.input} is a Y4M file")
        frames = video_io.open_y4m(args.input)
    else:
        if not args.raw_geometry:
            raise UsageError("headerless input requires --raw-geometry")
        frames = video_io.open_raw_yuv(args.input, _parse_raw_geometry(args.raw_geometry))
    cfg = feat.AnalyzerConfig()
    start = time.perf_counter()
    with tables.naming(args.input):   # extract_sequence raises "no frames in input stream"
        rows = feat.extract_sequence(frames, cfg, threads=args.threads)
    elapsed = time.perf_counter() - start
    feat.write_features_csv(args.out, rows)
    _write_manifest(
        args.out, "analyze",
        inputs={"input": args.input, "raw_geometry": args.raw_geometry},
        config={"block_size_luma": cfg.block_size_luma,
                "block_size_chroma": cfg.block_size_chroma,
                "threads": args.threads},
        seeds={},
        extra={"first_pass_throughput": {
            "frames": len(rows),
            "elapsed_seconds": round(elapsed, 6),
            "frames_per_second": round(len(rows) / elapsed, 3) if elapsed > 0 else None,
        }},
    )
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    import numpy as np

    from intrarc import forest

    _check_threads(args.threads)
    _check_flag("--trees", args.trees, args.trees >= 1, "at least 1")
    _check_flag("--max-depth", args.max_depth, args.max_depth >= 1, "at least 1")
    _check_flag("--seed", args.seed, args.seed >= 0, "at least 0")
    _check_flag("--holdout", args.holdout, args.holdout is None or 0.0 < args.holdout < 1.0,
                "a fraction in (0, 1)")
    X, y = forest.read_training_csv(args.data)
    hp = forest.ForestHyperparams(n_estimators=args.trees, max_depth=args.max_depth,
                                  seed=args.seed)
    train = slice(None)   # without --holdout every row trains: a view, not a copy of X
    holdout_stats = None
    with tables.naming(args.data):   # train_arrays raises "1 row to train on"
        if args.holdout is not None:
            perm = np.random.default_rng(args.seed).permutation(len(y))
            n_test = max(1, int(round(args.holdout * len(y))))
            test, train = perm[:n_test], perm[n_test:]
            if train.size < hp.min_samples_split:
                raise UsageError(f"--holdout {args.holdout} holds out {n_test} of the {len(y)} "
                                 f"rows of {args.data}, leaving {train.size} to train on; "
                                 f"training needs at least {hp.min_samples_split}")
            ss_tot = float(np.sum((y[test] - y[test].mean()) ** 2))
            if ss_tot == 0.0:
                raise ValueError(f"holdout R2 is undefined: the bits of the {n_test} held-out "
                                 "rows have zero variance; hold out more rows")
        n_train = len(y[train])
        model = forest.train_arrays(X[train], y[train], hp, threads=args.threads)
    if args.holdout is not None:
        resid = y[test] - forest.predict_batch(model, X[test])
        holdout_stats = {
            "fraction": args.holdout,
            "n_train": n_train,
            "n_test": n_test,
            "r2": 1.0 - float(np.sum(resid**2)) / ss_tot,
            "mae": float(np.mean(np.abs(resid))),
        }
    size = forest.save(model, args.out)
    _write_manifest(
        args.out, "train",
        inputs={"data": args.data},
        config={"n_estimators": hp.n_estimators, "max_depth": hp.max_depth,
                "min_samples_leaf": hp.min_samples_leaf,
                "min_samples_split": hp.min_samples_split,
                "max_features": hp.max_features, "threads": args.threads},
        seeds={"seed": hp.seed},
        extra={"model_bytes": size, "n_samples": n_train,
               "holdout": holdout_stats,
               "importance": dict(zip(forest.INPUT_NAMES, model.importance.tolist()))},
    )
    msg = f"trained {hp.n_estimators} trees on {n_train} samples -> {args.out} ({size} bytes)"
    if holdout_stats:
        msg += f"; holdout R2={holdout_stats['r2']:.4f} MAE={holdout_stats['mae']:.1f}"
    print(msg)
    return EXIT_OK


def cmd_predict(args) -> int:
    from intrarc import features as feat
    from intrarc import forest

    _check_flag("--qp", args.qp, 0 <= args.qp <= tables.QP_MAX, f"in [0, {tables.QP_MAX}]")
    model = forest.load(args.model)
    rows = feat.read_features_csv(args.features)
    bits = forest.predict_batch(model, forest.feature_matrix(rows, args.qp)).tolist()
    records = [(f.frame_index, args.qp, b) for f, b in zip(rows, bits)]
    if args.out:
        tables.write(args.out, PREDICT_COLUMNS, records)
        _write_manifest(args.out, "predict",
                        inputs={"model": args.model, "features": args.features},
                        config={"qp": args.qp}, seeds={})
    else:
        for rec in records:
            print(*tables.format_row(PREDICT_COLUMNS, rec), sep=",")
    return EXIT_OK


def _log_encoder(path: str, frame_indices: set[int]):
    """Encoder backed by an external per-(frame, q) bits table."""
    table: dict[tuple[int, int], float] = {}
    with tables.naming(path):
        for line, (frame, q, bits) in tables.read(path, LOG_COLUMNS):
            if (frame, q) in table:
                raise ValueError(f"line {line} repeats frame {frame} at q={q}")
            table[frame, q] = bits
        logged_frames = {f for f, _ in table}
        if logged_frames != frame_indices:
            odd = min(logged_frames ^ frame_indices)
            side = "log" if odd in logged_frames else "features"
            raise ValueError(f"frame {odd} appears only in the {side}")

    def encode(frame_index: int, q: int, target_bits: float) -> float:
        if (frame_index, q) not in table:
            with tables.naming(path):
                raise ValueError(f"no log entry for frame {frame_index} at q={q}")
        return table[frame_index, q]

    return encode


def cmd_rc(args) -> int:
    from dataclasses import replace

    from intrarc import features as feat
    from intrarc import forest
    from intrarc import ratecontrol as rc
    from intrarc import simulator as sim
    from intrarc import video_io

    _check_flag("--seed", args.seed, args.seed >= 0, "at least 0")
    fps_num, fps_den = _parse_fps(args.fps)
    width, height = _parse_resolution(args.resolution)
    with _flag_values(f"--resolution {args.resolution!r}"):
        # rc reads only the pixel count, so no chroma layout constrains the size.
        resolution = video_io.VideoGeometry(width=width, height=height, chroma_format="400")
    with _flag_values(f"--bitrate {args.bitrate} --fps {args.fps!r}"):
        cfg = rc.RcConfig(target_bitrate=args.bitrate, fps_num=fps_num, fps_den=fps_den,
                          resolution=resolution)
    with _flag_values(f"--sim-noise {args.sim_noise} --sim-seed {args.sim_seed}"):
        sim_params = sim.SimParams(noise_sigma=args.sim_noise, seed=args.sim_seed)
    rows = feat.read_features_csv(args.features)

    if args.first_pass == "noise":
        if args.model is not None:
            raise UsageError("--model is not read with --first-pass noise; give one or the other")
        noise = rc.build_noise_first_pass(len(rows), cfg, seed=args.seed)
        records = [replace(r, frame_index=f.frame_index) for r, f in zip(noise, rows)]
    else:
        if not args.model:
            raise UsageError("either --model or --first-pass noise is required")
        model = forest.load(args.model)
        records = rc.build_first_pass(rows, model, cfg)

    if args.encoder == "sim":
        encoder = sim.make_encoder(rows, resolution.pixels, sim_params)
    elif args.encoder.startswith("log:"):
        encoder = _log_encoder(args.encoder[4:], {f.frame_index for f in rows})
    else:
        raise UsageError(f"unknown encoder backend {args.encoder!r}")

    decisions, summary = rc.run_second_pass(records, encoder, cfg)
    rc.write_trace_csv(args.trace, decisions)
    if args.report:
        _write_json(args.report, summary)
    _write_manifest(
        args.trace, "rc",
        inputs={"features": args.features, "model": args.model,
                "encoder": args.encoder},
        config={"target_bitrate": cfg.target_bitrate, "fps": cfg.fps_text,
                "resolution": f"{width}x{height}",
                "c_low": cfg.c_low, "c_high": rc.c_high_for(resolution),
                "q_start": cfg.q_start, "first_pass": args.first_pass,
                "first_pass_qp": cfg.first_pass_qp,
                "deficit_gain": cfg.deficit_gain,
                "qp_min": 0, "qp_max": tables.QP_MAX,
                "frame_budget": cfg.frame_budget,
                "sim": {"kappa": sim_params.kappa, "gamma": sim_params.gamma,
                        "delta": sim_params.delta, "noise_sigma": sim_params.noise_sigma}},
        seeds={"first_pass_seed": args.seed, "sim_seed": args.sim_seed},
        extra={"summary": summary},
    )
    print(f"rc: {len(decisions)} frames, deviation "
          f"{100.0 * summary['bitrate_deviation']:+.3f}%, mean QP {summary['mean_qp']:.2f}")
    return EXIT_OK


def cmd_bdrate(args) -> int:
    from intrarc import metrics

    anchor = metrics.read_rd_csv(args.anchor)
    test = metrics.read_rd_csv(args.test)
    report = metrics.bd_report(anchor, test)
    _write_json(args.out, report)
    if args.out:
        _write_manifest(args.out, "bdrate",
                        inputs={"anchor": args.anchor, "test": args.test},
                        config={"method": report["method"]}, seeds={})
    return EXIT_OK


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    # The cores this process may run on, which can be fewer than the machine
    # has, up to MAX_THREADS.
    cores = min(MAX_THREADS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    parser = argparse.ArgumentParser(
        prog="intrarc",
        description="Two-pass all-intra rate control from low-complexity video features",
    )
    parser.add_argument("--version", action="version", version=f"intrarc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="extract per-frame complexity features")
    p.add_argument("--input", required=True, help="Y4M or headerless planar YUV file")
    p.add_argument("--raw-geometry", default=None,
                   help="WxH:BITDEPTH:CHROMA for headerless input, e.g. 1920x1080:8:420")
    p.add_argument("--threads", type=int, default=cores)
    p.add_argument("--out", required=True, help="features CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train the bits estimator forest")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout", type=float, default=None,
                   help="held-out fraction for R2/MAE reporting")
    p.add_argument("--threads", type=int, default=cores)
    p.add_argument("--out", required=True, help="model file output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict per-frame bits at one QP")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--qp", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output (stdout if omitted)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("rc", help="run the two-pass rate control loop")
    p.add_argument("--features", required=True)
    p.add_argument("--model", default=None, help="bits estimator model file")
    p.add_argument("--first-pass", choices=["model", "noise"], default="model")
    p.add_argument("--seed", type=int, default=0, help="noise first-pass seed")
    p.add_argument("--bitrate", type=float, required=True, help="target bits/second")
    p.add_argument("--fps", default="30", help="frames/second, e.g. 30 or 30000/1001")
    p.add_argument("--resolution", required=True, help="WxH, drives the high-rate correction")
    p.add_argument("--encoder", default="sim", help="'sim' or 'log:<csv path>'")
    p.add_argument("--sim-noise", type=float, default=0.0)
    p.add_argument("--sim-seed", type=int, default=0)
    p.add_argument("--trace", required=True, help="per-frame trace CSV output")
    p.add_argument("--report", default=None, help="summary JSON output")
    p.set_defaults(func=cmd_rc)

    p = sub.add_parser("bdrate", help="BD-rate between two RD curve CSVs")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", default=None, help="report JSON output (stdout if omitted)")
    p.set_defaults(func=cmd_bdrate)
    return parser


def main(argv=None) -> int:
    # BLAS reads its thread count once, when numpy loads.
    if "numpy" not in sys.modules:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
