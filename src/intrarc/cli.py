"""Command-line front end: analyze | train | predict | rc | bdrate.

Every subcommand that writes an output also writes
<out>.manifest.json recording the command, inputs, fully resolved
configuration and seeds, so a run can be reproduced exactly. All
randomness flows from explicit --seed flags.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from intrarc import __version__
from intrarc import features as feat
from intrarc import forest
from intrarc import metrics
from intrarc import ratecontrol as rc
from intrarc import simulator as sim
from intrarc import tables
from intrarc import video_io

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

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
    except (ValueError, video_io.VideoFormatError) as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _parse_raw_geometry(text: str) -> video_io.VideoGeometry:
    """WIDTHxHEIGHT:BITDEPTH:CHROMA, e.g. 1920x1080:8:420."""
    try:
        dims, bits, chroma = text.split(":")
        w, h = dims.lower().split("x")
        w, h, bits = int(w), int(h), int(bits)
    except ValueError:
        raise UsageError(f"--raw-geometry {text!r} is not WIDTHxHEIGHT:BITDEPTH:CHROMA") from None
    with _flag_values(f"--raw-geometry {text!r}"):
        return video_io.VideoGeometry(width=w, height=h, bit_depth=bits, chroma_format=chroma)


def _is_y4m(path: str) -> bool:
    with open(path, "rb") as fh:
        return fh.read(9) == b"YUV4MPEG2"


def _check_flag(flag: str, value, ok: bool, rule: str) -> None:
    """A flag value that breaks its rule is a usage error naming the flag."""
    if not ok:
        raise UsageError(f"{flag} must be {rule}, got {value}")


def cmd_analyze(args) -> int:
    _check_flag("--threads", args.threads, args.threads >= 1, "at least 1")
    _check_flag("--block-size", args.block_size, args.block_size in feat.BLOCK_SIZES,
                "a power of two in [8, 64]")
    if _is_y4m(args.input):
        frames = video_io.open_y4m(args.input)
    else:
        if not args.raw_geometry:
            raise UsageError("headerless input requires --raw-geometry")
        frames = video_io.open_raw_yuv(args.input, _parse_raw_geometry(args.raw_geometry))
    cfg = feat.AnalyzerConfig(block_size_luma=args.block_size)
    start = time.perf_counter()
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
    _check_flag("--threads", args.threads, args.threads >= 1, "at least 1")
    _check_flag("--trees", args.trees, args.trees >= 1, "at least 1")
    _check_flag("--max-depth", args.max_depth, args.max_depth >= 1, "at least 1")
    _check_flag("--seed", args.seed, args.seed >= 0, "at least 0")
    _check_flag("--holdout", args.holdout, args.holdout is None or 0.0 < args.holdout < 1.0,
                "a fraction in (0, 1)")
    X, y = forest.read_training_csv(args.data)
    hp = forest.ForestHyperparams(n_estimators=args.trees, max_depth=args.max_depth,
                                  seed=args.seed)
    holdout_stats = None
    n_train = len(y)
    if args.holdout is not None:
        rng = np.random.default_rng(args.seed)
        perm = rng.permutation(len(y))
        n_test = max(1, int(round(args.holdout * len(y))))
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        n_train = int(train_idx.size)
        if n_train < hp.min_samples_split:
            raise UsageError(f"--holdout {args.holdout} holds out {n_test} of the {len(y)} rows "
                             f"of {args.data}, leaving {n_train} to train on; training needs "
                             f"at least {hp.min_samples_split}")
        ss_tot = float(np.sum((y[test_idx] - y[test_idx].mean()) ** 2))
        if ss_tot == 0.0:
            raise ValueError(f"holdout R2 is undefined: the bits of the {n_test} held-out "
                             "rows have zero variance; hold out more rows")
        model = forest.train_arrays(X[train_idx], y[train_idx], hp, threads=args.threads)
        pred = forest.predict_batch(model, X[test_idx])
        resid = y[test_idx] - pred
        ss_res = float(np.sum(resid**2))
        holdout_stats = {
            "fraction": args.holdout,
            "n_train": n_train,
            "n_test": int(test_idx.size),
            "r2": 1.0 - ss_res / ss_tot,
            "mae": float(np.mean(np.abs(resid))),
        }
    else:
        model = forest.train_arrays(X, y, hp, threads=args.threads)
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
    for line, (frame, q, bits) in tables.read(path, LOG_COLUMNS):
        if (frame, q) in table:
            raise ValueError(f"{path}: line {line} repeats frame {frame} at q={q}")
        table[frame, q] = bits
    logged_frames = {f for f, _ in table}
    if logged_frames != frame_indices:
        odd = min(logged_frames ^ frame_indices)
        side = "log" if odd in logged_frames else "features"
        raise ValueError(f"{path}: frame {odd} appears only in the {side}")

    def encode(decision) -> float:
        key = (decision.frame_index, decision.q_prime_p)
        if key not in table:
            raise KeyError(f"no log entry for frame {key[0]} at q={key[1]}")
        return table[key]

    return encode


def cmd_rc(args) -> int:
    _check_flag("--seed", args.seed, args.seed >= 0, "at least 0")
    fps_num, fps_den = _parse_fps(args.fps)
    width, height = _parse_resolution(args.resolution)
    with _flag_values(f"--resolution {args.resolution!r}"):
        resolution = video_io.VideoGeometry(width=width, height=height)
    with _flag_values(f"--bitrate {args.bitrate} --fps {args.fps!r}"):
        cfg = rc.RcConfig(target_bitrate=args.bitrate, fps_num=fps_num, fps_den=fps_den,
                          resolution=resolution)
    with _flag_values(f"--sim-noise {args.sim_noise} --sim-seed {args.sim_seed}"):
        sim_params = sim.SimParams(noise_sigma=args.sim_noise, seed=args.sim_seed)
    rows = feat.read_features_csv(args.features)

    if args.first_pass == "noise":
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
    # The cores this process may run on, which can be fewer than the machine has.
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
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
    p.add_argument("--block-size", type=int, default=32, help="luma DCT block size")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (video_io.VideoFormatError, forest.ModelFormatError,
            rc.EncoderError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
