#!/usr/bin/env python3
"""Benchmark of the intrarc CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 55 --trace 0

Workloads (see perfbench/chain.py): analyze, model. Inputs are
made from --seed before timing starts and cached in .bench_work/cache/.

--trace 0 runs every CLI call in its own child process, one call after
another, and reports the end-to-end metrics: wall time and peak RSS per
stage, model size and quality, rate-control accuracy, and the start-up
time of one CLI process (setup_s). --trace 1 runs the same chain in this
process through intrarc.cli.main, once plain and once with span wrappers
on the program's modules, and reports the per-layer metrics and the
tracing overhead. Each mode repeats the chain while another cycle fits
in --seconds (at least once) and reports, per stage, the median of
every call the run made.

Every call's outputs are checked; a failed call or check is counted and
the run goes on. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full record
(machine, input digests, every call, spans) is written under
.bench_work/results/.
"""

from __future__ import annotations

import os
import sys

# The program and its BLAS use the usable cores, set before numpy loads.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.launcher import Launcher  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="analyze or model")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "intrarc" / "cli.py").is_file():
        print(f"error: no program sources at {src / 'intrarc'}", file=sys.stderr)
        return 2
    # Started while this process is still small; see launcher.py.
    launcher = Launcher()
    try:
        sys.path.insert(0, str(src))
        import intrarc

        if Path(intrarc.__file__).resolve().parent != (src / "intrarc").resolve():
            print(f"error: imported intrarc from {intrarc.__file__}, not {src}", file=sys.stderr)
            return 2
        from perfbench import bench, chain

        if args.workload not in chain.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(chain.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        run = bench.Run(launcher, ROOT, args.workload, chain.WORKLOADS[args.workload],
                        args.seed, args.seconds, bool(args.trace))
        result = run.execute()
    finally:
        launcher.close()
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ops':48s} {result['failed']:>7d} of {result['attempted']} calls")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
