"""Starts the benchmark's CLI calls from a small process, so their peak RSS is their own.

Linux carries a process's peak RSS across fork and exec, so a child
started straight from the benchmark process (which holds numpy, the
inputs and the reference checks) would report at least the benchmark's
own peak. The launcher imports nothing heavy and is started before the
benchmark loads numpy; it starts each child, reaps it with ``os.wait4``
and sends back the child's exit code, wall time and ``ru_maxrss``.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "log": path, "timeout": s}``,
and one JSON reply per line on stdout,
``{"code": int, "wall_s": float, "maxrss_kb": int}``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


class Launcher:
    """Client side: owns the launcher process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, argv: list[str], cwd: str, env: dict, log: str,
             timeout: float) -> tuple[int, float, int]:
        """Run argv to completion: (exit code, wall seconds, peak RSS in KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "env": env, "log": log,
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("benchmark launcher exited")
        r = json.loads(reply)
        return r["code"], r["wall_s"], r["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"code": proc.returncode, "wall_s": wall,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
