"""Measuring primitives: child processes timed with wait4, in-process spans,
and exact call counts taken with cProfile."""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# a single command takes a few seconds; this only stops a hung child
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stderr_tail: str


def run_child(argv: list[str], env: dict, cwd: Path, log_path: Path) -> ChildRun:
    """Run one command to completion; time it from spawn to reap and take
    its own CPU time and peak RSS from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = ""
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stderr_tail=tail,
    )


class Spawner:
    """Runs commands through a small helper process.

    On Linux a child's ru_maxrss starts at its parent's peak RSS, and the
    benchmark itself grows while it builds fixtures and checks outputs. The
    helper is started while the benchmark is still small and never grows, so
    a command's peak RSS is its own.
    """

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str], cwd: Path, log_path: Path) -> ChildRun:
        request = {"argv": argv, "cwd": str(cwd), "log_path": str(log_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command helper exited")
        return ChildRun(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result = run_child(request["argv"], dict(os.environ), Path(request["cwd"]),
                           Path(request["log_path"]))
        print(json.dumps(asdict(result)), flush=True)


class Tracer:
    """In-memory spans: name, start, end, parent id, plus free attributes.

    Spans are plain dicts so a caller can attach attributes (bytes moved,
    premises kept) to a span after the call it wraps has returned.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def root_of(self, span: dict) -> dict:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span


def call_counts(fn, names: set[str]):
    """Run fn under cProfile; return its result and the number of calls of
    each function name in names (summed over every module defining it)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    counts = dict.fromkeys(names, 0)
    for (_, _, func), row in pstats.Stats(profile).stats.items():
        if func in counts:
            counts[func] += row[1]
    return result, counts


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
