"""Run one function in a forked child under an address-space limit and a wall
timeout, both set in the child only.

The parent starts one child at a time and waits for it. The child sends the
function's JSON result back through a pipe; a MemoryError, an exception, the
timeout or a nonzero exit status make the run a failure. The child's peak
resident memory comes from ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass

MEMORY_LIMIT_BYTES = 1 << 30
TIMEOUT_S = 60

_EXIT_ERROR = 3


@dataclass
class ChildResult:
    value: object  # the function's result, or None when the child failed
    error: str | None
    seconds: float
    peak_rss_mb: float


def run(fn) -> ChildResult:
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_end)
        status = 0
        try:
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
            signal.alarm(TIMEOUT_S)
            payload = {"value": fn()}
        except MemoryError:
            payload = {"error": "MemoryError"}
            status = _EXIT_ERROR
        except BaseException as exc:  # reported to the parent, which counts it
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            status = _EXIT_ERROR
        try:
            with os.fdopen(write_end, "wb") as out:
                out.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(status)

    os.close(write_end)
    with os.fdopen(read_end, "rb") as incoming:
        data = incoming.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    peak_rss_mb = usage.ru_maxrss / 1024.0
    try:
        payload = json.loads(data.decode("utf-8")) if data else {}
    except ValueError:
        payload = {}
    if os.WIFSIGNALED(status):
        signum = os.WTERMSIG(status)
        reason = "timeout" if signum == signal.SIGALRM else signal.Signals(signum).name
        return ChildResult(None, f"killed by {reason}", seconds, peak_rss_mb)
    if "error" in payload:
        return ChildResult(None, payload["error"], seconds, peak_rss_mb)
    if os.WEXITSTATUS(status) != 0 or "value" not in payload:
        return ChildResult(None, f"exit status {os.WEXITSTATUS(status)}", seconds, peak_rss_mb)
    return ChildResult(payload["value"], None, seconds, peak_rss_mb)
