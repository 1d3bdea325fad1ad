"""Run one program invocation under a guard and classify how it ended.

Each child gets an address-space cap, set with ``setrlimit`` in the
child only, and a wall-clock timeout.  The parent waits with
``os.wait4`` so that the child's own peak RSS is read from its rusage.
A quadratic-memory regression then ends as a recorded failure of one
op instead of exhausting a shared machine.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass

# A few GiB: far above today's largest op (~0.4 GiB), far below the machine.
ADDRESS_SPACE_CAP = 4 << 30


@dataclass(frozen=True)
class OpResult:
    """How one guarded child ended."""

    name: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int | None
    signal: int | None
    timed_out: bool
    reason: str | None

    @property
    def ok(self) -> bool:
        return self.reason is None

    def failed(self, reason: str) -> "OpResult":
        """The same run, marked failed by a later check of its output."""
        return OpResult(self.name, self.wall_s, self.peak_rss_mb, self.exit_code,
                        self.signal, self.timed_out, reason)


def _cap_address_space(limit: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def _stderr_tail(path: str, limit: int = 300) -> str:
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - limit))
            text = fh.read().decode("utf-8", "replace")
    except OSError:
        return ""
    return " ".join(text.split())


def run_guarded(name: str, argv: list[str], *, cwd: str, env: dict, timeout_s: float,
                log_path: str, cap_bytes: int = ADDRESS_SPACE_CAP) -> OpResult:
    """Spawn ``argv``, time it from spawn to exit, and classify the outcome.

    The wall time covers interpreter start, import and the work, which is
    what a command-line user waits for.  Standard output is discarded;
    standard error goes to ``log_path`` and its tail becomes the failure
    reason of a non-zero exit.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log,
                                preexec_fn=_cap_address_space(cap_bytes))
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(max(0.0, timeout_s) * 1000.0)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    # wait4 reaped the child; tell Popen so it never waits on a reused pid
    proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
    sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
    if timed_out:
        reason = f"timeout after {timeout_s:.0f} s"
    elif sig is not None:
        reason = f"killed by {signal.Signals(sig).name}"
    elif exit_code != 0:
        reason = f"exit {exit_code}: {_stderr_tail(log_path)}"
    else:
        reason = None
    # ru_maxrss is in KiB on Linux
    return OpResult(name, wall, usage.ru_maxrss / 1024.0, exit_code, sig, timed_out, reason)
