"""Host and process probes read from ``/proc``: CPU seconds and peak
resident memory of the benchmark driver plus its Ray worker processes,
the host's CPU count and a package-independent noise gauge.

No third-party package is needed; everything is read from procfs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def host_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, capped
    by ``OMP_NUM_THREADS`` when that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def noise_gauge(reps: int = 3) -> float:
    """Median seconds of a fixed numpy loop (matrix products and a
    sort). It touches nothing of the program under test, so its drift
    between runs is host drift."""
    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    v = rng.random(400_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(12):
            a = a @ a
            a /= np.abs(a).max()
        np.sort(v)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def descendants(root: int) -> list[int]:
    kids = _children()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for k in kids.get(pid, []):
            out.append(k)
            todo.append(k)
    return out


def worker_pids(root: int) -> list[int]:
    """Ray worker processes below ``root`` (the driver). Ray's own
    daemons (raylet, GCS, log monitor, dashboard agents) are left out:
    the metric covers the driver and the processes that run tasks."""
    return [p for p in descendants(root)
            if _cmdline(p).startswith("ray::")
            or "default_worker.py" in _cmdline(p)]


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid``; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """Sum over ``pids`` of each process's peak resident set (VmHWM).
    This bounds the peak of the summed RSS from above and needs no
    sampling thread competing for the CPU."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stop_processes(marker: str, timeout_s: float = 20.0,
                   first=signal.SIGTERM) -> None:
    """Stop every process whose command line contains ``marker`` (a Ray
    temp or session dir) and wait until each has ended: signal
    ``first``, then SIGKILL for what is left halfway through
    ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = [int(p) for p in os.listdir("/proc") if p.isdigit()
                and int(p) != os.getpid() and marker in _cmdline(int(p))]
        if not left:
            return
        now = time.monotonic()
        if now > deadline:
            raise RuntimeError(f"processes {left} did not stop")
        sig = signal.SIGKILL if now > deadline - timeout_s / 2 else first
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
