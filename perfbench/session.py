"""One private Ray session per benchmark run, and its complete teardown.

``ray.shutdown()`` returns while processes of the session may still be
alive: the runtime-env agent can block for up to 60 s publishing a
"raylet died" error to an already-stopped GCS, and actor processes linger as
zombies until someone reaps them.  So the benchmark process makes itself a
child subreaper (orphaned session processes are re-parented to it and reaped
here), and after ``ray.shutdown()`` it polls ``/proc`` until no process of the
session remains: SIGTERM after a grace period, SIGKILL after a deadline.  A
process that had to be SIGKILLed counts as a failed operation.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import time
from pathlib import Path

# AF_UNIX socket paths are limited to 107 bytes; Ray puts
# <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store (64 more
# bytes with a 7-digit pid) under it.
_MAX_TEMP_DIR_LEN = 43
_PR_SET_CHILD_SUBREAPER = 36

TERM_GRACE_S = 3.0
# A Ray agent that finds the raylet gone publishes "raylet died" to the GCS
# with a 60 s timeout; its main thread is blocked in that call, so SIGTERM
# acts only when it returns.  The deadline lets such a process end by itself.
KILL_DEADLINE_S = 65.0
# A departure from Ray's defaults, which the engine's CLI uses.  By default
# Ray keeps at most num_cpus idle workers (1 here) and kills the rest after
# 1 s idle, so Ray Data jobs keep starting worker processes again, at
# random.  Without this limit, bulk_sync's scan_s spread over ten seeds
# (IQR/median) was 0.32 against 0.09 with it; airbyte_write's time metrics
# spread alike either way.  With the limit a session keeps its workers, so
# the churn does not show in scan_s, lookup_s or commit_s: an engine change
# that makes its jobs start fewer workers will not show either.
IDLE_WORKERS = 8


def num_cpus() -> int:
    return len(os.sched_getaffinity(0))


def become_subreaper() -> bool:
    """Orphaned descendants are re-parented to this process, not to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def ray_temp_dir(cand: Path) -> Path:
    """A private temp dir for the Ray session: ``cand`` when its path is
    short enough for Ray's socket paths, else a fresh dir in /tmp (removed
    at teardown like the rest)."""
    if len(str(cand)) <= _MAX_TEMP_DIR_LEN:
        cand.mkdir(parents=True, exist_ok=True)
        return cand
    import tempfile

    return Path(tempfile.mkdtemp(prefix="pb-", dir="/tmp"))


def object_store_bytes() -> int:
    """Plasma lives in /dev/shm: take at most a quarter of what is free
    there, capped at 768 MiB (the largest run moves ~200 MB of blocks)."""
    st = os.statvfs("/dev/shm")
    free = st.f_bavail * st.f_frsize
    return int(max(128 << 20, min(768 << 20, free // 4)))


def start(temp_dir: Path) -> None:
    import logging

    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=num_cpus(),
        include_dashboard=False,
        object_store_memory=object_store_bytes(),
        _temp_dir=str(temp_dir),
        logging_level="ERROR",
        log_to_driver=False,
        _system_config={"num_workers_soft_limit": IDLE_WORKERS},
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


# -- /proc helpers ----------------------------------------------------------
def _proc_table() -> dict[int, tuple[int, str, str]]:
    """pid → (ppid, state, cmdline) for every visible process."""
    out: dict[int, tuple[int, str, str]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        out[int(name)] = (int(fields[1]), fields[0], cmd)
    return out


def session_pids(temp_dir: Path) -> set[int]:
    """Descendants of this process plus any process naming the session's
    temp dir on its command line."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    me = os.getpid()
    found: set[int] = set()
    stack = [me]
    while stack:
        for c in children.get(stack.pop(), []):
            if c not in found:
                found.add(c)
                stack.append(c)
    marker = str(temp_dir)
    found |= {p for p, (_, _, cmd) in table.items() if marker in cmd and p != me}
    return found


def peak_rss_mb(temp_dir: Path) -> float:
    """Sum of VmHWM over this process and every process of the session."""
    total_kb = 0
    for pid in {os.getpid()} | session_pids(temp_dir):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive(pids: set[int]) -> set[int]:
    """Still listed in /proc — a zombie counts until it is reaped."""
    table = _proc_table()
    return {p for p in pids if p in table}


def stop(temp_dir: Path, log) -> int:
    """Shut the session down and wait until none of its processes remain.
    Returns the number of processes that had to be SIGKILLed."""
    import ray

    before = session_pids(temp_dir)
    if ray.is_initialized():
        ray.shutdown()
    t0 = time.monotonic()
    termed: set[int] = set()
    killed: set[int] = set()
    while True:
        _reap_children()
        left = _alive(before | session_pids(temp_dir))
        if not left:
            break
        waited = time.monotonic() - t0
        if waited > KILL_DEADLINE_S + 5.0:
            log(f"teardown: processes still listed after SIGKILL: {sorted(left)}")
            killed |= left
            break
        if waited > KILL_DEADLINE_S:
            for p in left - killed:
                _signal(p, signal.SIGKILL)
            killed |= left
        elif waited > TERM_GRACE_S:
            for p in left - termed:
                log(f"teardown: SIGTERM to {_describe(p)}")
                _signal(p, signal.SIGTERM)
            termed |= left
        time.sleep(0.05)
    log(f"teardown: {time.monotonic() - t0:.2f} s after ray.shutdown()")
    if termed:
        log(f"teardown: sent SIGTERM to {len(termed)} process(es) left after ray.shutdown()")
    if killed:
        log(f"teardown: SIGKILLed {len(killed)} straggler(s)")
    shutil.rmtree(temp_dir, ignore_errors=True)
    return len(killed)


def _describe(pid: int) -> str:
    _, state, cmd = _proc_table().get(pid, (0, "?", ""))
    return f"pid {pid} ({state}) {cmd[:100]}"


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass
