"""Process hygiene: pinned environments, children, clean-up, /proc.

No numpy import here — :func:`pin_blas` has to run before numpy is
first imported anywhere in the process.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["HERE", "ROOT", "CACHE_DIR", "OUT_DIR", "BLAS_VARIABLES",
           "pin_blas", "Child", "Fleet", "Watchdog", "cpu_seconds",
           "peak_rss_mb", "environment"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / "out"

#: one BLAS thread everywhere.  With the default two threads on this
#: 2-core box a 1-2 request ``handle_batch`` takes 8.0 ms median
#: against 0.51 ms pinned: the extra thread's wake-up quantum, not
#: program work.  Unpinned numbers measure the scheduler.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS threads and point the program's bundle cache into the
    benchmark directory; call before numpy is imported."""
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(CACHE_DIR)


class Child:
    """One server process.  It prints a single JSON line on stdout when
    it is ready (bound address, its own set-up timings) and serves
    until SIGTERM, which starts the program's graceful drain."""

    def __init__(self, name: str, arguments: Sequence[str]) -> None:
        self.name = name
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT_DIR / f"child-{name}.log", "wb")
        # stdin is a pipe nobody writes to: the child watches it for
        # EOF, so it cannot outlive a benchmark that was killed
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "children.py"), *arguments],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, cwd=str(ROOT), env=dict(os.environ))
        self.ready: Optional[dict] = None

    def wait_ready(self, timeout: float,
                   meanwhile: Optional[Callable[[], object]] = None) -> dict:
        """The child's ready line; raises if it exits or stays silent.
        ``meanwhile`` is called four times a second while waiting."""
        box: Dict[str, bytes] = {}
        reader = threading.Thread(
            target=lambda: box.update(line=self.process.stdout.readline()),
            daemon=True)
        reader.start()
        deadline = time.monotonic() + timeout
        while reader.is_alive() and time.monotonic() < deadline:
            reader.join(0.25)
            if meanwhile is not None and reader.is_alive():
                meanwhile()
        if not box.get("line"):
            raise RuntimeError(
                f"child {self.name} not ready within {timeout:.0f}s "
                f"(exit code {self.process.poll()}); see "
                f"{OUT_DIR / f'child-{self.name}.log'}")
        self.ready = json.loads(box["line"])
        return self.ready

    @property
    def address(self):
        return (self.ready["host"], self.ready["port"])

    def stop(self, graceful: bool, timeout: float = 15.0) -> Optional[int]:
        """SIGTERM (the drain path) when ``graceful``, else SIGKILL;
        always waits until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM if graceful
                                     else signal.SIGKILL)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


class Fleet:
    """Every child of one run, so a failure anywhere can reach all of
    them: drained in reverse start order on success, killed on error."""

    def __init__(self) -> None:
        self.children: List[Child] = []

    def spawn(self, name: str, arguments: Sequence[str]) -> Child:
        child = Child(name, arguments)
        self.children.append(child)
        return child

    def stop_all(self, graceful: bool) -> Dict[str, Optional[int]]:
        codes = {}
        for child in reversed(self.children):
            codes[child.name] = child.stop(graceful)
        self.children = []
        return codes


class Watchdog:
    """Hard wall-clock cap: when it fires — or the benchmark is told
    to stop (SIGTERM, SIGINT) — kill every child and leave with a
    non-zero code without printing a result."""

    def __init__(self, seconds: float, fleet: Fleet) -> None:
        self._timer = threading.Timer(
            seconds, self._abort,
            [3, f"benchmark exceeded its {seconds:.0f}s wall-clock cap"])
        self._timer.daemon = True
        self._fleet = fleet

    def _abort(self, code: int, why: str) -> None:
        print(f"{why}; killing children", file=sys.stderr, flush=True)
        for child in list(self._fleet.children):
            if child.process.poll() is None:
                child.process.kill()
                child.process.wait()
        os._exit(code)

    def __enter__(self) -> "Watchdog":
        for number in (signal.SIGTERM, signal.SIGINT):
            signal.signal(number, lambda received, _frame: self._abort(
                4, f"benchmark stopped by signal {received}"))
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
        for number in (signal.SIGTERM, signal.SIGINT):
            signal.signal(number, signal.SIG_DFL)


# -- /proc --------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may contain spaces; fields resume after ')'
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def environment(seed: int, seconds: float) -> dict:
    """What a reader needs to know about the box a number came from."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        answer = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if answer.returncode == 0:
            commit = answer.stdout.strip()
    return {"commit": commit, "nproc": os.cpu_count(),
            "blas_threads": {name: os.environ.get(name)
                             for name in BLAS_VARIABLES},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "seconds": seconds}
