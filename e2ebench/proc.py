"""Program processes: a clean environment, timed reports, a managed server."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def program_env(work: Path, **extra: str) -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` variable.

    Dropping ``REPRO_WORKERS`` keeps the pool serial; the cache and ledger
    point into the run's work directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_LEDGER_DIR"] = str(work / "ledger")
    env.update(extra)
    return env


def _command(args: list[str], spans_out: Path | None) -> list[str]:
    opts = ["--spans", str(spans_out)] if spans_out is not None else []
    return [sys.executable, str(LAUNCH), *opts, "--", *args]


@dataclass
class Report:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    returncode: int


def run_report(args: list[str], env: dict[str, str], out: Path,
               spans_out: Path | None = None) -> Report:
    """One program process, timed from spawn to reap (``wait4``)."""
    env = dict(env, E2EBENCH_SPAWN=repr(sp.clock()))
    with open(out, "wb") as fh:
        t0 = sp.clock()
        proc = subprocess.Popen(_command(args, spans_out), env=env, cwd=ROOT,
                                stdout=fh, stderr=subprocess.DEVNULL,
                                preexec_fn=_pin_program)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = sp.clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Report(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.read_bytes(),
        returncode=proc.returncode,
    )


def _split_cpus() -> tuple[set[int], set[int]] | None:
    """(benchmark CPUs, program CPU), or None on a single CPU.

    The program runs serially (no ``REPRO_WORKERS``), so it gets the last
    allowed CPU to itself and the load generator the others, and the two no
    longer compete for one CPU (on a 2-vCPU VM, five seeds of the service
    workload: median refresh 1.94 to 2.42 s unpinned, 2.45 to 2.67 s pinned).
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (set(cpus[:-1]), {cpus[-1]}) if len(cpus) >= 2 else None


CPU_SPLIT = _split_cpus()  # taken before the benchmark pins itself
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _pin_program() -> None:
    """Runs in the forked child: pin it, and kill it if the benchmark dies.

    Without the parent-death signal a benchmark stopped by a time limit
    would leave its report or ``repro serve`` process running after it.
    SIGINT goes back to its default: a shell without job control starts
    background commands with SIGINT ignored, the ignore survives ``exec``,
    and a server that ignores it cannot be stopped cleanly (it was killed
    after the 30 s wait, losing its spans).
    """
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if CPU_SPLIT is not None:
        os.sched_setaffinity(0, CPU_SPLIT[1])


def pin_benchmark() -> None:
    if CPU_SPLIT is not None:
        os.sched_setaffinity(0, CPU_SPLIT[0])


class Server:
    """``repro serve --ingest`` started through the launch wrapper."""

    def __init__(self, args: list[str], env: dict[str, str],
                 spans_out: Path | None = None):
        env = dict(env, PYTHONUNBUFFERED="1", E2EBENCH_SPAWN=repr(sp.clock()))
        self.proc = subprocess.Popen(
            _command(["serve", "--ingest", "--port", "0", *args], spans_out),
            env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, preexec_fn=_pin_program,
        )
        self.port = None
        for line in self.proc.stdout:
            found = re.search(rb"http://127\.0\.0\.1:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("server exited before printing its URL")

    def cpu_s(self) -> float:
        """User + system CPU of the server so far (``/proc``)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGINT (the program's clean-stop path), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
