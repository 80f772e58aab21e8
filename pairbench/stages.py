"""Run one ``pairlock`` subcommand as its own process and measure it.

Untraced stages run exactly what the installed ``pairlock`` console
script runs (``pairlock.cli.main``). Traced stages run the same entry
point through ``traced_cli.py``, which times calls into the package's
modules and writes the spans to a JSON file when the process ends.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"
ENTRY = "import sys\nfrom pairlock.cli import main\nsys.exit(main())"

# No stage of any workload comes near this; a stage that does is stuck.
STAGE_TIMEOUT_S = 120.0


@dataclass
class Proc:
    """Outcome of one stage process."""

    exit_code: int
    wall_s: float        # spawn to reaped
    rss_mb: float        # peak resident set size (rusage ru_maxrss)
    stdout: str
    stderr: str
    trace: dict | None   # what traced_cli.py wrote, for traced stages


def command(cli_args: list[str], spans: Path | None, t_spawn: float) -> list[str]:
    if spans is None:
        return [sys.executable, "-c", ENTRY, *cli_args]
    return [sys.executable, str(TRACED_CLI), str(spans), repr(t_spawn), "--", *cli_args]


def child_env(src: Path, unbuffered: bool = False) -> dict[str, str]:
    """src/ first on the import path; unbuffered output for a stage whose
    lines are timestamped as they arrive."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def reap(proc: subprocess.Popen, timeout: float = STAGE_TIMEOUT_S) -> tuple[int, float, float]:
    """Wait for a child, killing it after timeout; return (exit code, rss MB, t_exit)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:       # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, t_exit


def load_trace(spans: Path | None) -> dict | None:
    if spans is None or not spans.is_file():
        return None
    return json.loads(spans.read_text(encoding="utf-8"))


def run_cli(cli_args: list[str], workdir: Path, src: Path,
            spans: Path | None = None) -> Proc:
    """Run ``pairlock <cli_args>`` in workdir and wait for it."""
    out_path = workdir / "stage.out"
    err_path = workdir / "stage.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(command(cli_args, spans, t_spawn), cwd=workdir,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(src))
        code, rss_mb, t_exit = reap(proc)
    return Proc(code, t_exit - t_spawn, rss_mb,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"),
                load_trace(spans))
