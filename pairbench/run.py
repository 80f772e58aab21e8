"""pairlock benchmark: the user's loop, end to end, on four link workloads.

    python3 pairbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each stage is its own ``pairlock`` process, as a user runs it.
Set-up simulates the workload's tag files (three times, the median is
``setup_s``); then for S seconds the run alternates the offline path
(lock then bell) and the live path (serve fed by a paced sender), checks
every output, and prints one line per metric followed by a JSON summary
as the last line. With ``--trace 1`` it instead runs each stage once
traced and prints the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from layers import layer_metrics, percentile
from stages import run_cli
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".pairbench_work"
FLOOR_FILE = BENCH_DIR / "locked_floor.json"

SETUP_REPS = 3
# Shortest data a scaled run may use: live latency is timed only on blocks
# after serve's start-up, which holds back about the first 20 blocks on
# high_rate and the first 30 on lossy_blind (see live.py).
MIN_SCALED_DURATION_S = 40.0
LIVE_SHARE = 0.5                 # of the measuring window, after one run of each leg
OFFSET_BOUND_S = 3.5e-9          # acceptance criterion 4
S_MAX = 2.0 * math.sqrt(2.0)

END_TO_END_UNITS = {
    "setup_s": "s", "offline_s": "s", "offline_rss_mb": "MB", "locked_fraction": "1",
    "live_latency_p50_ms": "ms", "live_latency_p98_ms": "ms", "live_drain_s": "s",
    "live_rss_mb": "MB",
}


class Ops:
    """Counts stage processes and the checks each one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def truth_offset_fn(truth: dict):
    """True Bob-minus-Alice offset at an Alice-local time, from truth.json."""
    from pairlock.simulate import ClockModel, relative_offset_at
    alice, bob = (ClockModel(start_offset=truth[s]["start_offset"],
                             drift_fraction=truth[s]["drift_fraction"])
                  for s in ("alice", "bob"))
    return lambda t_alice: float(relative_offset_at(alice, bob, t_alice))


def exit_problems(proc) -> list[str]:
    return [] if proc.exit_code == 0 else [f"exit {proc.exit_code}: {proc.stderr[-300:]}"]


def parse_locked(stdout: str) -> tuple[int, int] | None:
    for line in stdout.splitlines():
        if line.startswith("blocks locked:"):
            locked, total = line.split(":", 1)[1].strip().split("/")
            return int(locked), int(total)
    return None


def offset_problems(timeline: Path, truth_offset) -> list[str]:
    """The last timeline row is the final recovered offset, at its block's middle."""
    rows = timeline.read_text(encoding="utf-8").strip().splitlines()[1:]
    if not rows:
        return ["timeline has no locked block"]
    t_start, t_end, offset_ns = (float(x) for x in rows[-1].split(",")[:3])
    error = offset_ns * 1e-9 - truth_offset(0.5 * (t_start + t_end))
    if abs(error) >= OFFSET_BOUND_S:
        return [f"final offset off by {error * 1e9:.3f} ns"]
    return []


def recorded_floor(workload: str, seed: int) -> float | None:
    """The recorded locked fraction for this workload and seed, if any.

    Lock depends on the seed (on high_rate a few seeds miss the first
    acquisition and lock 35 of 40 blocks), so a seed that was not
    recorded has no floor.
    """
    floors = json.loads(FLOOR_FILE.read_text(encoding="utf-8"))
    return floors.get(workload, {}).get(str(seed))


@contextlib.contextmanager
def workspace(wl, seed: int):
    """A scratch directory inside the checkout, removed afterwards."""
    workdir = WORK_ROOT / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


class WorkloadRun:
    """One workload on one seed: its stages, and the checks on their outputs."""

    def __init__(self, wl, seed: int, workdir: Path, scale: float = 1.0,
                 floor: float | None = None):
        self.wl = wl
        self.seed = seed
        self.dir = workdir
        self.scale = scale
        self.floor = floor
        self.ops = Ops()
        self.config = []
        if wl.config:
            (workdir / "link.ini").write_text(wl.config, encoding="utf-8")
            self.config = ["--config", "link.ini"]
        self.truth_offset = None
        self.inputs: str | None = None        # digest of the first simulate's files
        self.reference: str | None = None     # digest of the first lock's log + timeline
        self.locked: tuple[int, int] | None = None

    # -- stages -----------------------------------------------------------

    def simulate(self, spans: Path | None = None):
        wl = self.wl
        duration = wl.duration if self.scale == 1.0 \
            else max(wl.duration * self.scale, MIN_SCALED_DURATION_S)
        args = ["simulate", "--duration", repr(duration),
                "--seed", str(self.seed), "--offset", repr(wl.offset),
                "--drift", repr(wl.drift), "--out-a", "alice.ettag",
                "--out-b", "bob.ettag", "--truth", "truth.json", *self.config]
        if not wl.gps:
            args.append("--no-gps")
        proc = run_cli(args, self.dir, SRC, spans)
        problems = exit_problems(proc)
        if not problems:
            files = digest(self.dir / "alice.ettag", self.dir / "bob.ettag",
                           self.dir / "truth.json")
            if self.inputs not in (None, files):
                problems.append("same seed gave different tag files")
            self.inputs = files
            self.truth_offset = truth_offset_fn(
                json.loads((self.dir / "truth.json").read_text(encoding="utf-8")))
        self.ops.record("simulate", problems)
        return proc

    def lock(self, spans: Path | None = None):
        proc = run_cli(["lock", "--alice", "alice.ettag", "--bob", "bob.ettag",
                        "--out", "lock.csv", "--timeline", "lock_timeline.csv",
                        *self.config], self.dir, SRC, spans)
        problems = self.lock_output_problems(proc, "lock_timeline.csv")
        if not problems:
            logs = digest(self.dir / "lock.csv", self.dir / "lock_timeline.csv")
            if self.reference is None:
                self.reference = logs
                self.locked = parse_locked(proc.stdout)
                problems += self.floor_problems()
            elif logs != self.reference:
                problems.append("lock output differs between runs on the same files")
        self.ops.record("lock", problems)
        return proc

    def bell(self, spans: Path | None = None):
        proc = run_cli(["bell", "--coincidences", "lock.csv", "--timeline",
                        "lock_timeline.csv", "--format", "json", *self.config],
                       self.dir, SRC, spans)
        problems = exit_problems(proc)
        if not problems:
            report = json.loads(proc.stdout)
            rows = len((self.dir / "lock.csv").read_text(encoding="utf-8").splitlines()) - 1
            if report["coincidence_total"] != rows:
                problems.append(f"bell counted {report['coincidence_total']} "
                                f"coincidences, log has {rows}")
            if not abs(report["s"]) <= S_MAX:
                problems.append(f"S = {report['s']} exceeds 2*sqrt(2)")
        self.ops.record("bell", problems)
        return proc

    def live(self, spans: Path | None = None):
        from live import run_live   # imports pairlock: only once main() found src/
        result = run_live(["serve", "--alice", "alice.ettag", "--port", "0",
                           "--out", "serve.csv", "--timeline", "serve_timeline.csv",
                           *self.config], self.dir / "bob.ettag", self.dir, SRC,
                          self.wl.live_speed, self.truth_offset, spans)
        self.ops.record("send", [result.send_error] if result.send_error else [])
        problems = result.problems + self.lock_output_problems(result.serve,
                                                               "serve_timeline.csv")
        if not problems:
            if digest(self.dir / "serve.csv", self.dir / "serve_timeline.csv") \
                    != self.reference:
                problems.append("live log or timeline differs from pairlock lock")
            if parse_locked(result.serve.stdout) != self.locked:
                problems.append("live locked blocks differ from pairlock lock")
            if not result.latencies:
                problems.append("serve printed no block status line after start-up")
        self.ops.record("serve", problems)
        return result

    # -- checks -----------------------------------------------------------

    def lock_output_problems(self, proc, timeline: str) -> list[str]:
        if proc.exit_code != 0:
            return exit_problems(proc)
        if parse_locked(proc.stdout) is None:
            return ["no lock summary printed"]
        return offset_problems(self.dir / timeline, self.truth_offset)

    def floor_problems(self) -> list[str]:
        """locked_fraction may not fall below the recorded value."""
        if self.floor is not None and self.locked_fraction < self.floor:
            return [f"locked fraction {self.locked_fraction:.4f} "
                    f"below recorded {self.floor:.4f}"]
        return []

    @property
    def locked_fraction(self) -> float:
        return self.locked[0] / self.locked[1]


def measure(run: WorkloadRun, seconds: float) -> dict[str, float]:
    """Set up, then alternate offline and live runs for `seconds`."""
    setup = [run.simulate().wall_s for _ in range(SETUP_REPS)]
    if run.ops.failures:
        return {}
    offline: list[tuple[float, float]] = []   # (lock + bell wall, lock rss)
    lives = []
    spent = {"offline": 0.0, "live": 0.0}
    last = {}
    t0 = time.perf_counter()
    while not run.ops.failures:
        if not offline:
            leg = "offline"
        elif not lives:
            leg = "live"
        else:
            total = spent["offline"] + spent["live"]
            leg = "live" if spent["live"] < LIVE_SHARE * total else "offline"
            if time.perf_counter() - t0 + last[leg] > seconds:
                break
        t = time.perf_counter()
        if leg == "offline":
            lock = run.lock()
            bell = run.bell()
            offline.append((lock.wall_s + bell.wall_s, lock.rss_mb))
        else:
            lives.append(run.live())
        last[leg] = time.perf_counter() - t
        spent[leg] += last[leg]
    if run.ops.failures:
        return {}
    latencies = [x for r in lives for x in r.latencies]
    return {
        "setup_s": statistics.median(setup),
        "offline_s": statistics.median(w for w, _ in offline),
        "offline_rss_mb": statistics.median(m for _, m in offline),
        "locked_fraction": run.locked_fraction,
        "live_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "live_latency_p98_ms": percentile(latencies, 98) * 1e3,
        "live_drain_s": statistics.median(r.drain_s for r in lives),
        "live_rss_mb": statistics.median(r.serve.rss_mb for r in lives),
    }


def trace(run: WorkloadRun) -> dict[str, tuple[float, str]]:
    """One traced pass over every stage; per-layer metrics from the spans."""
    spans = run.dir / "spans"
    spans.mkdir()
    sim = run.simulate(spans / "simulate.json")
    if run.ops.failures:
        return {}
    plain = run.lock().wall_s + run.bell().wall_s
    lock = run.lock(spans / "lock.json")
    bell = run.bell(spans / "bell.json")
    if run.ops.failures:
        return {}
    live = run.live(spans / "serve.json")
    if run.ops.failures:
        return {}
    return layer_metrics(sim, lock, bell, live, plain)


def run_workload(wl, seed: int, seconds: float, traced: bool, scale: float):
    # Floors were recorded at full size; a scaled self-test run has none.
    floor = recorded_floor(wl.name, seed) if scale == 1.0 else None
    if scale == 1.0 and floor is None:
        print(f"{wl.name} seed {seed}: no locked fraction recorded in "
              f"{FLOOR_FILE.name}, so its floor is not checked")
    with workspace(wl, seed) as workdir:
        run = WorkloadRun(wl, seed, workdir, scale, floor)
        if traced:
            metrics = trace(run)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in measure(run, seconds).items()}
        return run.ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply each workload's data length (self-test only)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: stage processes are killed and reaped
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "pairlock" / "cli.py").is_file():
        print(f"pairbench: no pairlock sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pairlock
    if Path(pairlock.__file__).resolve().parent != (SRC / "pairlock").resolve():
        print(f"pairbench: imported pairlock from {pairlock.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    attempted = 0
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for wl in chosen:
        ops, values = run_workload(wl, args.seed, args.seconds, bool(args.trace), args.scale)
        attempted += ops.attempted
        failures += [f"{wl.name} {f}" for f in ops.failures]
        print(f"{wl.name} seed {args.seed}: ops {ops.attempted}, "
              f"failed_ops {len(ops.failures)}")
        for name, (value, unit) in values.items():
            print(f"  {name:<26} {value:>14.6g} {unit}")
            key = name if len(chosen) == 1 else f"{wl.name}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
