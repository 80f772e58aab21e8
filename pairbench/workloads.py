"""The link operating points the benchmark runs.

Every workload goes through the whole user loop on its own inputs: it
simulates the two tag files once per set-up repetition, then spends the
measuring window alternating the offline path (``pairlock lock`` then
``pairlock bell``) and the live path (``pairlock serve`` fed by a paced
sender), spending about half of the window on each. The workloads
differ in the link, which decides which layer carries the cost.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    duration: float          # seconds of simulated link data
    offset: float            # Bob-minus-Alice clock offset, seconds
    drift: float = 5e-11     # relative clock drift
    gps: bool = True         # once-per-second markers in both files
    config: str = ""         # INI overrides of the reference link, empty for none
    live_speed: float = 20.0  # seconds of link data the paced sender sends per second


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="reference_offline",
        why="README quick start link (84 coincidences/s, GPS on): tag I/O, simulator, "
            "extraction and fine tracking share the time; blind search is bypassed",
        duration=120.0, offset=0.3),
    Workload(
        name="high_rate",
        why="1e6 pairs/s source: fine histogram pairs grow as rA*rB, so chunked "
            "histogramming, greedy extraction and the CSV writer dominate",
        duration=40.0, offset=0.3, config="[link]\npair_rate = 1e6\n",
        # At 20x serve cannot keep up with this rate, and a saturated
        # receiver's latency depends on the host's speed more than on the code.
        live_speed=8.0),
    Workload(
        name="lossy_blind",
        why="no GPS markers, 12 ms offset, weaker receiver: the +-20 ms blind coarse "
            "search is a large share of lock time; no other workload runs it",
        duration=60.0, offset=0.012, gps=False, config="[link]\neta_bob = 0.010\n"),
    Workload(
        name="live_stream",
        why="long reference stream sent at 20x real time into serve: transport and the "
            "streaming engine, whose per-feed cost grows with run length",
        duration=360.0, offset=0.3),
)}
