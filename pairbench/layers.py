"""Per-layer metrics from the spans of one traced pass.

Layers are the package's modules. The offline counts (correlation,
extraction, tag-file reads, log I/O) come from the traced ``lock`` and
``bell`` processes; the streaming counts (feeds, decodes, transport)
from the traced ``serve`` process and the paced sender.
"""

from __future__ import annotations

import statistics

from tracer import self_times


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _spans(*procs) -> list[dict]:
    return [s for p in procs for s in p.trace["spans"]]


def _total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _attr(spans: list[dict], name: str, key: str) -> int:
    return sum(s["attrs"][key] for s in spans if s["name"] == name)


def _self(spans: list[dict], names: tuple[str, ...]) -> float:
    own = self_times(spans)
    return sum(own[s["run"], s["id"]] for s in spans if s["name"] in names)


def layer_metrics(sim, lock, bell, live, untraced_offline_s: float) -> dict:
    """Metric name -> (value, unit)."""
    offline = _spans(lock, bell)
    serve = _spans(live.serve)
    feeds = [(s["end"] - s["start"]) * 1e3 for s in serve if s["name"] == "sync.feed"]
    coarse_calls = _count(offline, "sync.coarse")
    send = live.send
    lock_busy = lock.wall_s - lock.trace["import_s"]
    covered = sum(s["end"] - s["start"] for s in lock.trace["spans"] if s["parent"] is None)
    mb = 1.0 / (1024 * 1024)
    return {
        "simulate.generate_s": (_total(_spans(sim), "simulate.generate"), "s"),
        "simulate.tags": (_attr(_spans(sim), "simulate.generate", "tags"), "count"),
        "timetags.write_s": (_total(_spans(sim), "timetags.write"), "s"),
        "timetags.read_s": (_total(offline, "timetags.read"), "s"),
        "timetags.bytes_read": (_attr(offline, "timetags.read", "bytes"), "bytes"),
        "timetags.decode_s": (_total(serve, "timetags.decode"), "s"),
        "timetags.decode_calls": (_count(serve, "timetags.decode"), "count"),
        "sync.coarse_s": (_total(offline, "sync.coarse"), "s"),
        "sync.coarse_calls": (coarse_calls, "count"),
        "sync.coarse_pairs": (_attr(offline, "sync.coarse", "pairs"), "count"),
        "sync.coarse_lock_ratio": (
            _attr(offline, "sync.coarse", "cleared") / coarse_calls if coarse_calls else 0.0,
            "1"),
        "sync.fine_s": (_total(offline, "sync.fine"), "s"),
        "sync.fine_calls": (_count(offline, "sync.fine"), "count"),
        "sync.fine_pairs": (_attr(offline, "sync.fine", "pairs"), "count"),
        "sync.extract_s": (_total(offline, "sync.extract"), "s"),
        "sync.coincidences": (_attr(offline, "sync.extract", "coincidences"), "count"),
        "sync.engine_self_s": (_self(offline, ("sync.run_offline",)), "s"),
        "sync.pipeline_self_s": (
            _self(serve, ("sync.pipeline_init", "sync.feed", "sync.finish")), "s"),
        "sync.feed_calls": (len(feeds), "count"),
        "sync.feed_s": (sum(feeds) / 1e3, "s"),
        "sync.feed_p50_ms": (percentile(feeds, 50), "ms"),
        "sync.feed_p98_ms": (percentile(feeds, 98), "ms"),
        "sync.finish_s": (_total(serve, "sync.finish"), "s"),
        "sync.write_log_s": (_total(offline, "sync.write_log"), "s"),
        "sync.read_log_s": (_total(offline, "sync.read_log"), "s"),
        "sync.peak_alloc_mb": (
            max(lock.trace["peak_alloc_bytes"], live.serve.trace["peak_alloc_bytes"]) * mb,
            "MB"),
        "bell.accumulate_s": (_total(offline, "bell.accumulate"), "s"),
        "bell.report_s": (_total(offline, "bell.report"), "s"),
        "transport.frames": (send.frames, "count"),
        "transport.bytes": (send.bytes, "bytes"),
        "transport.resends": (live.resends, "count"),
        "transport.reconnects": (live.reconnects, "count"),
        "transport.ack_wait_p50_ms": (percentile(send.ack_wait, 50) * 1e3, "ms"),
        "transport.ack_wait_p98_ms": (percentile(send.ack_wait, 98) * 1e3, "ms"),
        "transport.sender_lag_p98_ms": (percentile(send.lag, 98) * 1e3, "ms"),
        "cli.import_s": (lock.trace["import_s"] + bell.trace["import_s"], "s"),
        "cli.serve_ready_s": (live.ready_s, "s"),
        "cli.backlog_max_frames": (live.serve.trace["counters"]["backlog_max_frames"], "count"),
        "trace.overhead_s": (lock.wall_s + bell.wall_s - untraced_offline_s, "s"),
        "trace.lock_uncovered_s": (lock_busy - covered, "s"),
        "trace.lock_coverage": (covered / lock_busy, "1"),
    }
