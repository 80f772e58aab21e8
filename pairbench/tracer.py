"""Outside-in tracer for one ``pairlock`` process.

``install`` rebinds the public entry points the CLI calls (and the two
``pairlock.sync`` functions the lock engine calls) to wrappers that
record a span per call: name, start, end, parent span, run id and a few
counts taken from the arguments or the result. Spans stay in memory and
are written once, when the process ends. Nothing inside the package is
edited; the spans sit at module boundaries only.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager


class Tracer:
    """Spans of one process. Every wrapped call runs on the main thread
    (serve's receiver thread only counts frames), so one stack suffices."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters = {"frames_delivered": 0, "frames_decoded": 0, "backlog_max_frames": 0}
        self._stack: list[dict] = []
        self._opened = 0

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack
        self._opened += 1
        record = {"id": self._opened,
                  "parent": stack[-1]["id"] if stack else None,
                  "run": self.run_id, "name": name, "attrs": attrs,
                  "start": time.perf_counter()}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn, attrs=None):
        """Time every call of fn as a span; attrs(args, result) adds counts."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record["attrs"].update(attrs(args, result))
                return result
        return timed


def install(tracer: Tracer) -> None:
    """Rebind pairlock's public entry points to timed wrappers."""
    from pairlock import cli, sync

    fine_bin = sync.CorrelatorConfig().fine_bin
    threshold = sync.CorrelatorConfig().lock_threshold
    counters = tracer.counters

    cli.generate_streams = tracer.wrap(
        "simulate.generate", cli.generate_streams,
        lambda _a, res: {"tags": len(res[0]) + len(res[1])})
    cli.write_tagfile = tracer.wrap("timetags.write", cli.write_tagfile)
    cli.read_tagfile = tracer.wrap(
        "timetags.read", cli.read_tagfile,
        lambda args, _r: {"bytes": os.path.getsize(args[0])})

    decode_words = cli.decode_words

    def counted_decode(words):
        counters["frames_decoded"] += 1
        return decode_words(words)
    cli.decode_words = tracer.wrap("timetags.decode", counted_decode)

    cli.run_offline = tracer.wrap("sync.run_offline", cli.run_offline)
    for name in ("write_coincidence_log", "write_lock_timeline"):
        setattr(cli, name, tracer.wrap("sync.write_log", getattr(cli, name)))
    for name in ("read_coincidence_log", "locked_seconds_from_timeline"):
        setattr(cli, name, tracer.wrap("sync.read_log", getattr(cli, name)))
    cli.accumulate = tracer.wrap("bell.accumulate", cli.accumulate)
    cli.bell_report = tracer.wrap("bell.report", cli.bell_report)

    cross_correlate = sync.cross_correlate

    @functools.wraps(cross_correlate)
    def timed_correlate(a_times, b_times, center, span, bin_width, **kwargs):
        stage = "sync.fine" if bin_width == fine_bin else "sync.coarse"
        with tracer.span(stage) as record:
            result = cross_correlate(a_times, b_times, center, span, bin_width, **kwargs)
            record["attrs"].update(pairs=int(result.histogram.sum()),
                                   cleared=bool(result.significance >= threshold))
            return result
    sync.cross_correlate = timed_correlate
    sync.extract_coincidences = tracer.wrap(
        "sync.extract", sync.extract_coincidences,
        lambda _a, res: {"coincidences": len(res)})

    class TracedPipeline(cli.SyncPipeline):
        def __init__(self, *args, **kwargs):
            with tracer.span("sync.pipeline_init"):
                super().__init__(*args, **kwargs)

        def feed_bob(self, ticks, channels):
            with tracer.span("sync.feed", tags=len(ticks)):
                return super().feed_bob(ticks, channels)

        def finish(self):
            with tracer.span("sync.finish"):
                return super().finish()
    cli.SyncPipeline = TracedPipeline

    class CountingServer(cli.ReceiverServer):
        """Counts frames handed to serve, to track how far decoding lags."""

        def __init__(self, *args, on_block=None, **kwargs):
            def delivered(seq, words):
                counters["frames_delivered"] += 1
                backlog = counters["frames_delivered"] - counters["frames_decoded"]
                counters["backlog_max_frames"] = max(counters["backlog_max_frames"], backlog)
                on_block(seq, words)
            super().__init__(*args, on_block=delivered if on_block else None, **kwargs)
    cli.ReceiverServer = CountingServer


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """(run, span id) -> duration minus the time its direct children cover."""
    child: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]
    return {(s["run"], s["id"]): s["end"] - s["start"] - child.get((s["run"], s["id"]), 0.0)
            for s in spans}
