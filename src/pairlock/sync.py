"""Clock recovery between two independently time-tagged stations.

Tag times, block bounds, search windows and histogram bins are int64
counts of 125 ps ticks, so results do not depend on where the epoch sits
in the 60-bit counter. Floats carry only relative quantities (offsets,
drift, the sub-tick centroid) and the seconds of the output records.
CorrelatorConfig times are seconds, rounded to whole ticks once, when a
pipeline is built.

The receiver's stream is aligned to the local one in three steps:

1. GPS markers, when both streams carry them, are paired by whole second
   counted from the first local marker, and their median difference gives
   a coarse offset, modulo one second, good to the marker jitter (tens of
   ns). Without markers the search falls back to a wide blind window.
2. A two-stage cross-correlation of detection ticks (coarse bins over the
   search span, then fine bins around the coarse peak) finds the true
   offset. The peak is refined to a sub-bin centroid. Lock is declared
   when both stages clear the significance threshold.
3. Once locked, the offset is re-measured every block and a least-squares
   line through recent block estimates tracks relative clock drift. After
   a run of failed blocks the engine drops back to searching and
   periodically retries a full acquisition.

Significance is the peak bin count over the expected accidental count per
bin, priced by the receiver's detection rate in the slice each stage
correlates, so no stage reads past its slice. The expectation is floored
at one count so the ratio stays meaningful for sparse histograms.
Coincidences are extracted from locked blocks only, as each closes, by a
one-to-one greedy pairing in order of residual. The receiver store marks
every tag a coincidence pairs, so no later block pairs it again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum, auto
from pathlib import Path

import numpy as np

from .timetags import (TICK_SECONDS, TICKS_PER_SECOND, ChannelCode, TagStream,
                       seconds_to_ticks, ticks_to_seconds)


class SyncError(Exception):
    pass


class EmptyBlockError(SyncError):
    """A correlation was attempted on a block without detector tags."""


class NoLockError(SyncError):
    """No correlation peak cleared the significance threshold."""


class LockMode(Enum):
    SEARCHING = auto()
    LOCKED = auto()


@dataclass(frozen=True)
class CorrelatorConfig:
    """Tunables of the correlator and lock logic; times in seconds.

    coincidence_window is the half-width tau of the pairing window, i.e.
    events match when |aligned difference| <= tau.
    """

    coincidence_window: float = 7e-9
    fine_bin: float = 1e-9
    coarse_bin: float = 100e-9
    gps_search_span: float = 1e-3
    blind_search_span: float = 20e-3
    lock_threshold: float = 5.0
    block_span: float = 1.0
    acquisition_span: float = 10.0
    drift_window: int = 20
    drop_lock_after: int = 3
    reacquire_interval: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.fine_bin <= self.coincidence_window:
            raise ValueError("need 0 < fine_bin <= coincidence_window")
        if seconds_to_ticks(self.fine_bin) < 1:
            raise ValueError("fine_bin must round to at least one 125 ps tick")
        if not self.coincidence_window <= self.coarse_bin:
            raise ValueError("coincidence_window must not exceed coarse_bin")
        if not self.coarse_bin <= min(self.gps_search_span, self.blind_search_span):
            raise ValueError("search spans must be at least one coarse bin")
        if self.lock_threshold <= 1.0:
            raise ValueError("lock_threshold must exceed 1")
        if self.block_span <= 0 or self.acquisition_span < self.block_span:
            raise ValueError("acquisition_span must cover at least one block")
        if self.drift_window < 2 or self.drop_lock_after < 1 or self.reacquire_interval < 1:
            raise ValueError("window and retry counts must be positive")


@dataclass(frozen=True)
class _Ticks:
    """The time-valued CorrelatorConfig fields in whole ticks."""

    coincidence_window: int
    fine_bin: int
    coarse_bin: int
    gps_search_span: int
    blind_search_span: int
    block_span: int
    acquisition_span: int

    @classmethod
    def of(cls, cfg: CorrelatorConfig) -> "_Ticks":
        return cls(**{f.name: seconds_to_ticks(getattr(cfg, f.name)) for f in fields(cls)})


@dataclass(frozen=True)
class OffsetEstimate:
    """Receiver-minus-local clock offset, valid at an instant.

    offset: seconds to subtract from receiver timestamps.
    drift_rate: d(offset)/dt in s/s.
    significance: correlation peak over expected accidentals per bin.
    valid_from: local-clock time (s) the estimate refers to.
    """

    offset: float
    drift_rate: float
    significance: float
    valid_from: float


@dataclass(frozen=True)
class BlockStatus:
    """Outcome of one tracking block over local ticks [start_tick, end_tick);
    offset and predicted in seconds, t_start and t_end the bounds in seconds."""

    start_tick: int
    end_tick: int
    locked: bool
    offset: float
    drift_rate: float
    significance: float
    predicted: float

    @property
    def t_start(self) -> float:
        return ticks_to_seconds(self.start_tick)

    @property
    def t_end(self) -> float:
        return ticks_to_seconds(self.end_tick)


@dataclass
class LockState:
    """Lock progress. history holds (local tick, offset in s) of the recent
    estimates, the last of them current's; the engine keeps the last
    drift_window, which is all its drift fit reads."""

    mode: LockMode = LockMode.SEARCHING
    current: OffsetEstimate | None = None
    history: list[tuple[int, float]] = field(default_factory=list)
    blocks: list[BlockStatus] = field(default_factory=list)

    @property
    def locked_seconds_total(self) -> float:
        # Added one block at a time from 0.0, in block order, so the float
        # does not depend on how sum() rounds.
        total = 0.0
        for block in self.blocks:
            if block.locked:
                total += ticks_to_seconds(block.end_tick - block.start_tick)
        return total


@dataclass(frozen=True)
class Correlogram:
    """Histogram of pair tick differences plus its peak summary.

    center, span and bin_width are ticks; bin k counts the differences in
    center - span + [k * bin_width, (k + 1) * bin_width). peak_offset is
    the middle of the peak bin, in ticks.
    """

    histogram: np.ndarray
    center: int
    span: int
    bin_width: int
    peak_index: int
    peak_count: int
    peak_offset: float
    significance: float


_MAX_BINS = 20_000_000
# Pairs per histogram chunk: the chunk's 8-byte temporaries stay in cache.
# A chunk spans at least two histograms' worth of pairs, so the per-chunk
# bincount over all bins stays a minor cost for wide histograms.
_CHUNK_PAIRS = 1 << 16


def _expand_groups(lo: np.ndarray, counts: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """Indices lo[g], lo[g] + 1, ..., lo[g] + counts[g] - 1 of every group
    g, group after group. ramp is np.arange of at least counts.sum()."""
    ends = np.cumsum(counts)
    n = int(ends[-1]) if len(ends) else 0
    return ramp[:n] + np.repeat(lo - (ends - counts), counts)


def _partners(keys: np.ndarray, inner: np.ndarray, lo_shift: int,
              hi_shift: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys with at least one element of inner in [key + lo_shift,
    key + hi_shift], both arrays sorted: their indices, the index of
    their first such element and their count. Only the keys with one are
    searched for the end of their group: in a block's extraction, most
    keys have none."""
    lo = np.searchsorted(inner, keys + lo_shift)
    some = np.flatnonzero(lo < len(inner))
    some = some[inner[lo[some]] <= keys[some] + hi_shift]
    lo = lo[some]
    return some, lo, np.searchsorted(inner, keys[some] + hi_shift, side="right") - lo


def _partner_groups(a: np.ndarray, b: np.ndarray, lo_shift: int,
                    hi_shift: int) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of two sorted arrays with lo_shift <= b - a <= hi_shift,
    found by _partners from the side with fewer elements: whether that
    side is b, then _partners' groups with that side as the keys."""
    if len(b) < len(a):
        return (True, *_partners(b, a, -hi_shift, -lo_shift))
    return (False, *_partners(a, b, lo_shift, hi_shift))


def pair_difference_histogram(a_ticks: np.ndarray, b_ticks: np.ndarray,
                              center: int, span: int, bin_width: int) -> np.ndarray:
    """Histogram of all pairwise tick differences b - a - center over [-span, span).

    Inputs are sorted int64 ticks; center, span and bin_width are whole
    ticks. A pair falls in bin (b - a - center + span) // bin_width; the
    last bin is narrower when 2 * span is not a whole number of bins.
    Integer arithmetic puts every pair in the same bin as the direct
    all-pairs histogram. The pairs are found by _partner_groups and
    enumerated in chunks of a few ten thousand pairs.
    """
    n_bins = (2 * span + bin_width - 1) // bin_width
    if n_bins < 1 or n_bins > _MAX_BINS:
        raise ValueError(f"requested {n_bins} bins, supported range is 1..{_MAX_BINS}")
    lo_shift = center - span
    b_outer, keys, lo, counts = _partner_groups(a_ticks, b_ticks, lo_shift, center + span - 1)
    hist = np.zeros(n_bins, dtype=np.int64)
    if len(keys) == 0:
        return hist
    outer, inner = (b_ticks, a_ticks) if b_outer else (a_ticks, b_ticks)
    outer = outer[keys]
    ends = np.cumsum(counts)
    chunk = max(_CHUNK_PAIRS, 2 * n_bins)
    ramp = np.arange(max(chunk, int(counts.max())), dtype=np.intp)
    i = 0
    while i < len(counts):
        done = int(ends[i - 1]) if i else 0
        j = max(int(np.searchsorted(ends, done + chunk, side="right")), i + 1)
        c = counts[i:j]
        idx = _expand_groups(lo[i:j], c, ramp)
        if b_outer:
            d = np.repeat(outer[i:j], c)
            d -= inner[idx]
        else:
            d = inner[idx]
            d -= np.repeat(outer[i:j], c)
        d -= lo_shift
        d //= bin_width
        hist += np.bincount(d, minlength=n_bins)
        i = j
    return hist


def cross_correlate(a_ticks: np.ndarray, b_ticks: np.ndarray, center: int,
                    span: int, bin_width: int, *,
                    expected_per_bin: float | None = None) -> Correlogram:
    """Correlate two sorted detection-tick arrays around a trial offset.

    All times are int64 ticks. GPS markers must already be excluded. When
    expected_per_bin is not given it is estimated as n_a * n_b * bin /
    T_overlap from the spans of the inputs; callers correlating a
    pre-windowed slice should pass a rate-based value instead.
    """
    if len(a_ticks) == 0 or len(b_ticks) == 0:
        raise EmptyBlockError("cannot correlate an empty block")
    hist = pair_difference_histogram(a_ticks, b_ticks, center, span, bin_width)
    if expected_per_bin is None:
        t_overlap = min(int(a_ticks[-1]), int(b_ticks[-1]) - center) \
            - max(int(a_ticks[0]), int(b_ticks[0]) - center)
        t_overlap = max(t_overlap, bin_width)
        expected_per_bin = len(a_ticks) * len(b_ticks) * bin_width / t_overlap
    peak_index = int(np.argmax(hist))
    peak_count = int(hist[peak_index])
    peak_offset = center - span + (peak_index + 0.5) * bin_width
    significance = peak_count / max(expected_per_bin, 1.0)
    return Correlogram(hist, center, span, bin_width, peak_index, peak_count,
                       float(peak_offset), float(significance))


def _marker_offset(markers_a: np.ndarray, markers_b: np.ndarray) -> float | None:
    """Median receiver-minus-local tick difference of GPS markers paired by
    whole second counted from the first local marker, or None when no
    second has a marker at both stations.

    The pairing makes the result the offset modulo one second, folded into
    about [-0.5, 0.5) s: a true offset of 0.7 s reads as -0.3 s.
    Acquisition therefore also searches one second either side of it.
    """
    if len(markers_a) == 0:
        return None
    # Flooring after a half-second shift rounds to the nearest second.
    ref = int(markers_a[0]) - TICKS_PER_SECOND // 2
    _, idx_a, idx_b = np.intersect1d((markers_a - ref) // TICKS_PER_SECOND,
                                     (markers_b - ref) // TICKS_PER_SECOND,
                                     return_indices=True)
    if len(idx_a) == 0:
        return None
    return float(np.median(markers_b[idx_b] - markers_a[idx_a]))


def _centroid(corr: Correlogram, half_width_bins: int = 3) -> float:
    """Sub-bin peak position (ticks) from a local weighted mean."""
    lo = max(0, corr.peak_index - half_width_bins)
    hi = min(len(corr.histogram), corr.peak_index + half_width_bins + 1)
    weights = corr.histogram[lo:hi].astype(np.float64)
    total = weights.sum()
    if total <= 0:
        return corr.peak_offset
    centers = corr.center - corr.span + (np.arange(lo, hi) + 0.5) * corr.bin_width
    return float((weights * centers).sum() / total)


_MARKER = int(ChannelCode.GPS_MARKER)


def _window(tags, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Ticks of a station's tags in [lo, hi) and the mask of the GPS
    markers among them. tags has sorted .ticks and matching .channels;
    only the window, found by bisection, is read."""
    i, j = np.searchsorted(tags.ticks, (lo, hi))
    return tags.ticks[i:j], tags.channels[i:j] == _MARKER


def _detections(ticks: np.ndarray, marker: np.ndarray) -> np.ndarray:
    """The detector ticks of a window read by _window."""
    return ticks[~marker] if marker.any() else ticks


class _Pending(Exception):
    """A read reaches past the receiver data that has arrived."""


# Below every tick, so the first block's reads pass the floor.
_NO_FLOOR = -(1 << 63)


class _Recorded:
    """The receiver's ticks and channels as they arrived, markers
    included, until closed, and a paired mark per tag: set once a
    coincidence has taken the tag.

    The engine raises a floor as blocks complete: the lowest tick any
    later read can reach. A read below it raises RuntimeError. When the
    store next grows, it copies only the tags at or above the floor, marks
    included, into fresh buffers, so a live run keeps a few seconds of the
    stream however long it is. The first append keeps a reference to the
    caller's ticks and channels, so a whole stream appended at once is not
    copied; no append or mark writes into them.
    """

    def __init__(self):
        self._bufs = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                      np.empty(0, dtype=bool)]
        self._n = 0
        self._owned = False  # False while the buffers are the caller's arrays
        self.floor = _NO_FLOOR
        self.closed = False

    @classmethod
    def of(cls, stream) -> "_Recorded":
        """A closed store over a whole stream's arrays."""
        store = cls()
        store.append(stream.ticks, stream.channels)
        store.closed = True
        return store

    def append(self, ticks: np.ndarray, channels: np.ndarray) -> None:
        if len(ticks) == 0:
            return
        if self.closed:
            raise ValueError("receiver stream already finished")
        if self._n and ticks[0] < self._bufs[0][self._n - 1]:
            raise ValueError("receiver chunks must arrive in time order")
        ticks = np.asarray(ticks, dtype=np.int64)
        channels = np.asarray(channels, dtype=np.uint8)
        if self._n == 0:
            self._bufs = [ticks, channels, np.zeros(len(ticks), dtype=bool)]
            self._n = len(ticks)
            return
        size = len(self._bufs[0])
        drop = int(np.searchsorted(self.ticks, self.floor))
        # A buffer of the store's own that holds more tags below the floor
        # than above it is replaced too, so the store soon shrinks to what
        # is still read. Each tag dropped pays for at most one copy.
        if self._n + len(ticks) > size or (self._owned and 2 * drop > self._n):
            keep = self._n - drop
            for k, buf in enumerate(self._bufs):
                fresh = np.empty(2 * (keep + len(ticks)), dtype=buf.dtype)
                fresh[:keep] = buf[drop:self._n]
                self._bufs[k] = fresh
            self._owned = True
            self._n = keep
        end = self._n + len(ticks)
        for buf, values in zip(self._bufs, (ticks, channels, False)):
            buf[self._n:end] = values
        self._n = end

    def span(self, lo: int, hi: int) -> tuple[int, int]:
        """Buffer indices of the tags in [lo, hi). Tags arrive in time
        order, so while the stream is open, only a tag at or past hi
        proves the window complete; without one this raises _Pending."""
        if lo < self.floor:
            raise RuntimeError(f"receiver read from tick {lo} is below the floor {self.floor}")
        if not self.closed and (self._n == 0 or self._bufs[0][self._n - 1] < hi):
            raise _Pending
        i, j = np.searchsorted(self.ticks, (lo, hi))
        return int(i), int(j)

    def window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """_window over the tags recorded so far, checked as by span."""
        i, j = self.span(lo, hi)
        return self.ticks[i:j], self.channels[i:j] == _MARKER

    @property
    def ticks(self) -> np.ndarray:
        return self._bufs[0][:self._n]

    @property
    def channels(self) -> np.ndarray:
        return self._bufs[1][:self._n]

    @property
    def paired(self) -> np.ndarray:
        return self._bufs[2][:self._n]


class SyncPipeline:
    """The block-serial lock engine.

    Feed receiver tags in time order as they arrive: each feed processes
    blocks in order and returns the new block statuses. A block completes
    once every receiver window it reads has arrived; until then its first
    read past the data stops the feed, and the next feed retries it. No
    attempt commits state that would change what its retry does, so
    results depend only on the data, not on how it was chunked on
    arrival. finish() closes the receiver stream and processes the
    remaining blocks. A locked block's coincidences are extracted as it
    closes, from inside the windows its fine stage has just read;
    coincidences joins them once finish() has run. run_offline is one
    feed of the whole receiver stream followed by finish().

    The local TagStream's arrays are read by reference. The receiver's
    chunks, markers included, go into one store, which also marks the
    tags coincidences have paired. After each block the engine raises
    the store's floor to the lowest tick the next block, or any later
    one, can read, and the store drops what lies below it, marks
    included, when it next grows. Every read bisects for its window and
    drops the markers inside that window only. Each stage reads its receiver
    windows before its local ones, so a stage waiting for data costs one
    comparison a feed; a pending acquisition resumes at the trial that
    was waiting, since the outcome of those before it is final.
    """

    def __init__(self, alice: TagStream, cfg: CorrelatorConfig | None = None):
        self.cfg = cfg = cfg or CorrelatorConfig()
        if len(alice) == 0:
            raise EmptyBlockError("local stream is empty")
        self._tk = tk = _Ticks.of(cfg)
        self._alice = alice
        self._bob = _Recorded()
        self._origin = int(alice.ticks[0])
        self._end = int(alice.ticks[-1])
        self.state = LockState()
        self._rows: list[Coincidences | None] = []
        self._events: Coincidences | None = None
        self._next_block = 0
        self._fails = 0
        self._last_attempt: int | None = None
        self._failed_trials = 0
        n_full, trailing = divmod(self._end - self._origin, tk.block_span)
        if n_full == 0:
            self._n_blocks = 1
        elif trailing >= max(tk.block_span / 20, 2 * tk.coincidence_window):
            self._n_blocks = n_full + 1
        else:
            self._n_blocks = n_full

    def feed_bob(self, ticks: np.ndarray, channels: np.ndarray) -> list[BlockStatus]:
        """Append receiver tags and process every block now complete.

        The arrays may be kept by reference and must not change afterwards.
        """
        self._bob.append(ticks, channels)
        return self._advance()

    def finish(self) -> list[BlockStatus]:
        """Close the receiver stream and process the remaining blocks."""
        self._bob.closed = True
        return self._advance()

    @property
    def coincidences(self) -> Coincidences:
        """The coincidences of the whole run, in block order."""
        if not self._bob.closed:
            raise RuntimeError("pipeline not finished yet")
        if self._events is None:
            self._events = _joined(self._rows)
            self._rows = []
        return self._events

    def _block_bounds(self, i: int) -> tuple[int, int]:
        start = self._origin + i * self._tk.block_span
        if i == self._n_blocks - 1:
            return start, self._end + 1
        return start, start + self._tk.block_span

    def _next_acquisition(self, i: int) -> int:
        """The first block from block i on that can open with an
        acquisition attempt, as things stand before block i."""
        cfg = self.cfg
        if self.state.current is not None and self.state.mode is LockMode.LOCKED:
            # Not before the lock drops, after its remaining allowed failures.
            return i + cfg.drop_lock_after - self._fails - 1 + cfg.reacquire_interval
        if self._last_attempt is None:
            return i
        return max(i, self._last_attempt + cfg.reacquire_interval)

    def _advance(self) -> list[BlockStatus]:
        """Process blocks in order up to the first whose reads are pending."""
        done: list[BlockStatus] = []
        while self._next_block < self._n_blocks:
            start, end = self._block_bounds(self._next_block)
            try:
                done.append(self._process_block(self._next_block, start, end))
            except _Pending:
                break
            self._next_block += 1
            if self._next_block < self._n_blocks:
                self._bob.floor = max(self._bob.floor, self._floor(self._next_block))
        return done

    def _predict(self, tick: int) -> float:
        """Offset (s) the current estimate predicts at a local tick."""
        est = self.state.current
        return est.offset + est.drift_rate * ticks_to_seconds(tick - self.state.history[-1][0])

    def _process_block(self, i: int, start: int, end: int) -> BlockStatus:
        cfg = self.cfg
        mid = (start + end) // 2
        if self._next_acquisition(i) == i:
            acquired = self._attempt_acquire(start)
            # Set only once the attempt returns, so a pending one is retried.
            # A lock it acquired stays when the fine stage below is pending:
            # the retry goes straight there.
            self._last_attempt = i
            self._failed_trials = 0
            if acquired is not None:
                anchor, self.state.current = acquired
                self.state.mode = LockMode.LOCKED
                self.state.history = [(anchor, self.state.current.offset)]
                self._fails = 0

        if self.state.current is None:
            status = BlockStatus(start, end, False, math.nan, 0.0, 0.0, math.nan)
            self.state.blocks.append(status)
            return status

        est = self.state.current
        predicted = self._predict(mid)
        measured, significance = self._fine_measure(start, end, predicted)
        locked = significance >= cfg.lock_threshold
        if locked:
            # Its window lies inside the fine stage's receiver slice, which
            # has arrived, so the extraction cannot be pending.
            self._rows.append(_pair_block(self._alice, self._bob, start, end,
                                          seconds_to_ticks(measured),
                                          self._tk.coincidence_window))
            self.state.history.append((mid, measured))
            del self.state.history[:-cfg.drift_window]
            drift = self._refit_drift()
            self.state.current = OffsetEstimate(measured, drift, significance,
                                                ticks_to_seconds(mid))
            self.state.mode = LockMode.LOCKED
            self._fails = 0
            status = BlockStatus(start, end, True, measured, drift,
                                 significance, predicted)
        else:
            self._fails += 1
            if self._fails >= cfg.drop_lock_after and self.state.mode is LockMode.LOCKED:
                self.state.mode = LockMode.SEARCHING
                self._last_attempt = i
            status = BlockStatus(start, end, False, predicted,
                                 est.drift_rate, significance, predicted)
        self.state.blocks.append(status)
        return status

    def _refit_drift(self) -> float:
        if len(self.state.history) < 3:
            return 0.0
        ticks, offsets = zip(*self.state.history)
        # Tick differences are exact, so the fit does not see the epoch.
        t = ticks_to_seconds(np.array(ticks, dtype=np.int64) - ticks[0])
        offsets = np.array(offsets)
        t_c = t - t.mean()
        denom = float((t_c * t_c).sum())
        if denom <= 0.0:
            return 0.0
        return float((t_c * offsets).sum() / denom)

    # The receiver windows each stage reads. The stages and _floor both
    # call these, so the floor follows any change to a read.

    def _fine_window(self, start: int, end: int, center: int) -> tuple[int, int]:
        """The receiver slice block [start, end)'s fine stage correlates
        around a centre (ticks); its tag count also prices the accidentals."""
        reach = 3 * self._tk.coarse_bin + self._tk.coincidence_window
        return start + center - reach, end + center + reach

    def _search_window(self, start: int, stop: int, center: int, span: int) -> tuple[int, int]:
        """A search of +-span ticks around center over local [start, stop)."""
        pad = 2 * self._tk.coarse_bin
        return start + center - span - pad, stop + center + span + pad

    @staticmethod
    def _marker_window(start: int, stop: int) -> tuple[int, int]:
        """Receiver markers more than a second outside an acquisition
        window share no whole second with a local one (see _marker_offset)."""
        return start - TICKS_PER_SECOND, stop + TICKS_PER_SECOND

    def _search_floor(self, start: int, center: int, span: int) -> int:
        """The lowest receiver tick a search from local tick start reads:
        its coarse stage, the fine stage around the lowest coarse peak,
        and the block's fine stage at the lowest offset that one finds."""
        fine_span = 2 * self._tk.coarse_bin
        peak = center - span
        lows = (self._search_window(start, start, center, span)[0],
                self._search_window(start, start, peak, fine_span)[0],
                self._fine_window(start, start, peak - fine_span)[0])
        return min(lows)

    def _floor(self, i: int) -> int:
        """The lowest receiver tick block i, or any later block, can read.

        A tracked block reads around the offset predicted for it, which
        moves far less than a block's span from one block to the next. An
        acquisition reads least at the earliest block it can open; later
        blocks tracked from it read above that too. Markers pair within
        one whole second, so a GPS fold lies in (-1, 1) s and its trials
        above -2 s; a blind search is centred on zero.
        """
        tk = self._tk
        lows = []
        if self.state.current is not None:
            start, end = self._block_bounds(i)
            center = seconds_to_ticks(self._predict((start + end) // 2))
            lows.append(self._fine_window(start, end, center)[0])
        j = self._next_acquisition(i)
        if j < self._n_blocks:
            start = self._block_bounds(j)[0]
            lows += [self._marker_window(start, start)[0],
                     self._search_floor(start, -2 * TICKS_PER_SECOND, tk.gps_search_span),
                     self._search_floor(start, 0, tk.blind_search_span)]
        return min(lows, default=_NO_FLOOR)

    def _fine_measure(self, start: int, end: int, predicted: float) -> tuple[float, float]:
        """Fine correlation of one block around a predicted offset (s),
        priced from its own slice's receiver detections, as _two_stage is."""
        tk = self._tk
        center = seconds_to_ticks(predicted)
        s_lo, s_hi = self._fine_window(start, end, center)
        b_slice = _detections(*self._bob.window(s_lo, s_hi))
        a_slice = _detections(*_window(self._alice, start, end))
        if len(a_slice) == 0 or len(b_slice) == 0:
            return math.nan, 0.0
        rate_b = len(b_slice) / (s_hi - s_lo)
        corr = cross_correlate(a_slice, b_slice, center, 2 * tk.coarse_bin, tk.fine_bin,
                               expected_per_bin=len(a_slice) * rate_b * tk.fine_bin)
        return ticks_to_seconds(_centroid(corr)), corr.significance

    def _attempt_acquire(self, start: int) -> tuple[int, OffsetEstimate] | None:
        """Two-stage acquisition over a window starting at a local tick;
        the estimate and the tick it refers to, or None."""
        tk = self._tk
        stop = min(start + tk.acquisition_span, self._end)
        if stop - start < tk.block_span:
            return None
        b_ticks, b_marker = self._bob.window(*self._marker_window(start, stop))
        a_ticks, a_marker = _window(self._alice, start, stop)
        a_slice = a_ticks[~a_marker]
        if len(a_slice) == 0:
            return None

        center = _marker_offset(a_ticks[a_marker], b_ticks[b_marker])
        if center is None:
            found = self._two_stage(a_slice, start, stop, 0, tk.blind_search_span)
        else:
            # Markers fix the offset only modulo one second (see
            # _marker_offset), so the neighbouring seconds are tried next.
            # A retry skips the trials that failed: their reads had all
            # arrived, so their outcome is final.
            center = round(center)
            trials = (center, center + TICKS_PER_SECOND, center - TICKS_PER_SECOND)
            for trial in trials[self._failed_trials:]:
                found = self._two_stage(a_slice, start, stop, trial, tk.gps_search_span)
                if found is not None:
                    break
                self._failed_trials += 1
        if found is None:
            return None
        anchor = (start + stop) // 2
        offset, significance = found
        return anchor, OffsetEstimate(offset, 0.0, significance, ticks_to_seconds(anchor))

    def _two_stage(self, a_slice: np.ndarray, start: int, stop: int,
                   center: int, span: int) -> tuple[float, float] | None:
        """Coarse search of +-span ticks around center, then the fine stage
        around the coarse peak; the offset (s) and its significance, or
        None unless both stages clear the threshold."""
        cfg, tk = self.cfg, self._tk
        b_slice = _detections(*self._bob.window(*self._search_window(start, stop, center, span)))
        if len(b_slice) == 0:
            return None
        rate_b = len(b_slice) / max(stop - start + 2 * span, tk.block_span)
        coarse = cross_correlate(a_slice, b_slice, center, span, tk.coarse_bin,
                                 expected_per_bin=len(a_slice) * rate_b * tk.coarse_bin)
        if coarse.significance < cfg.lock_threshold:
            return None

        fine_center = round(coarse.peak_offset)
        fine_span = 2 * tk.coarse_bin
        b_fine = _detections(*self._bob.window(
            *self._search_window(start, stop, fine_center, fine_span)))
        if len(b_fine) == 0:
            return None
        fine = cross_correlate(a_slice, b_fine, fine_center, fine_span, tk.fine_bin,
                               expected_per_bin=len(a_slice) * rate_b * tk.fine_bin)
        if fine.significance < cfg.lock_threshold:
            return None
        return ticks_to_seconds(_centroid(fine)), fine.significance


def acquire_lock(alice: TagStream, bob: TagStream,
                 cfg: CorrelatorConfig | None = None) -> LockState:
    """Initial two-stage acquisition at the start of the streams.

    Raises NoLockError when neither correlation stage clears the
    threshold.
    """
    pipeline = SyncPipeline(alice, cfg)
    pipeline._bob = _Recorded.of(bob)
    acquired = pipeline._attempt_acquire(pipeline._origin)
    if acquired is None:
        raise NoLockError("no correlation peak above threshold")
    anchor, est = acquired
    return LockState(mode=LockMode.LOCKED, current=est, history=[(anchor, est.offset)])


@dataclass
class Coincidences:
    """Matched event pairs, one row per coincidence."""

    alice_ticks: np.ndarray
    alice_channels: np.ndarray
    bob_ticks: np.ndarray
    bob_channels: np.ndarray
    residuals: np.ndarray  # seconds, |aligned difference|

    @classmethod
    def empty(cls) -> "Coincidences":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                   np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                   np.empty(0))

    def __len__(self) -> int:
        return len(self.alice_ticks)


def _pair_block(alice: TagStream, bob: _Recorded, start: int, end: int,
                off_ticks: int, tau_ticks: int) -> Coincidences | None:
    """The coincidences of one locked block over local ticks [start, end)
    at a receiver offset of off_ticks, paired as extract_coincidences
    describes; None when the block has no candidate. A receiver tag the
    store marks as paired is skipped, and the ones paired here are marked.

    A candidate that shares neither tag with another candidate of its
    block wins whatever the order, so only the candidates in conflict go
    through the greedy loop; the result is the same as running it over
    all of them.
    """
    a_ticks, a_chans = alice.ticks, alice.channels
    a0, a1 = (int(k) for k in np.searchsorted(a_ticks, (start, end)))
    if a1 <= a0:
        return None
    a_blk = a_ticks[a0:a1]
    b0, b1 = bob.span(int(a_blk[0]) + off_ticks - tau_ticks,
                      int(a_blk[-1]) + off_ticks + tau_ticks + 1)
    b_ticks, b_chans = bob.ticks, bob.channels
    b_side, keys, lo, counts = _partner_groups(a_blk, b_ticks[b0:b1], off_ticks - tau_ticks,
                                               off_ticks + tau_ticks)
    outer = np.repeat(keys, counts)
    inner = _expand_groups(lo, counts, np.arange(len(outer), dtype=np.int64))
    cand_a, cand_b = (inner, outer) if b_side else (outer, inner)
    cand_a += a0
    cand_b += b0
    # Marker candidates go; a receiver tag an earlier block paired would be
    # skipped by the greedy pass without effect on any other candidate.
    open_b = (a_chans[cand_a] != _MARKER) & (b_chans[cand_b] != _MARKER) & ~bob.paired[cand_b]
    cand_a, cand_b = cand_a[open_b], cand_b[open_b]
    if len(cand_a) == 0:
        return None
    dist = np.abs((b_ticks[cand_b] - off_ticks) - a_ticks[cand_a])
    shared = (np.bincount(cand_a - a0)[cand_a - a0] > 1) \
        | (np.bincount(cand_b - b0)[cand_b - b0] > 1)
    conflict = np.flatnonzero(shared)
    keep = np.flatnonzero(~shared)
    order = conflict[np.lexsort((cand_b[conflict], cand_a[conflict], dist[conflict]))]
    taken_a: set[int] = set()
    taken_b: set[int] = set()
    won = []
    for idx, ia, ib in zip(order.tolist(), cand_a[order].tolist(),
                           cand_b[order].tolist()):
        if ia in taken_a or ib in taken_b:
            continue
        taken_a.add(ia)
        taken_b.add(ib)
        won.append(idx)
    keep = np.concatenate((keep, np.array(won, dtype=np.int64)))
    # Local index order is time order. Local tags with equal ticks share
    # their candidates, so the greedy pass also took them in index order.
    keep = keep[np.argsort(cand_a[keep])]
    ia, ib = cand_a[keep], cand_b[keep]
    res = dist[keep].astype(np.float64) * TICK_SECONDS
    bob.paired[ib] = True
    return Coincidences(a_ticks[ia], a_chans[ia], b_ticks[ib], b_chans[ib], res)


def _joined(parts: list[Coincidences | None]) -> Coincidences:
    """The rows of the parts that are not None, in order."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return Coincidences.empty()
    return Coincidences(*(np.concatenate([getattr(p, f.name) for p in parts])
                          for f in fields(Coincidences)))


def extract_coincidences(alice: TagStream, bob: TagStream, state: LockState,
                         cfg: CorrelatorConfig | None = None) -> Coincidences:
    """Pair detector tags inside the locked blocks of a state, block
    after block, as the engine does when each block closes.

    Candidates are pairs with offset - tau <= b - a <= offset + tau,
    with the block's offset rounded to the nearest tick. They are
    accepted greedily in order of residual (ties broken by earlier local,
    then receiver, tick), each tag at most once and a receiver tag an
    earlier block paired not again; GPS markers never pair. Integer ticks
    make the window edge exact: a pair at exactly tau is in, one tick
    beyond is out.
    """
    cfg = cfg or CorrelatorConfig()
    tau_ticks = seconds_to_ticks(cfg.coincidence_window)
    store = _Recorded.of(bob)
    return _joined([_pair_block(alice, store, b.start_tick, b.end_tick,
                                seconds_to_ticks(b.offset), tau_ticks)
                    for b in state.blocks if b.locked])


def run_offline(alice: TagStream, bob: TagStream,
                cfg: CorrelatorConfig | None = None) -> tuple[LockState, Coincidences]:
    """Full pipeline on complete streams: acquire, track, extract."""
    pipeline = SyncPipeline(alice, cfg)
    pipeline.feed_bob(bob.ticks, bob.channels)
    pipeline.finish()
    return pipeline.state, pipeline.coincidences


_COINC_HEADER = "alice_ticks,alice_channel,bob_ticks,bob_channel,residual_ns"
_TIMELINE_HEADER = "t_start,t_end,offset_ns,drift,significance"


# Rows formatted per write: the Python objects of a batch stay small
# however long the log.
_ROWS_PER_WRITE = 1 << 13


def write_coincidence_log(path: str | Path, events: Coincidences) -> None:
    with open(path, "w") as fh:
        fh.write(_COINC_HEADER + "\n")
        for i in range(0, len(events), _ROWS_PER_WRITE):
            rows = slice(i, i + _ROWS_PER_WRITE)
            columns = (events.alice_ticks[rows].tolist(), events.alice_channels[rows].tolist(),
                       events.bob_ticks[rows].tolist(), events.bob_channels[rows].tolist(),
                       (events.residuals[rows] * 1e9).tolist())
            fh.write("".join(f"{a},{a_ch},{b},{b_ch},{res:.3f}\n"
                             for a, a_ch, b, b_ch, res in zip(*columns)))


# One named field per CSV column; tick columns are integers, since
# float64 cannot hold 60-bit ticks exactly.
_COINC_DTYPE = np.dtype(list(zip(_COINC_HEADER.split(","),
                                 (np.int64, np.uint8, np.int64, np.uint8, np.float64))))
_TIMELINE_DTYPE = np.dtype([(name, np.float64) for name in _TIMELINE_HEADER.split(",")])


def _load_csv(path: str | Path, dtype: np.dtype) -> np.ndarray:
    """One structured row per line after the header."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file
        return np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=1)


def read_coincidence_log(path: str | Path) -> Coincidences:
    raw = _load_csv(path, _COINC_DTYPE)
    if raw.size == 0:
        return Coincidences.empty()
    return Coincidences(raw["alice_ticks"], raw["alice_channel"],
                        raw["bob_ticks"], raw["bob_channel"],
                        raw["residual_ns"] * 1e-9)


def write_lock_timeline(path: str | Path, state: LockState) -> None:
    lines = [_TIMELINE_HEADER]
    for block in state.blocks:
        if not block.locked:
            continue
        lines.append(f"{block.t_start:.6f},{block.t_end:.6f},"
                     f"{block.offset * 1e9:.3f},{block.drift_rate:.6e},"
                     f"{block.significance:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def locked_seconds_from_timeline(path: str | Path) -> float:
    raw = _load_csv(path, _TIMELINE_DTYPE)
    if raw.size == 0:
        return 0.0
    return float((raw["t_end"] - raw["t_start"]).sum())
