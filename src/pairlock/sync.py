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
bin, with the expectation floored at one count so the ratio stays
meaningful for sparse histograms. Coincidences are extracted from locked
blocks only, by a one-to-one greedy pairing in order of residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
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
    """Lock progress; history pairs each estimate with the local tick it
    refers to."""

    mode: LockMode = LockMode.SEARCHING
    current: OffsetEstimate | None = None
    locked_seconds_total: float = 0.0
    history: list[tuple[int, OffsetEstimate]] = field(default_factory=list)
    blocks: list[BlockStatus] = field(default_factory=list)


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
# Receiver time either side of a block's predicted window whose tag count
# sets the accidental rate the block's fine significance is judged by.
_RATE_PAD = TICKS_PER_SECOND // 2
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


def pair_difference_histogram(a_ticks: np.ndarray, b_ticks: np.ndarray,
                              center: int, span: int, bin_width: int) -> np.ndarray:
    """Histogram of all pairwise tick differences b - a - center over [-span, span).

    Inputs are sorted int64 ticks; center, span and bin_width are whole
    ticks. A pair falls in bin (b - a - center + span) // bin_width; the
    last bin is narrower when 2 * span is not a whole number of bins.
    Integer arithmetic puts every pair in the same bin as the direct
    all-pairs histogram. The pairs are enumerated from the shorter array,
    whose every element searches its partners in the longer one, in
    chunks of a few ten thousand pairs.
    """
    n_bins = (2 * span + bin_width - 1) // bin_width
    if n_bins < 1 or n_bins > _MAX_BINS:
        raise ValueError(f"requested {n_bins} bins, supported range is 1..{_MAX_BINS}")
    lo_shift = center - span
    hi_shift = center + span
    b_outer = len(b_ticks) < len(a_ticks)
    if b_outer:
        outer, inner = b_ticks, a_ticks
        lo = np.searchsorted(a_ticks, b_ticks - hi_shift, side="right")
        hi = np.searchsorted(a_ticks, b_ticks - lo_shift, side="right")
    else:
        outer, inner = a_ticks, b_ticks
        lo = np.searchsorted(b_ticks, a_ticks + lo_shift)
        hi = np.searchsorted(b_ticks, a_ticks + hi_shift)
    counts = hi - lo
    groups = np.flatnonzero(counts)
    hist = np.zeros(n_bins, dtype=np.int64)
    if len(groups) == 0:
        return hist
    outer, lo, counts = outer[groups], lo[groups], counts[groups]
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


def _between(ticks: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The part of a sorted tick array in [lo, hi)."""
    return ticks[np.searchsorted(ticks, lo):np.searchsorted(ticks, hi)]


class _Appendable:
    """Append-only 1-d array with geometric growth; view() is the filled part.

    The first append keeps a reference to the caller's array, so a whole
    stream appended at once is not copied; later appends never write
    into it.
    """

    def __init__(self, dtype):
        self._buf = np.empty(0, dtype=dtype)
        self._n = 0

    def append(self, values: np.ndarray) -> None:
        end = self._n + len(values)
        if self._n == 0:
            self._buf = np.asarray(values, dtype=self._buf.dtype)
        else:
            if end > len(self._buf):
                grown = np.empty(max(end, 2 * len(self._buf)), dtype=self._buf.dtype)
                grown[:self._n] = self._buf[:self._n]
                self._buf = grown
            self._buf[self._n:end] = values
        self._n = end

    def view(self) -> np.ndarray:
        return self._buf[:self._n]


class _Detections:
    """One station's tags as stored by the engine: detector ticks, their
    channels and the GPS marker ticks, each append-only. Markers are
    split off once, as a chunk is appended; a chunk without markers is
    appended as it is."""

    def __init__(self):
        self._ticks = _Appendable(np.int64)
        self._channels = _Appendable(np.uint8)
        self._markers = _Appendable(np.int64)

    def append(self, ticks: np.ndarray, channels: np.ndarray) -> None:
        marker = channels == int(ChannelCode.GPS_MARKER)
        if marker.any():
            self._markers.append(ticks[marker])
            detector = ~marker
            ticks, channels = ticks[detector], channels[detector]
        self._ticks.append(ticks)
        self._channels.append(channels)

    @property
    def ticks(self) -> np.ndarray:
        return self._ticks.view()

    @property
    def channels(self) -> np.ndarray:
        return self._channels.view()

    @property
    def markers(self) -> np.ndarray:
        return self._markers.view()


class SyncPipeline:
    """The block-serial lock engine.

    Feed receiver tags in time order as they arrive: each feed processes
    every block whose receiver data has all arrived and returns the new
    block statuses, so results depend only on the data, not on how it was
    chunked on arrival. A tracked block is complete once the receiver
    stream reaches the end of what its fine stage reads: the block's end
    shifted by the predicted offset, plus the 0.5 s rate window. A block
    that opens with an acquisition waits for the acquisition window, the
    blind search span and 1.5 s, which covers the one-second retries
    around the GPS centre. finish() closes the receiver stream, processes
    the remaining blocks and extracts the coincidences. run_offline is one
    feed of the whole receiver stream followed by finish().

    Each station's tags are split once, on arrival, into detector ticks,
    detector channels and marker ticks; correlation, tracking and
    extraction all read those stores, so no feed touches data that
    arrived before it.
    """

    def __init__(self, alice: TagStream, cfg: CorrelatorConfig | None = None):
        self.cfg = cfg = cfg or CorrelatorConfig()
        if len(alice) == 0:
            raise EmptyBlockError("local stream is empty")
        self._tk = tk = _Ticks.of(cfg)
        self._alice = _Detections()
        self._alice.append(alice.ticks, alice.channels)
        self._bob = _Detections()
        self._b_last: int | None = None
        self._origin = int(alice.ticks[0])
        self._end = int(alice.ticks[-1])
        self.state = LockState()
        self._b_finished = False
        self._events: Coincidences | None = None
        self._next_block = 0
        self._fails = 0
        self._last_attempt: int | None = None
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
        self._receive(ticks, channels)
        return self._advance()

    def finish(self) -> list[BlockStatus]:
        """Close the receiver stream, process the remaining blocks and
        extract the coincidences of the whole run."""
        self._b_finished = True
        done = self._advance()
        self._events = extract_coincidences(self._alice, self._bob, self.state, self.cfg)
        return done

    @property
    def coincidences(self) -> Coincidences:
        if self._events is None:
            raise RuntimeError("pipeline not finished yet")
        return self._events

    def _receive(self, ticks: np.ndarray, channels: np.ndarray) -> None:
        if len(ticks) == 0:
            return
        if self._b_finished:
            raise ValueError("receiver stream already finished")
        if self._b_last is not None and ticks[0] < self._b_last:
            raise ValueError("receiver chunks must arrive in time order")
        self._bob.append(np.asarray(ticks, dtype=np.int64),
                         np.asarray(channels, dtype=np.uint8))
        self._b_last = int(ticks[-1])

    def _block_bounds(self, i: int) -> tuple[int, int]:
        start = self._origin + i * self._tk.block_span
        if i == self._n_blocks - 1:
            return start, self._end + 1
        return start, start + self._tk.block_span

    def _acquisition_due(self, i: int) -> bool:
        """Whether block i opens with an acquisition attempt."""
        if self.state.current is not None and self.state.mode is LockMode.LOCKED:
            return False
        return self._last_attempt is None \
            or i - self._last_attempt >= self.cfg.reacquire_interval

    def _data_ready(self, i: int, start: int, end: int) -> bool:
        """Whether every receiver tag block i reads has arrived. Tags
        arrive in time order, so a tag at or past the end of a read window
        proves that window complete."""
        if self._b_finished:
            return True
        if self._b_last is None:
            return False
        tk = self._tk
        ends: list[int] = []
        if self.state.current is not None:
            center = seconds_to_ticks(self._predict((start + end) // 2))
            ends += [hi for _lo, hi in self._fine_windows(start, end, center)]
        if self.state.current is None or self._acquisition_due(i):
            # The acquisition window plus the blind span, or the GPS centre
            # with its one-second retries.
            ends.append(min(max(end, start + tk.acquisition_span), self._end)
                        + tk.blind_search_span + 3 * TICKS_PER_SECOND // 2)
        return self._b_last >= max(ends)

    def _advance(self) -> list[BlockStatus]:
        """Process all blocks whose receiver data is available."""
        done: list[BlockStatus] = []
        while self._next_block < self._n_blocks:
            start, end = self._block_bounds(self._next_block)
            if not self._data_ready(self._next_block, start, end):
                break
            done.append(self._process_block(self._next_block, start, end))
            self._next_block += 1
        return done

    def _fine_windows(self, start: int, end: int,
                      center: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Receiver tick windows [lo, hi) the fine stage reads for local
        block [start, end) around a trial offset: the slice it correlates,
        and the rate window, _RATE_PAD wider each side, whose tag count
        prices the accidentals."""
        reach = 3 * self._tk.coarse_bin + self._tk.coincidence_window
        return ((start + center - reach, end + center + reach),
                (start + center - _RATE_PAD, end + center + _RATE_PAD))

    def _predict(self, tick: int) -> float:
        """Offset (s) the current estimate predicts at a local tick."""
        anchor, est = self.state.history[-1]
        return est.offset + est.drift_rate * ticks_to_seconds(tick - anchor)

    def _process_block(self, i: int, start: int, end: int) -> BlockStatus:
        cfg = self.cfg
        mid = (start + end) // 2
        if self._acquisition_due(i):
            self._last_attempt = i
            acquired = self._attempt_acquire(start)
            if acquired is not None:
                self.state.current = acquired[1]
                self.state.mode = LockMode.LOCKED
                self.state.history = [acquired]
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
            updated = OffsetEstimate(measured, est.drift_rate, significance,
                                     ticks_to_seconds(mid))
            self.state.history.append((mid, updated))
            drift = self._refit_drift()
            updated = replace(updated, drift_rate=drift)
            self.state.history[-1] = (mid, updated)
            self.state.current = updated
            self.state.mode = LockMode.LOCKED
            self.state.locked_seconds_total += ticks_to_seconds(end - start)
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
        pts = self.state.history[-self.cfg.drift_window:]
        if len(pts) < 3:
            return 0.0
        # Tick differences are exact, so the fit does not see the epoch.
        t = ticks_to_seconds(np.array([p[0] for p in pts], dtype=np.int64) - pts[0][0])
        offsets = np.array([p[1].offset for p in pts])
        t_c = t - t.mean()
        denom = float((t_c * t_c).sum())
        if denom <= 0.0:
            return 0.0
        return float((t_c * offsets).sum() / denom)

    def _fine_measure(self, start: int, end: int, predicted: float) -> tuple[float, float]:
        """Fine correlation of one block around a predicted offset (s)."""
        tk = self._tk
        a_slice = _between(self._alice.ticks, start, end)
        if len(a_slice) == 0:
            return math.nan, 0.0
        center = seconds_to_ticks(predicted)
        (b_lo, b_hi), (r_lo, r_hi) = self._fine_windows(start, end, center)
        b_slice = _between(self._bob.ticks, b_lo, b_hi)
        if len(b_slice) == 0:
            return math.nan, 0.0
        rate_b = len(_between(self._bob.ticks, r_lo, r_hi)) / (r_hi - r_lo)
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
        a_slice = _between(self._alice.ticks, start, stop)
        if len(a_slice) == 0 or len(self._bob.ticks) == 0:
            return None

        center = _marker_offset(_between(self._alice.markers, start, stop),
                                self._bob.markers)
        if center is None:
            found = self._two_stage(a_slice, start, stop, 0, tk.blind_search_span)
        else:
            # Markers fix the offset only modulo one second (see
            # _marker_offset), so the neighbouring seconds are tried next.
            center = round(center)
            for trial in (center, center + TICKS_PER_SECOND, center - TICKS_PER_SECOND):
                found = self._two_stage(a_slice, start, stop, trial, tk.gps_search_span)
                if found is not None:
                    break
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
        pad = 2 * tk.coarse_bin
        b_slice = _between(self._bob.ticks, start + center - span - pad,
                           stop + center + span + pad)
        if len(b_slice) == 0:
            return None
        rate_b = len(b_slice) / max(stop - start + 2 * span, tk.block_span)
        coarse = cross_correlate(a_slice, b_slice, center, span, tk.coarse_bin,
                                 expected_per_bin=len(a_slice) * rate_b * tk.coarse_bin)
        if coarse.significance < cfg.lock_threshold:
            return None

        fine_center = round(coarse.peak_offset)
        fine_span = 2 * tk.coarse_bin
        b_fine = _between(self._bob.ticks, start + fine_center - fine_span - pad,
                          stop + fine_center + fine_span + pad)
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
    pipeline._receive(bob.ticks, bob.channels)
    acquired = pipeline._attempt_acquire(pipeline._origin)
    if acquired is None:
        raise NoLockError("no correlation peak above threshold")
    return LockState(mode=LockMode.LOCKED, current=acquired[1], history=[acquired])


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


def extract_coincidences(alice: TagStream | _Detections, bob: TagStream | _Detections,
                         state: LockState,
                         cfg: CorrelatorConfig | None = None) -> Coincidences:
    """Pair detector tags inside locked blocks.

    alice and bob are tag streams, or the engine's stores of detector
    tags; GPS markers never pair. Candidates within the window are
    accepted greedily in order of residual (ties broken by earlier local,
    then receiver, tick), each tag at most once. Working in integer ticks
    with the block offset rounded to the nearest tick makes the window
    edge exact: a pair at exactly tau is in, one tick beyond is out.

    A candidate that shares neither tag with another candidate of its
    block, and whose receiver tag no earlier block took, wins whatever
    the order, so only the candidates in conflict go through the greedy
    loop; the result is the same as running it over all of them.
    """
    cfg = cfg or CorrelatorConfig()
    a_ticks, a_chans = alice.ticks, alice.channels
    b_ticks, b_chans = bob.ticks, bob.channels
    marker = int(ChannelCode.GPS_MARKER)
    tau_ticks = seconds_to_ticks(cfg.coincidence_window)
    used_b = np.zeros(len(b_ticks), dtype=bool)

    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for block in state.blocks:
        if not block.locked:
            continue
        a0 = int(np.searchsorted(a_ticks, block.start_tick))
        a1 = int(np.searchsorted(a_ticks, block.end_tick))
        if a1 <= a0:
            continue
        off_ticks = seconds_to_ticks(block.offset)
        # Candidate pairs: off - tau <= b - a <= off + tau, searched from
        # the side with fewer tags in the block's window.
        a_blk = a_ticks[a0:a1]
        b0 = int(np.searchsorted(b_ticks, a_blk[0] + off_ticks - tau_ticks, side="left"))
        b1 = int(np.searchsorted(b_ticks, a_blk[-1] + off_ticks + tau_ticks, side="right"))
        b_win = b_ticks[b0:b1]
        b_side = len(b_win) < len(a_blk)
        if b_side:
            lo = np.searchsorted(a_blk, b_win - (off_ticks + tau_ticks), side="left")
            hi = np.searchsorted(a_blk, b_win - (off_ticks - tau_ticks), side="right")
            outer0, outer1, inner0 = b0, b1, a0
        else:
            lo = np.searchsorted(b_win, a_blk + (off_ticks - tau_ticks), side="left")
            hi = np.searchsorted(b_win, a_blk + (off_ticks + tau_ticks), side="right")
            outer0, outer1, inner0 = a0, a1, b0
        counts = hi - lo
        outer = np.repeat(np.arange(outer0, outer1, dtype=np.int64), counts)
        inner = inner0 + _expand_groups(lo, counts, np.arange(len(outer), dtype=np.int64))
        cand_a, cand_b = (inner, outer) if b_side else (outer, inner)
        # Marker candidates go; a receiver tag an earlier block took is
        # skipped by the greedy pass without effect on any other candidate.
        open_b = ~used_b[cand_b] & (a_chans[cand_a] != marker) & (b_chans[cand_b] != marker)
        cand_a, cand_b = cand_a[open_b], cand_b[open_b]
        if len(cand_a) == 0:
            continue
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
        # Local index order is time order. Local tags with equal ticks
        # share their candidates, so the greedy pass also took them in
        # index order.
        keep = keep[np.argsort(cand_a[keep])]
        ib = cand_b[keep]
        used_b[ib] = True
        res = dist[keep].astype(np.float64) * TICK_SECONDS
        parts.append((cand_a[keep], ib, res))

    if not parts:
        return Coincidences.empty()
    ia_all = np.concatenate([p[0] for p in parts])
    ib_all = np.concatenate([p[1] for p in parts])
    res_all = np.concatenate([p[2] for p in parts])
    return Coincidences(a_ticks[ia_all], a_chans[ia_all],
                        b_ticks[ib_all], b_chans[ib_all], res_all)


def run_offline(alice: TagStream, bob: TagStream,
                cfg: CorrelatorConfig | None = None) -> tuple[LockState, Coincidences]:
    """Full pipeline on complete streams: acquire, track, extract."""
    pipeline = SyncPipeline(alice, cfg)
    pipeline.feed_bob(bob.ticks, bob.channels)
    pipeline.finish()
    return pipeline.state, pipeline.coincidences


_COINC_HEADER = "alice_ticks,alice_channel,bob_ticks,bob_channel,residual_ns"
_TIMELINE_HEADER = "t_start,t_end,offset_ns,drift,significance"


def write_coincidence_log(path: str | Path, events: Coincidences) -> None:
    columns = (events.alice_ticks.tolist(), events.alice_channels.tolist(),
               events.bob_ticks.tolist(), events.bob_channels.tolist(),
               (events.residuals * 1e9).tolist())
    lines = [_COINC_HEADER]
    lines += [f"{a},{a_ch},{b},{b_ch},{res:.3f}" for a, a_ch, b, b_ch, res in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")


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
