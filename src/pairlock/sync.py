"""Clock recovery between two independently time-tagged stations.

The receiver's stream is aligned to the local one in three steps:

1. GPS markers, when both streams carry them, are paired by integer
   second and their median local-time difference gives a coarse offset
   good to the marker jitter (tens of ns). Without markers the search
   falls back to a wide blind window.
2. A two-stage cross-correlation of detection times (coarse bins over the
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
from dataclasses import dataclass, field, replace
from enum import Enum, auto
from pathlib import Path

import numpy as np

from .timetags import (TICK_SECONDS, ChannelCode, Station, TagStream,
                       seconds_to_ticks, ticks_to_seconds)


class SyncError(Exception):
    pass


class NoMarkersError(SyncError):
    """GPS alignment was requested but markers are missing."""


class EmptyBlockError(SyncError):
    """A correlation was attempted on a block without detector tags."""


class NoLockError(SyncError):
    """No correlation peak cleared the significance threshold."""


class LockMode(Enum):
    SEARCHING = auto()
    LOCKED = auto()


@dataclass(frozen=True)
class CorrelatorConfig:
    """Tunables of the correlator and lock logic.

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

    def predict(self, t: float) -> float:
        return self.offset + self.drift_rate * (t - self.valid_from)


@dataclass(frozen=True)
class BlockStatus:
    """Outcome of one tracking block."""

    t_start: float
    t_end: float
    locked: bool
    offset: float
    drift_rate: float
    significance: float
    predicted: float

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


@dataclass
class LockState:
    mode: LockMode = LockMode.SEARCHING
    current: OffsetEstimate | None = None
    locked_seconds_total: float = 0.0
    history: list[tuple[float, OffsetEstimate]] = field(default_factory=list)
    blocks: list[BlockStatus] = field(default_factory=list)


@dataclass(frozen=True)
class CorrelationResult:
    """Histogram of pair time differences plus its peak summary."""

    histogram: np.ndarray
    center: float
    span: float
    bin_width: float
    n_alice: int
    n_bob: int
    expected_per_bin: float
    peak_index: int
    peak_count: int
    peak_offset: float
    significance: float

    def bin_offsets(self) -> np.ndarray:
        n = len(self.histogram)
        return self.center - self.span + (np.arange(n) + 0.5) * self.bin_width


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


def pair_difference_histogram(a_times: np.ndarray, b_times: np.ndarray,
                              center: float, span: float, bin_width: float) -> np.ndarray:
    """Histogram of all pairwise differences (b - a - center) over [-span, span).

    Equals the direct all-pairs histogram bin for bin: a pair contributes
    to bin floor((d + span) / bin_width) when that index is in range. The
    pairs are enumerated from the shorter array, whose every element
    searches its partners in the longer one, in chunks of a few ten
    thousand pairs; the arithmetic on each pair still matches the obvious
    nested-loop reference operation for operation, so results agree
    exactly, not just to rounding.
    """
    n_bins = int(round(2.0 * span / bin_width))
    if n_bins < 1 or n_bins > _MAX_BINS:
        raise ValueError(f"requested {n_bins} bins, supported range is 1..{_MAX_BINS}")
    # Prefilter one bin wider than the span so that float rounding at the
    # edges can never hide a pair the bin filter below would accept.
    lo_shift = center - span - bin_width
    hi_shift = center + span + bin_width
    b_outer = len(b_times) < len(a_times)
    if b_outer:
        outer, inner = b_times, a_times
        lo = np.searchsorted(a_times, b_times - hi_shift, side="right")
        hi = np.searchsorted(a_times, b_times - lo_shift, side="right")
    else:
        outer, inner = a_times, b_times
        lo = np.searchsorted(b_times, a_times + lo_shift)
        hi = np.searchsorted(b_times, a_times + hi_shift)
    counts = hi - lo
    groups = np.flatnonzero(counts)
    # Clipped indices -1 and n_bins collect the pairs outside the span.
    hist = np.zeros(n_bins + 2, dtype=np.int64)
    if len(groups) == 0:
        return hist[1:-1]
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
        d -= center
        d += span
        d /= bin_width
        np.floor(d, out=d)
        np.clip(d, -1, n_bins, out=d)
        k = d.astype(np.intp)
        k += 1
        hist += np.bincount(k, minlength=n_bins + 2)
        i = j
    return hist[1:-1]


def cross_correlate(a_times: np.ndarray, b_times: np.ndarray, center: float,
                    span: float, bin_width: float, *,
                    expected_per_bin: float | None = None) -> CorrelationResult:
    """Correlate two sorted detection-time arrays around a trial offset.

    GPS markers must already be excluded. When expected_per_bin is not
    given it is estimated as n_a * n_b * bin / T_overlap from the spans of
    the inputs; callers correlating a pre-windowed slice should pass a
    rate-based value instead.
    """
    if len(a_times) == 0 or len(b_times) == 0:
        raise EmptyBlockError("cannot correlate an empty block")
    hist = pair_difference_histogram(a_times, b_times, center, span, bin_width)
    if expected_per_bin is None:
        t_overlap = min(a_times[-1], b_times[-1] - center) \
            - max(a_times[0], b_times[0] - center)
        t_overlap = max(float(t_overlap), bin_width)
        expected_per_bin = len(a_times) * len(b_times) * bin_width / t_overlap
    peak_index = int(np.argmax(hist))
    peak_count = int(hist[peak_index])
    peak_offset = center - span + (peak_index + 0.5) * bin_width
    significance = peak_count / max(expected_per_bin, 1.0)
    return CorrelationResult(hist, center, span, bin_width, len(a_times), len(b_times),
                             float(expected_per_bin), peak_index, peak_count,
                             float(peak_offset), float(significance))


def _marker_offset(markers_a: np.ndarray, markers_b: np.ndarray) -> float | None:
    """Median receiver-minus-local difference of GPS markers paired by
    integer second, or None when no second has a marker in both."""
    key_a = np.rint(markers_a).astype(np.int64)
    key_b = np.rint(markers_b).astype(np.int64)
    _, idx_a, idx_b = np.intersect1d(key_a, key_b, return_indices=True)
    if len(idx_a) == 0:
        return None
    return float(np.median(markers_b[idx_b] - markers_a[idx_a]))


def coarse_align_markers(alice: TagStream, bob: TagStream) -> float:
    """Median receiver-minus-local difference of matching GPS markers.

    Markers are paired by each station's rounded second, so the result is
    the offset modulo one second, folded into about [-0.5, 0.5) s: a true
    offset of 0.7 s reads as -0.3 s. Acquisition therefore also searches
    one second either side of it.
    """
    ma = alice.marker_seconds()
    mb = bob.marker_seconds()
    if len(ma) == 0 or len(mb) == 0:
        raise NoMarkersError("both streams need GPS markers for coarse alignment")
    offset = _marker_offset(ma, mb)
    if offset is None:
        raise NoMarkersError("no GPS markers share an integer second")
    return offset


def _centroid(corr: CorrelationResult, half_width_bins: int = 3) -> float:
    """Sub-bin peak position from a local weighted mean."""
    lo = max(0, corr.peak_index - half_width_bins)
    hi = min(len(corr.histogram), corr.peak_index + half_width_bins + 1)
    weights = corr.histogram[lo:hi].astype(np.float64)
    total = weights.sum()
    if total <= 0:
        return corr.peak_offset
    centers = corr.center - corr.span + (np.arange(lo, hi) + 0.5) * corr.bin_width
    return float((weights * centers).sum() / total)


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


class SyncPipeline:
    """The block-serial lock engine.

    Feed receiver tags in time order as they arrive: each feed processes
    every block whose data window is complete and returns the new block
    statuses, so results depend only on the data, not on how it was
    chunked on arrival. finish() closes the receiver stream, processes
    the remaining blocks and extracts the coincidences. run_offline is one
    feed of the whole receiver stream followed by finish().

    Each receiver chunk is converted once, on arrival: its ticks and
    channels are appended as they are, its detector and marker times as
    seconds, so no feed touches data that arrived before it.
    """

    def __init__(self, alice: TagStream, cfg: CorrelatorConfig | None = None):
        self.cfg = cfg = cfg or CorrelatorConfig()
        if len(alice) == 0:
            raise EmptyBlockError("local stream is empty")
        self._alice = alice
        self._a_det = alice.detector_seconds()
        self._a_mark = alice.marker_seconds()
        self._t_origin = ticks_to_seconds(int(alice.ticks[0]))
        self._t_end = ticks_to_seconds(int(alice.ticks[-1]))
        self.state = LockState()
        self._b_ticks = _Appendable(np.int64)
        self._b_channels = _Appendable(np.uint8)
        self._b_det = _Appendable(np.float64)
        self._b_mark = _Appendable(np.float64)
        self._b_finished = False
        self._events: Coincidences | None = None
        self._next_block = 0
        self._fails = 0
        self._last_attempt: int | None = None
        span_total = self._t_end - self._t_origin
        n_full = int(span_total // cfg.block_span)
        trailing = span_total - n_full * cfg.block_span
        if n_full == 0:
            self._n_blocks = 1
        elif trailing >= max(0.05 * cfg.block_span, 2.0 * cfg.coincidence_window):
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
        bob = TagStream(Station.BOB, self._b_ticks.view(), self._b_channels.view(),
                        self._alice.epoch_label)
        self._events = extract_coincidences(self._alice, bob, self.state, self.cfg)
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
        stored = self._b_ticks.view()
        if len(stored) and ticks[0] < stored[-1]:
            raise ValueError("receiver chunks must arrive in time order")
        ticks = np.asarray(ticks, dtype=np.int64)
        channels = np.asarray(channels, dtype=np.uint8)
        marker = channels == int(ChannelCode.GPS_MARKER)
        self._b_ticks.append(ticks)
        self._b_channels.append(channels)
        self._b_det.append(ticks_to_seconds(ticks[~marker]))
        self._b_mark.append(ticks_to_seconds(ticks[marker]))

    def _block_bounds(self, i: int) -> tuple[float, float]:
        start = self._t_origin + i * self.cfg.block_span
        if i == self._n_blocks - 1:
            return start, self._t_end + 1e-9
        return start, start + self.cfg.block_span

    def _data_ready(self, t_start: float, t_end: float) -> bool:
        if self._b_finished:
            return True
        stored = self._b_ticks.view()
        if len(stored) == 0:
            return False
        cfg = self.cfg
        if self.state.current is None or self.state.mode is LockMode.SEARCHING:
            need = min(max(t_end, t_start + cfg.acquisition_span), self._t_end) \
                + cfg.blind_search_span + 1.5
        else:
            need = t_end + abs(self.state.current.offset) + 1.5
        return ticks_to_seconds(int(stored[-1])) >= need

    def _advance(self) -> list[BlockStatus]:
        """Process all blocks whose receiver data is available."""
        done: list[BlockStatus] = []
        while self._next_block < self._n_blocks:
            t_start, t_end = self._block_bounds(self._next_block)
            if not self._data_ready(t_start, t_end):
                break
            done.append(self._process_block(self._next_block, t_start, t_end))
            self._next_block += 1
        return done

    def _bob_local_rate(self, lo: float, hi: float) -> float:
        """Detector rate of the receiver around a local window (tags/s)."""
        b_det = self._b_det.view()
        pad = 0.5
        n = np.searchsorted(b_det, hi + pad) - np.searchsorted(b_det, lo - pad)
        return float(n) / (hi - lo + 2 * pad)

    def _process_block(self, i: int, t_start: float, t_end: float) -> BlockStatus:
        cfg = self.cfg
        mid = 0.5 * (t_start + t_end)
        searching = self.state.current is None or self.state.mode is LockMode.SEARCHING
        if searching:
            due = self._last_attempt is None \
                or i - self._last_attempt >= cfg.reacquire_interval
            if due:
                self._last_attempt = i
                est = self._attempt_acquire(t_start)
                if est is not None:
                    self.state.current = est
                    self.state.mode = LockMode.LOCKED
                    self.state.history = [(est.valid_from, est)]
                    self._fails = 0

        if self.state.current is None:
            status = BlockStatus(t_start, t_end, False, math.nan, 0.0, 0.0, math.nan)
            self.state.blocks.append(status)
            return status

        est = self.state.current
        predicted = est.predict(mid)
        measured, significance = self._fine_measure(t_start, t_end, predicted)
        locked = significance >= cfg.lock_threshold
        if locked:
            updated = OffsetEstimate(measured, est.drift_rate, significance, mid)
            self.state.history.append((mid, updated))
            drift = self._refit_drift()
            updated = replace(updated, drift_rate=drift)
            self.state.history[-1] = (mid, updated)
            self.state.current = updated
            self.state.mode = LockMode.LOCKED
            self.state.locked_seconds_total += t_end - t_start
            self._fails = 0
            status = BlockStatus(t_start, t_end, True, measured, drift,
                                 significance, predicted)
        else:
            self._fails += 1
            if self._fails >= cfg.drop_lock_after and self.state.mode is LockMode.LOCKED:
                self.state.mode = LockMode.SEARCHING
                self._last_attempt = i
            status = BlockStatus(t_start, t_end, False, predicted,
                                 est.drift_rate, significance, predicted)
        self.state.blocks.append(status)
        return status

    def _refit_drift(self) -> float:
        pts = self.state.history[-self.cfg.drift_window:]
        if len(pts) < 3:
            return 0.0
        t = np.array([p[0] for p in pts])
        offsets = np.array([p[1].offset for p in pts])
        t_c = t - t.mean()
        denom = float((t_c * t_c).sum())
        if denom <= 0.0:
            return 0.0
        return float((t_c * offsets).sum() / denom)

    def _fine_measure(self, t_start: float, t_end: float,
                      predicted: float) -> tuple[float, float]:
        """Fine correlation of one block around a predicted offset."""
        cfg = self.cfg
        a0 = np.searchsorted(self._a_det, t_start)
        a1 = np.searchsorted(self._a_det, t_end)
        a_slice = self._a_det[a0:a1]
        if len(a_slice) == 0:
            return math.nan, 0.0
        span = 2.0 * cfg.coarse_bin
        pad = cfg.coarse_bin + cfg.coincidence_window
        b_det = self._b_det.view()
        b0 = np.searchsorted(b_det, t_start + predicted - span - pad)
        b1 = np.searchsorted(b_det, t_end + predicted + span + pad)
        b_slice = b_det[b0:b1]
        if len(b_slice) == 0:
            return math.nan, 0.0
        rate_b = self._bob_local_rate(t_start + predicted, t_end + predicted)
        expected = len(a_slice) * rate_b * cfg.fine_bin
        corr = cross_correlate(a_slice, b_slice, predicted, span, cfg.fine_bin,
                               expected_per_bin=expected)
        return _centroid(corr), corr.significance

    def _attempt_acquire(self, t_start: float) -> OffsetEstimate | None:
        """Two-stage acquisition over a window starting at t_start."""
        cfg = self.cfg
        t_stop = min(t_start + cfg.acquisition_span, self._t_end)
        if t_stop - t_start < cfg.block_span:
            return None
        a0 = np.searchsorted(self._a_det, t_start)
        a1 = np.searchsorted(self._a_det, t_stop)
        a_slice = self._a_det[a0:a1]
        b_det = self._b_det.view()
        if len(a_slice) == 0 or len(b_det) == 0:
            return None

        m0 = np.searchsorted(self._a_mark, t_start)
        m1 = np.searchsorted(self._a_mark, t_stop)
        center = _marker_offset(self._a_mark[m0:m1], self._b_mark.view())
        if center is None:
            return self._two_stage(a_slice, t_start, t_stop, 0.0, cfg.blind_search_span)
        # Markers fix the offset only modulo one second (see
        # coarse_align_markers), so the neighbouring seconds are tried next.
        for trial in (center, center + 1.0, center - 1.0):
            est = self._two_stage(a_slice, t_start, t_stop, trial, cfg.gps_search_span)
            if est is not None:
                return est
        return None

    def _two_stage(self, a_slice: np.ndarray, t_start: float, t_stop: float,
                   center: float, span: float) -> OffsetEstimate | None:
        """Coarse search of +-span around center, then the fine stage
        around the coarse peak; None unless both clear the threshold."""
        cfg = self.cfg
        b_det = self._b_det.view()
        pad = 2.0 * cfg.coarse_bin
        b0 = np.searchsorted(b_det, t_start + center - span - pad)
        b1 = np.searchsorted(b_det, t_stop + center + span + pad)
        b_slice = b_det[b0:b1]
        if len(b_slice) == 0:
            return None
        t_window = t_stop - t_start
        rate_b = len(b_slice) / max(t_window + 2.0 * span, cfg.block_span)
        coarse = cross_correlate(a_slice, b_slice, center, span, cfg.coarse_bin,
                                 expected_per_bin=len(a_slice) * rate_b * cfg.coarse_bin)
        if coarse.significance < cfg.lock_threshold:
            return None

        fine_span = 2.0 * cfg.coarse_bin
        f0 = np.searchsorted(b_det, t_start + coarse.peak_offset - fine_span - pad)
        f1 = np.searchsorted(b_det, t_stop + coarse.peak_offset + fine_span + pad)
        b_fine = b_det[f0:f1]
        if len(b_fine) == 0:
            return None
        fine = cross_correlate(a_slice, b_fine, coarse.peak_offset, fine_span,
                               cfg.fine_bin,
                               expected_per_bin=len(a_slice) * rate_b * cfg.fine_bin)
        if fine.significance < cfg.lock_threshold:
            return None
        offset = _centroid(fine)
        return OffsetEstimate(offset, 0.0, fine.significance,
                              valid_from=0.5 * (t_start + t_stop))


def acquire_lock(alice: TagStream, bob: TagStream,
                 cfg: CorrelatorConfig | None = None) -> LockState:
    """Initial two-stage acquisition at the start of the streams.

    Raises NoLockError when neither correlation stage clears the
    threshold.
    """
    pipeline = SyncPipeline(alice, cfg)
    pipeline._receive(bob.ticks, bob.channels)
    est = pipeline._attempt_acquire(pipeline._t_origin)
    if est is None:
        raise NoLockError("no correlation peak above threshold")
    return LockState(mode=LockMode.LOCKED, current=est,
                     history=[(est.valid_from, est)])


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


def extract_coincidences(alice: TagStream, bob: TagStream, state: LockState,
                         cfg: CorrelatorConfig | None = None) -> Coincidences:
    """Pair detector tags inside locked blocks.

    Candidates within the window are accepted greedily in order of
    residual (ties broken by earlier local, then receiver, tick), each tag
    at most once. Working in integer ticks with the block offset rounded
    to the nearest tick makes the window edge exact: a pair at exactly tau
    is in, one tick beyond is out.

    A candidate that shares neither tag with another candidate of its
    block, and whose receiver tag no earlier block took, wins whatever
    the order, so only the candidates in conflict go through the greedy
    loop; the result is the same as running it over all of them.
    """
    cfg = cfg or CorrelatorConfig()
    a_mask = alice.detector_mask
    a_ticks = alice.ticks[a_mask]
    a_chans = alice.channels[a_mask]
    b_mask = bob.detector_mask
    b_ticks = bob.ticks[b_mask]
    b_chans = bob.channels[b_mask]
    tau_ticks = int(round(cfg.coincidence_window / TICK_SECONDS))
    used_b = np.zeros(len(b_ticks), dtype=bool)

    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for block in state.blocks:
        if not block.locked:
            continue
        s_tick = seconds_to_ticks(block.t_start)
        e_tick = seconds_to_ticks(block.t_end)
        a0 = int(np.searchsorted(a_ticks, s_tick))
        a1 = int(np.searchsorted(a_ticks, e_tick))
        if a1 <= a0:
            continue
        off_ticks = int(round(block.offset / TICK_SECONDS))
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
        # A receiver tag an earlier block took is skipped by the greedy
        # pass without effect on any other candidate.
        open_b = ~used_b[cand_b]
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
