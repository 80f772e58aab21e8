from dataclasses import replace

import numpy as np
import pytest

from pairlock import sync
from pairlock.simulate import (
    ClockModel,
    LinkDetectorConfig,
    generate_streams,
    reference_clocks,
    reference_link,
    reference_polarization,
    relative_offset_at,
)
from pairlock.sync import (
    BlockStatus,
    CorrelatorConfig,
    EmptyBlockError,
    LockMode,
    LockState,
    NoLockError,
    OffsetEstimate,
    SyncPipeline,
    acquire_lock,
    cross_correlate,
    extract_coincidences,
    locked_seconds_from_timeline,
    pair_difference_histogram,
    read_coincidence_log,
    run_offline,
    write_coincidence_log,
    write_lock_timeline,
)
from pairlock.timetags import (TICK_SECONDS, TICKS_PER_SECOND, ChannelCode, Station, TagStream,
                               seconds_to_ticks)


def slow_histogram(a_ticks, b_ticks, center, span, bin_width):
    """Nested-loop reference for the pair-difference histogram, in ticks."""
    n_bins = 2 * span // bin_width
    hist = np.zeros(n_bins, dtype=np.int64)
    for a in a_ticks.tolist():
        for b in b_ticks.tolist():
            d = (b - a) - center
            k = (d + span) // bin_width
            if 0 <= k < n_bins:
                hist[k] += 1
    return hist


def _sorted_ticks(rng, hi, size):
    return np.sort(rng.integers(0, hi, size=size))


def test_histogram_matches_nested_loop_reference():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = _sorted_ticks(rng, 8_000_000, 60)          # 1 ms
        b = _sorted_ticks(rng, 8_000_000, 80)
        center = int(rng.integers(-80_000, 80_000))    # +-10 us
        hist = pair_difference_histogram(a, b, center, 160_000, 800)
        assert np.array_equal(hist, slow_histogram(a, b, center, 160_000, 800))


def test_histogram_counts_every_pair_once_when_span_covers_all():
    a = np.array([0, 8000, 16000])
    b = np.array([4000, 12000])
    hist = pair_difference_histogram(a, b, 0, 80_000, 800)
    assert hist.sum() == len(a) * len(b)


def test_histogram_matches_reference_near_the_top_of_the_counter():
    # 60-bit ticks: float64 seconds would round these differences
    rng = np.random.default_rng(59)
    for bin_width in (800, 8, 1):
        a = 2**59 + _sorted_ticks(rng, 4000, 90)
        b = 2**59 + 1234 + _sorted_ticks(rng, 4000, 70)
        span = 300 * bin_width
        hist = pair_difference_histogram(a, b, 1234, span, bin_width)
        assert hist.sum() > 0
        assert np.array_equal(hist, slow_histogram(a, b, 1234, span, bin_width))


@pytest.mark.parametrize("n_a, n_b", [(90, 40), (40, 90)])
def test_histogram_matches_reference_from_either_side(n_a, n_b, monkeypatch):
    # the shorter array is enumerated; tiny chunks put chunk boundaries
    # inside and between pair groups
    rng = np.random.default_rng(n_a)
    for chunk in (1, 7, sync._CHUNK_PAIRS):
        monkeypatch.setattr(sync, "_CHUNK_PAIRS", chunk)
        for _ in range(3):
            a = _sorted_ticks(rng, 800_000, n_a)
            b = _sorted_ticks(rng, 800_000, n_b)
            center = int(rng.integers(-80_000, 80_000))
            hist = pair_difference_histogram(a, b, center, 160_000, 800)
            assert np.array_equal(hist, slow_histogram(a, b, center, 160_000, 800))


@pytest.mark.parametrize("bin_seconds", [1e-7, 2.0 ** -23])
@pytest.mark.parametrize("n_a, n_b", [(70, 30), (30, 70)])
def test_histogram_matches_reference_on_exact_bin_edges(bin_seconds, n_a, n_b):
    # every time, the centre and the span are whole multiples of the bin
    # width (800 or 954 ticks), so every difference sits on a bin edge
    bin_width = seconds_to_ticks(bin_seconds)
    rng = np.random.default_rng(n_a + n_b)
    for _ in range(5):
        a = np.sort(rng.integers(0, 400, size=n_a)) * bin_width
        b = np.sort(rng.integers(0, 400, size=n_b)) * bin_width
        center = int(rng.integers(-20, 20)) * bin_width
        span = 150 * bin_width
        hist = pair_difference_histogram(a, b, center, span, bin_width)
        assert hist.sum() > 0
        assert np.array_equal(hist, slow_histogram(a, b, center, span, bin_width))


@pytest.mark.parametrize("n_a, n_b", [(80, 30), (30, 80)])
def test_histogram_matches_reference_with_more_bins_than_a_chunk(n_a, n_b):
    rng = np.random.default_rng(7)
    span, bin_width = 80_000_000, 800                  # 10 ms, 100 ns
    assert 2 * span // bin_width > sync._CHUNK_PAIRS
    a = _sorted_ticks(rng, 160_000_000, n_a)
    b = _sorted_ticks(rng, 160_000_000, n_b)
    hist = pair_difference_histogram(a, b, 8_000_000, span, bin_width)
    assert np.array_equal(hist, slow_histogram(a, b, 8_000_000, span, bin_width))


def test_cross_correlate_finds_a_known_offset():
    rng = np.random.default_rng(2)
    a = _sorted_ticks(rng, 8_000_000_000, 4000)
    offset = 25_600                                    # 3.2 us
    b = np.sort(np.concatenate([a + offset, rng.integers(0, 8_000_000_000, size=1000)]))
    corr = cross_correlate(a, b, 0, 80_000, 800)
    assert abs(corr.peak_offset - offset) <= corr.bin_width
    assert corr.significance > 50


def test_cross_correlate_empty_inputs():
    with pytest.raises(EmptyBlockError):
        cross_correlate(np.empty(0, dtype=np.int64), np.array([8]), 0, 80_000, 800)


def test_significance_is_floored_for_sparse_histograms():
    # a lone accidental count must not read as a huge significance when
    # the expected count per bin is far below one
    a = np.array([4_000_000_000])
    b = np.array([4_000_000_000 + 984])                # 123 ns later
    corr = cross_correlate(a, b, 0, 8_000_000, 800, expected_per_bin=0.025)
    assert corr.peak_count == 1
    assert corr.significance == 1.0
    # above one expected count per bin the plain ratio applies
    corr2 = cross_correlate(a, b, 0, 8_000_000, 800, expected_per_bin=2.0)
    assert corr2.significance == 0.5


def _marker_ticks(seconds):
    return np.sort(np.rint(np.asarray(seconds) * 8e9).astype(np.int64))


def test_marker_alignment_median():
    rng = np.random.default_rng(3)
    seconds = np.arange(10, dtype=float)
    jitter_a = rng.normal(0.0, 50e-9, 10)
    jitter_b = rng.normal(0.0, 50e-9, 10)
    got = sync._marker_offset(_marker_ticks(seconds + jitter_a),
                              _marker_ticks(seconds + 0.3 + jitter_b))
    assert abs(got / TICKS_PER_SECOND - 0.3) < 100e-9


def test_marker_alignment_survives_a_dropped_marker():
    # the receiver missed second zero; matching by integer second keeps
    # the remaining pairs aligned instead of shifting them all by one
    seconds = np.arange(10, dtype=float)
    got = sync._marker_offset(_marker_ticks(seconds), _marker_ticks(seconds[1:] + 0.3))
    assert got == pytest.approx(0.3 * TICKS_PER_SECOND, abs=8)


def test_marker_alignment_needs_markers():
    markers = _marker_ticks(np.arange(5, dtype=float))
    none = np.empty(0, dtype=np.int64)
    assert sync._marker_offset(markers, none) is None
    assert sync._marker_offset(none, markers) is None
    # markers exist on both sides, but no second has one at each station
    assert sync._marker_offset(markers, markers + 10 * TICKS_PER_SECOND) is None


def _reference_run(duration, offset, seed, *, drift=5e-11, gps=True, sigma=0.1):
    link = reference_link(fluctuation_sigma=sigma)
    ca, cb = reference_clocks(relative_offset=offset, relative_drift=drift,
                              gps_enabled=gps)
    alice, bob = generate_streams(duration, link, ca, cb,
                                  pol=reference_polarization(), seed=seed)
    return alice, bob, ca, cb


def test_acquire_lock_with_markers():
    alice, bob, ca, cb = _reference_run(12.0, 0.25, seed=31)
    state = acquire_lock(alice, bob)
    assert state.mode is LockMode.LOCKED
    truth = relative_offset_at(ca, cb, state.current.valid_from)
    assert abs(state.current.offset - truth) < 1e-9
    assert state.current.significance >= 5.0


def test_acquire_lock_blind_without_markers():
    alice, bob, ca, cb = _reference_run(12.0, 5e-3, seed=32, gps=False)
    assert len(alice.marker_seconds()) == 0
    state = acquire_lock(alice, bob)
    truth = relative_offset_at(ca, cb, state.current.valid_from)
    assert abs(state.current.offset - truth) < 1e-9


def test_acquire_lock_raises_on_uncorrelated_streams():
    link = LinkDetectorConfig(pair_rate=0.0, eta_alice=0.0615, eta_bob=0.014,
                              dark_rates=(1200.0,) * 4 + (800.0,) * 4,
                              background_rate_bob=2650.0, fluctuation_sigma=0.0)
    ca, cb = reference_clocks(relative_offset=0.25)
    alice, bob = generate_streams(12.0, link, ca, cb, seed=33)
    with pytest.raises(NoLockError):
        acquire_lock(alice, bob)


def test_run_offline_tracks_through_the_whole_run():
    alice, bob, ca, cb = _reference_run(20.0, 0.3, seed=34)
    state, events = run_offline(alice, bob)
    assert all(block.locked for block in state.blocks)
    assert state.locked_seconds_total == pytest.approx(
        sum(b.t_end - b.t_start for b in state.blocks), abs=1e-9)
    # every block offset follows the true clock relation
    for block in state.blocks:
        mid = 0.5 * (block.t_start + block.t_end)
        truth = relative_offset_at(ca, cb, mid)
        assert abs(block.offset - truth) < 1e-9
    rate = len(events) / state.locked_seconds_total
    assert 70.0 < rate < 100.0


def test_drift_estimate_converges():
    alice, bob, ca, cb = _reference_run(30.0, 0.1, seed=35, drift=2e-9)
    state, _ = run_offline(alice, bob)
    assert all(block.locked for block in state.blocks)
    # final drift fit should be close to the injected relative drift
    assert state.current.drift_rate == pytest.approx(2e-9, rel=0.05)


def test_lock_drops_in_a_dead_span_and_reacquires():
    alice, bob, ca, cb = _reference_run(25.0, 0.2, seed=36)
    # receiver outage: remove everything Bob recorded in [8.2, 13.2)
    lo = int(8.2 * 8e9)
    hi = int(13.2 * 8e9)
    keep = (bob.ticks < lo) | (bob.ticks >= hi)
    bob = TagStream(Station.BOB, bob.ticks[keep], bob.channels[keep])
    state, events = run_offline(alice, bob)
    by_start = {int(b.t_start): b for b in state.blocks}
    assert by_start[5].locked
    assert not by_start[8].locked
    assert not by_start[9].locked
    assert any(b.locked for b in state.blocks if b.t_start >= 13.0)
    assert state.mode is LockMode.LOCKED
    assert 0.0 < state.locked_seconds_total < 25.0
    assert state.locked_seconds_total == pytest.approx(
        sum(b.t_end - b.t_start for b in state.blocks if b.locked), abs=1e-9)
    # no coincidences can come from unlocked time
    gap_events = (events.alice_ticks > int(8.5 * 8e9)) \
        & (events.alice_ticks < int(12.5 * 8e9))
    assert not gap_events.any()


def _one_block_state(offset, start_tick=0, end_tick=8_000_000):
    block = BlockStatus(start_tick, end_tick, True, offset, 0.0, 99.0, offset)
    return LockState(mode=LockMode.LOCKED,
                     current=OffsetEstimate(offset, 0.0, 99.0, block.t_start),
                     blocks=[block])


def _det_stream(station, ticks):
    ticks = np.asarray(ticks, dtype=np.int64)
    return TagStream(station, ticks, np.zeros(len(ticks), dtype=np.uint8))


def test_window_edge_is_exact_in_ticks():
    # the window is 7 ns = 56 ticks, inclusive; 57 ticks must be out
    alice = _det_stream(Station.ALICE, [800_000, 2_000_000])
    bob = _det_stream(Station.BOB, [800_000 + 56, 2_000_000 + 57])
    events = extract_coincidences(alice, bob, _one_block_state(0.0))
    assert len(events) == 1
    assert events.alice_ticks[0] == 800_000
    assert events.residuals[0] == pytest.approx(56 * TICK_SECONDS, rel=1e-12)


def test_each_tag_pairs_at_most_once_and_nearest_wins():
    alice = _det_stream(Station.ALICE, [1000, 1030])
    bob = _det_stream(Station.BOB, [1020])
    events = extract_coincidences(alice, bob, _one_block_state(0.0))
    assert len(events) == 1
    assert events.alice_ticks[0] == 1030  # 10 ticks beats 20
    assert events.bob_ticks[0] == 1020

    alice = _det_stream(Station.ALICE, [5000])
    bob = _det_stream(Station.BOB, [4990, 5040])
    events = extract_coincidences(alice, bob, _one_block_state(0.0))
    assert len(events) == 1
    assert events.bob_ticks[0] == 4990


def test_extraction_is_symmetric_under_station_swap():
    rng = np.random.default_rng(44)
    for trial in range(20):
        a_ticks = np.unique(rng.integers(0, 4_000_000, size=300))
        b_ticks = np.unique(rng.integers(0, 4_000_000, size=300))
        alice = _det_stream(Station.ALICE, a_ticks)
        bob = _det_stream(Station.BOB, b_ticks)
        forward = extract_coincidences(alice, bob, _one_block_state(0.0))
        swapped = extract_coincidences(
            _det_stream(Station.ALICE, b_ticks),
            _det_stream(Station.BOB, a_ticks), _one_block_state(0.0))
        assert len(forward) == len(swapped)
        fwd = set(zip(forward.alice_ticks.tolist(), forward.bob_ticks.tolist()))
        rev = set(zip(swapped.bob_ticks.tolist(), swapped.alice_ticks.tolist()))
        assert fwd == rev


def test_extraction_applies_the_block_offset():
    offset_ticks = 4_000_000
    alice = _det_stream(Station.ALICE, [100_000])
    bob = _det_stream(Station.BOB, [100_000 + offset_ticks + 8])
    state = _one_block_state(offset_ticks * TICK_SECONDS)
    events = extract_coincidences(alice, bob, state)
    assert len(events) == 1
    assert events.residuals[0] == pytest.approx(1e-9, rel=1e-12)


def test_extraction_output_is_time_ordered():
    alice, bob, *_ = _reference_run(8.0, 0.1, seed=37)
    state, events = run_offline(alice, bob)
    assert np.all(np.diff(events.alice_ticks) >= 0)


def greedy_oracle(alice, bob, state, tau_ticks):
    """Brute-force extraction: per locked block, every candidate pair
    sorted by (|diff|, local index, receiver index), accepted one-to-one,
    with receiver tags taken by earlier blocks staying taken; rows in
    local time order, equal ticks in acceptance order."""
    a_ticks = alice.ticks[alice.detector_mask].tolist()
    b_ticks = bob.ticks[bob.detector_mask].tolist()
    used_b = set()
    rows = []
    for block in state.blocks:
        if not block.locked:
            continue
        s_tick = seconds_to_ticks(block.t_start)
        e_tick = seconds_to_ticks(block.t_end)
        off = int(round(block.offset / TICK_SECONDS))
        candidates = sorted(
            (abs((b - off) - a), i, j)
            for i, a in enumerate(a_ticks) if s_tick <= a < e_tick
            for j, b in enumerate(b_ticks) if abs((b - off) - a) <= tau_ticks)
        taken_a = set()
        kept = []
        for dist, i, j in candidates:
            if i in taken_a or j in used_b:
                continue
            taken_a.add(i)
            used_b.add(j)
            kept.append((i, j, dist))
        kept.sort(key=lambda row: a_ticks[row[0]])
        rows += kept
    return rows


def test_extraction_equals_brute_force_greedy_oracle():
    rng = np.random.default_rng(45)
    block_ticks = 8000                       # 1 us blocks
    # block 0 has a sparse receiver, block 1 a sparse local side, block 3
    # is unlocked; blocks 0..2 share one offset
    a_parts, b_parts = [], []
    offsets = [40, 40, 40, -25, 13]
    for k, (n_a, n_b) in enumerate([(250, 90), (90, 250), (200, 200), (150, 150), (120, 300)]):
        lo = k * block_ticks
        a = rng.integers(lo, lo + block_ticks, size=n_a)
        paired = rng.choice(a, size=min(n_a, n_b) // 2, replace=False)
        b = np.concatenate([paired + offsets[k] + rng.integers(-60, 61, size=len(paired)),
                            rng.integers(lo, lo + block_ticks, size=n_b - len(paired))])
        a_parts.append(a)
        b_parts.append(b)
    # one receiver tag is a candidate in both block 0 and block 1
    boundary = block_ticks
    a_parts.append(np.array([boundary - 5, boundary + 4]))
    b_parts.append(np.array([boundary + offsets[0]]))
    # two local tags on one tick, both paired
    tie = 2 * block_ticks + 4321
    a_parts.append(np.array([tie, tie]))
    b_parts.append(np.array([tie + offsets[2] + 3, tie + offsets[2] - 9]))
    a_ticks = np.sort(np.concatenate(a_parts))
    b_ticks = np.sort(np.concatenate(b_parts))
    # GPS markers are ignored by the pairing
    markers = np.arange(0, 5 * block_ticks, 3000)
    a_all = np.concatenate([a_ticks, markers])
    b_all = np.concatenate([b_ticks, markers + 1])
    a_order = np.argsort(a_all, kind="stable")
    b_order = np.argsort(b_all, kind="stable")
    a_chan = np.concatenate([rng.integers(0, 4, len(a_ticks)), np.full(len(markers), 15)])
    b_chan = np.concatenate([rng.integers(0, 4, len(b_ticks)), np.full(len(markers), 15)])
    alice = TagStream(Station.ALICE, a_all[a_order], a_chan[a_order].astype(np.uint8))
    bob = TagStream(Station.BOB, b_all[b_order], b_chan[b_order].astype(np.uint8))

    blocks = [BlockStatus(k * block_ticks, (k + 1) * block_ticks, k != 3,
                          offsets[k] * TICK_SECONDS, 0.0, 99.0, 0.0) for k in range(5)]
    state = LockState(mode=LockMode.LOCKED, blocks=blocks)
    cfg = CorrelatorConfig()
    tau_ticks = int(round(cfg.coincidence_window / TICK_SECONDS))

    rows = greedy_oracle(alice, bob, state, tau_ticks)
    events = extract_coincidences(alice, bob, state, cfg)

    a_det = alice.ticks[alice.detector_mask]
    b_det = bob.ticks[bob.detector_mask]
    shared = int(np.flatnonzero(b_det == boundary + offsets[0])[0])
    assert sum(j == shared for _, j, _ in rows) == 1
    assert len(events) == len(rows) > 100
    assert events.alice_ticks.tolist() == [int(a_det[i]) for i, _, _ in rows]
    assert events.bob_ticks.tolist() == [int(b_det[j]) for _, j, _ in rows]
    assert events.alice_channels.tolist() == \
        [int(alice.channels[alice.detector_mask][i]) for i, _, _ in rows]
    assert events.bob_channels.tolist() == \
        [int(bob.channels[bob.detector_mask][j]) for _, j, _ in rows]
    assert events.residuals.tolist() == [d * TICK_SECONDS for _, _, d in rows]


def test_streamed_chunks_equal_offline_results():
    alice, bob, *_ = _reference_run(15.0, 0.3, seed=38)
    offline_state, offline_events = run_offline(alice, bob)

    pipeline = SyncPipeline(alice)
    for start in range(0, len(bob.ticks), 4096):
        pipeline.feed_bob(bob.ticks[start:start + 4096],
                          bob.channels[start:start + 4096])
    pipeline.finish()
    online_events = pipeline.coincidences

    assert pipeline.state.blocks == offline_state.blocks
    assert np.array_equal(online_events.alice_ticks, offline_events.alice_ticks)
    assert np.array_equal(online_events.bob_ticks, offline_events.bob_ticks)
    assert np.array_equal(online_events.residuals, offline_events.residuals)


def test_blocks_only_complete_once_data_has_arrived():
    alice, bob, *_ = _reference_run(15.0, 0.3, seed=39)
    pipeline = SyncPipeline(alice)
    # acquisition integrates 10 s, so half the stream completes nothing
    half = len(bob.ticks) // 2
    assert pipeline.feed_bob(bob.ticks[:half], bob.channels[:half]) == []
    # at 90% the early blocks are safe to process but the tail is not
    ninety = int(len(bob.ticks) * 0.9)
    done_mid = pipeline.feed_bob(bob.ticks[half:ninety], bob.channels[half:ninety])
    assert 0 < len(done_mid) < 15
    pipeline.feed_bob(bob.ticks[ninety:], bob.channels[ninety:])
    pipeline.finish()
    assert len(pipeline.state.blocks) == 15


def test_locked_block_completes_when_its_read_window_has_arrived():
    alice, bob, *_ = _reference_run(15.0, 0.3, seed=39)
    state, _ = run_offline(alice, bob)
    j = 12
    block = state.blocks[j]
    assert block.locked
    # Block j reads receiver ticks up to the end of its rate window, half
    # a second past its end shifted by the offset predicted for it.
    need = block.end_tick + seconds_to_ticks(block.predicted) + TICKS_PER_SECOND // 2
    k = int(np.searchsorted(bob.ticks, need - 1))
    detector = np.uint8(ChannelCode.CH1)

    pipeline = SyncPipeline(alice)
    # Every tag below the window's end, the last one a tick short of it.
    pipeline.feed_bob(np.append(bob.ticks[:k], need - 1),
                      np.append(bob.channels[:k], detector))
    assert pipeline.state.blocks == state.blocks[:j]
    # A tag at the window's end completes block j, and only block j.
    done = pipeline.feed_bob(np.array([need], dtype=np.int64), np.array([detector]))
    assert [(b.start_tick, b.end_tick, b.locked) for b in done] == \
        [(block.start_tick, block.end_tick, True)]


@pytest.mark.parametrize("chunk", [1024, 8192])
def test_streamed_chunks_equal_offline_results_at_a_negative_offset(chunk):
    alice, bob, *_ = _reference_run(15.0, -0.3, seed=41)
    state, events = run_offline(alice, bob)
    assert all(block.locked for block in state.blocks)

    pipeline = SyncPipeline(alice)
    for start in range(0, len(bob.ticks), chunk):
        pipeline.feed_bob(bob.ticks[start:start + chunk],
                          bob.channels[start:start + chunk])
    pipeline.finish()
    assert pipeline.state.blocks == state.blocks
    _assert_same_events(pipeline.coincidences, events, 0)


@pytest.mark.parametrize("offset", [0.55, -0.7])
def test_lock_when_markers_fold_the_offset_by_a_second(offset):
    # markers read 0.55 s as -0.45 s and -0.7 s as 0.3 s
    alice, bob, ca, cb = _reference_run(15.0, offset, seed=5)
    markers = sync._marker_offset(alice.ticks[~alice.detector_mask],
                                  bob.ticks[~bob.detector_mask])
    assert abs(markers / TICKS_PER_SECOND - offset) == pytest.approx(1.0, abs=1e-3)
    state, events = run_offline(alice, bob)
    assert len(state.blocks) == 15
    assert all(block.locked for block in state.blocks)
    for block in state.blocks:
        truth = relative_offset_at(ca, cb, 0.5 * (block.t_start + block.t_end))
        assert abs(block.offset - truth) < 3.5e-9

    pipeline = SyncPipeline(alice)
    for start in range(0, len(bob.ticks), 4096):
        pipeline.feed_bob(bob.ticks[start:start + 4096],
                          bob.channels[start:start + 4096])
    pipeline.finish()
    assert pipeline.state.blocks == state.blocks
    assert np.array_equal(pipeline.coincidences.alice_ticks, events.alice_ticks)
    assert np.array_equal(pipeline.coincidences.bob_ticks, events.bob_ticks)
    assert np.array_equal(pipeline.coincidences.residuals, events.residuals)


def _shifted(stream, shift):
    return TagStream(stream.station, stream.ticks + shift, stream.channels)


def _unshifted_blocks(state, shift):
    return [replace(b, start_tick=b.start_tick - shift, end_tick=b.end_tick - shift)
            for b in state.blocks]


def _assert_same_events(got, want, shift):
    assert np.array_equal(got.alice_ticks - shift, want.alice_ticks)
    assert np.array_equal(got.bob_ticks - shift, want.bob_ticks)
    assert np.array_equal(got.alice_channels, want.alice_channels)
    assert np.array_equal(got.bob_channels, want.bob_channels)
    assert np.array_equal(got.residuals, want.residuals)


@pytest.fixture(scope="module")
def epoch_run():
    alice, bob, *_ = _reference_run(30.0, 0.3, seed=5)
    state, events = run_offline(alice, bob)
    assert all(block.locked for block in state.blocks)
    return alice, bob, state, events


@pytest.mark.parametrize("shift_bits", [55, 58, 59])
def test_results_do_not_depend_on_the_epoch(shift_bits, epoch_run):
    # both counters started 2**shift_bits ticks earlier (up to 2.3 years)
    alice, bob, state, events = epoch_run
    shift = 1 << shift_bits
    shifted_state, shifted_events = run_offline(_shifted(alice, shift), _shifted(bob, shift))
    assert _unshifted_blocks(shifted_state, shift) == state.blocks
    assert shifted_state.current.drift_rate == state.current.drift_rate
    _assert_same_events(shifted_events, events, shift)


def test_streamed_feed_at_the_top_of_the_counter(epoch_run):
    alice, bob, state, events = epoch_run
    shift = 1 << 59
    bob = _shifted(bob, shift)
    pipeline = SyncPipeline(_shifted(alice, shift))
    for start in range(0, len(bob.ticks), 4096):
        pipeline.feed_bob(bob.ticks[start:start + 4096], bob.channels[start:start + 4096])
    pipeline.finish()
    assert _unshifted_blocks(pipeline.state, shift) == state.blocks
    _assert_same_events(pipeline.coincidences, events, shift)


def test_coincidence_log_round_trip(tmp_path):
    alice, bob, *_ = _reference_run(6.0, 0.05, seed=40)
    _, events = run_offline(alice, bob)
    assert len(events) > 300
    path = tmp_path / "coinc.csv"
    write_coincidence_log(path, events)
    back = read_coincidence_log(path)
    assert np.array_equal(back.alice_ticks, events.alice_ticks)
    assert np.array_equal(back.alice_channels, events.alice_channels)
    assert np.array_equal(back.bob_ticks, events.bob_ticks)
    assert np.array_equal(back.bob_channels, events.bob_channels)
    # residuals are quantized to 0.125 ns so three decimals is lossless
    assert np.allclose(back.residuals, events.residuals, atol=1e-13)


def test_coincidence_log_round_trip_is_exact_at_60_bit_ticks(tmp_path):
    from pairlock.sync import Coincidences
    # float64 holds 53 bits: 2**59 + 1001 would come back 23 ticks off
    a_ticks = np.array([2**59 + 1001, 2**60 - 3], dtype=np.int64)
    events = Coincidences(a_ticks, np.array([0, 3], dtype=np.uint8),
                          a_ticks + 57, np.array([1, 2], dtype=np.uint8),
                          np.array([7.125e-9, 0.0]))
    path = tmp_path / "coinc.csv"
    write_coincidence_log(path, events)
    back = read_coincidence_log(path)
    assert np.array_equal(back.alice_ticks, events.alice_ticks)
    assert np.array_equal(back.alice_channels, events.alice_channels)
    assert np.array_equal(back.bob_ticks, events.bob_ticks)
    assert np.array_equal(back.bob_channels, events.bob_channels)
    assert np.allclose(back.residuals, events.residuals, atol=1e-13)


def test_coincidence_log_bytes_equal_the_per_row_formatter(tmp_path):
    from pairlock.sync import Coincidences
    # residuals on .xxx5 ns rounding edges, 60-bit ticks
    res_ns = np.array([0.0005, 0.0015, 0.0025, 1.0005, 2.6785, 6.9995, 0.125, 7.0])
    a_ticks = (2**60 - 1) - np.arange(len(res_ns), dtype=np.int64)[::-1] * 977
    events = Coincidences(a_ticks, np.arange(len(res_ns), dtype=np.uint8) % 4,
                          a_ticks - 41, np.full(len(res_ns), 3, dtype=np.uint8),
                          res_ns * 1e-9)
    lines = ["alice_ticks,alice_channel,bob_ticks,bob_channel,residual_ns"]
    res = events.residuals * 1e9
    for i in range(len(events)):
        lines.append(f"{events.alice_ticks[i]},{events.alice_channels[i]},"
                     f"{events.bob_ticks[i]},{events.bob_channels[i]},{res[i]:.3f}")
    path = tmp_path / "coinc.csv"
    write_coincidence_log(path, events)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_empty_coincidence_log_round_trip(tmp_path):
    from pairlock.sync import Coincidences
    path = tmp_path / "empty.csv"
    write_coincidence_log(path, Coincidences.empty())
    assert len(read_coincidence_log(path)) == 0


def test_lock_timeline_round_trip(tmp_path):
    alice, bob, *_ = _reference_run(8.0, 0.1, seed=41)
    state, _ = run_offline(alice, bob)
    path = tmp_path / "timeline.csv"
    write_lock_timeline(path, state)
    assert locked_seconds_from_timeline(path) == pytest.approx(
        state.locked_seconds_total, abs=1e-4)
