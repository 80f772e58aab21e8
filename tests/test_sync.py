import math

import numpy as np
import pytest

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
    NoMarkersError,
    OffsetEstimate,
    SyncPipeline,
    acquire_lock,
    coarse_align_markers,
    cross_correlate,
    extract_coincidences,
    locked_seconds_from_timeline,
    pair_difference_histogram,
    read_coincidence_log,
    run_offline,
    write_coincidence_log,
    write_lock_timeline,
)
from pairlock.timetags import TICK_SECONDS, Station, TagStream


def slow_histogram(a_times, b_times, center, span, bin_width):
    """Nested-loop reference for the pair-difference histogram."""
    n_bins = int(round(2.0 * span / bin_width))
    hist = np.zeros(n_bins, dtype=np.int64)
    for a in a_times:
        for b in b_times:
            d = (b - a) - center
            k = math.floor((d + span) / bin_width)
            if 0 <= k < n_bins:
                hist[k] += 1
    return hist


def test_histogram_matches_nested_loop_reference():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = np.sort(rng.uniform(0.0, 1e-3, size=60))
        b = np.sort(rng.uniform(0.0, 1e-3, size=80))
        center = rng.uniform(-1e-5, 1e-5)
        hist = pair_difference_histogram(a, b, center, 2e-5, 1e-7)
        assert np.array_equal(hist, slow_histogram(a, b, center, 2e-5, 1e-7))


def test_histogram_counts_every_pair_once_when_span_covers_all():
    a = np.array([0.0, 1e-6, 2e-6])
    b = np.array([0.5e-6, 1.5e-6])
    hist = pair_difference_histogram(a, b, 0.0, 1e-5, 1e-7)
    assert hist.sum() == len(a) * len(b)


def test_cross_correlate_finds_a_known_offset():
    rng = np.random.default_rng(2)
    a = np.sort(rng.uniform(0.0, 1.0, size=4000))
    offset = 3.2e-6
    b = np.sort(np.concatenate([a + offset, rng.uniform(0.0, 1.0, size=1000)]))
    corr = cross_correlate(a, b, 0.0, 1e-5, 1e-7)
    assert abs(corr.peak_offset - offset) <= corr.bin_width
    assert corr.significance > 50


def test_cross_correlate_empty_inputs():
    with pytest.raises(EmptyBlockError):
        cross_correlate(np.empty(0), np.array([1.0]), 0.0, 1e-5, 1e-7)


def test_significance_is_floored_for_sparse_histograms():
    # a lone accidental count must not read as a huge significance when
    # the expected count per bin is far below one
    a = np.array([0.5])
    b = np.array([0.5 + 1.23e-7])
    corr = cross_correlate(a, b, 0.0, 1e-3, 1e-7, expected_per_bin=0.025)
    assert corr.peak_count == 1
    assert corr.significance == 1.0
    # above one expected count per bin the plain ratio applies
    corr2 = cross_correlate(a, b, 0.0, 1e-3, 1e-7, expected_per_bin=2.0)
    assert corr2.significance == 0.5


def test_offset_estimate_prediction():
    est = OffsetEstimate(offset=1e-6, drift_rate=2e-9, significance=10.0,
                         valid_from=5.0)
    assert est.predict(5.0) == 1e-6
    assert est.predict(15.0) == pytest.approx(1e-6 + 2e-8, rel=1e-12)


def _marker_stream(station, seconds):
    ticks = np.rint(np.asarray(seconds) * 8e9).astype(np.int64)
    channels = np.full(len(ticks), 15, dtype=np.uint8)
    return TagStream(station, np.sort(ticks), channels)


def test_marker_alignment_median():
    rng = np.random.default_rng(3)
    seconds = np.arange(10, dtype=float)
    jitter_a = rng.normal(0.0, 50e-9, 10)
    jitter_b = rng.normal(0.0, 50e-9, 10)
    alice = _marker_stream(Station.ALICE, seconds + jitter_a)
    bob = _marker_stream(Station.BOB, seconds + 0.3 + jitter_b)
    got = coarse_align_markers(alice, bob)
    assert abs(got - 0.3) < 100e-9


def test_marker_alignment_survives_a_dropped_marker():
    # the receiver missed second zero; matching by integer second keeps
    # the remaining pairs aligned instead of shifting them all by one
    seconds = np.arange(10, dtype=float)
    alice = _marker_stream(Station.ALICE, seconds)
    bob = _marker_stream(Station.BOB, seconds[1:] + 0.3)
    assert coarse_align_markers(alice, bob) == pytest.approx(0.3, abs=1e-9)


def test_marker_alignment_needs_markers():
    alice = _marker_stream(Station.ALICE, np.arange(5, dtype=float))
    empty = TagStream(Station.BOB, np.array([800], dtype=np.int64),
                      np.array([0], dtype=np.uint8))
    with pytest.raises(NoMarkersError):
        coarse_align_markers(alice, empty)


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


def _one_block_state(offset, t_start=0.0, t_end=1e-3):
    block = BlockStatus(t_start, t_end, True, offset, 0.0, 99.0, offset)
    return LockState(mode=LockMode.LOCKED,
                     current=OffsetEstimate(offset, 0.0, 99.0, t_start),
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
