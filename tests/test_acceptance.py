"""Release acceptance gate.

Each test carries an acceptance(n, title) marker; the terminal summary
prints one verdict line per criterion. Statistical criteria use pinned
seeds with documented error budgets so the gate is deterministic.
"""

import math
import socket

import numpy as np
import pytest

from pairlock.bell import (
    S_QUANTUM_MAX,
    CoincidenceMatrix,
    CorrelationResult,
    accumulate,
    bell_report,
    chsh_s,
    correlation_e,
    qber_from_s,
    visibility_from_s,
)
from pairlock.simulate import (
    ClockModel,
    LinkDetectorConfig,
    MeasurementSettings,
    PolarizationModel,
    generate_streams,
    reference_clocks,
    reference_link,
    reference_polarization,
    relative_offset_at,
)
from pairlock.sync import (
    BlockStatus,
    LockMode,
    LockState,
    NoLockError,
    OffsetEstimate,
    SyncPipeline,
    acquire_lock,
    cross_correlate,
    extract_coincidences,
    run_offline,
    write_coincidence_log,
    write_lock_timeline,
)
from pairlock.timetags import Station, decode_words, encode_words, seconds_to_ticks
from pairlock.transport import ReceiverServer, send_words

# ---------------------------------------------------------------- criterion 1
# Deterministic analysis of the published 19.2 km run: the 16-setting
# coincidence table and the four printed correlation values.

CRIT1 = pytest.mark.acceptance(1, "published-table correlations, S, qber, visibility")

PUBLISHED_COUNTS = np.array([
    [1469, 5763, 6500, 1067],
    [4015, 1305, 1483, 2959],
    [2171, 9103, 2633, 6357],
    [1701, 1701, 6889, 1090],
], dtype=np.int64)

PUBLISHED_E = [(0, 0, -0.558), (0, 1, +0.575), (1, 1, -0.561)]
PUBLISHED_E_INCONSISTENT = (1, 0, -0.578)


def _published_matrix():
    return CoincidenceMatrix(PUBLISHED_COUNTS.copy(), MeasurementSettings(), 715.0)


@CRIT1
def test_published_correlations_reproduce():
    matrix = _published_matrix()
    for ia, ib, expected in PUBLISHED_E:
        got = correlation_e(matrix, ia, ib)
        assert got.e == pytest.approx(expected, abs=1e-3)


@CRIT1
@pytest.mark.xfail(strict=True, reason="the published counts for this basis pair "
                   "are internally inconsistent: they yield -0.472 while the "
                   "source prints -0.578")
def test_published_fourth_correlation_matches_print():
    ia, ib, printed = PUBLISHED_E_INCONSISTENT
    got = correlation_e(_published_matrix(), ia, ib)
    assert got.e == pytest.approx(printed, abs=1e-3)


@CRIT1
def test_published_s_qber_visibility():
    def corr(e):
        return CorrelationResult(e, 0.01, 0.0, 0.0, 10_000)
    s, _ = chsh_s((corr(-0.558), corr(+0.575), corr(-0.578), corr(-0.561)))
    assert s == pytest.approx(2.272, abs=1e-3)
    assert qber_from_s(2.27) == pytest.approx(0.0987, abs=5e-4)
    assert visibility_from_s(2.27) == pytest.approx(0.803, abs=2e-3)


# ---------------------------------------------------------------- criterion 2
# Full pipeline at the reference operating point: 715 locked seconds
# should deliver 60060 coincidences (84/s) within 4 sigma and an S of
# 2.27 +- 0.05. The per-second transmission fluctuation makes the count
# variance about 1.8x Poisson, which still fits comfortably in the 4
# sigma budget; seeds are pinned.

CRIT2 = pytest.mark.acceptance(2, "715 s field-run statistics: 60060 coincidences, S = 2.27")


@CRIT2
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_full_run_statistics(seed):
    link = reference_link()
    ca, cb = reference_clocks(relative_offset=0.3, relative_drift=5e-11)
    alice, bob = generate_streams(715.0, link, ca, cb,
                                  pol=reference_polarization(), seed=seed)
    state, events = run_offline(alice, bob)
    assert state.locked_seconds_total > 710.0
    assert abs(len(events) - 60060) < 4 * math.sqrt(60060)
    matrix = accumulate(events, accumulation_span=state.locked_seconds_total)
    report = bell_report(matrix, locked_seconds=state.locked_seconds_total)
    assert abs(report.s - 2.27) < 0.05


# ---------------------------------------------------------------- criterion 3
# With a perfect singlet and a clean link the full pipeline must land on
# the quantum bound, and no amount of reseeding may push the analysis
# beyond it by more than counting error.

CRIT3 = pytest.mark.acceptance(3, "ideal source reaches 2*sqrt(2) and never exceeds it")

_IDEAL_LINK = LinkDetectorConfig(pair_rate=50_000.0, eta_alice=0.15, eta_bob=0.15,
                                 fluctuation_sigma=0.0)
_IDEAL_POL = PolarizationModel(1.0, 1.0, 0.0)


@CRIT3
def test_ideal_source_hits_the_quantum_bound():
    ca, cb = reference_clocks(relative_offset=0.05, relative_drift=5e-11)
    alice, bob = generate_streams(100.0, _IDEAL_LINK, ca, cb, pol=_IDEAL_POL,
                                  seed=11)
    state, events = run_offline(alice, bob)
    assert len(events) >= 100_000
    report = bell_report(accumulate(events), locked_seconds=state.locked_seconds_total)
    assert abs(report.s - S_QUANTUM_MAX) < 4 * report.s_sigma


@CRIT3
def test_analysis_never_exceeds_the_quantum_bound():
    for seed in range(20):
        ca, cb = reference_clocks(relative_offset=0.02, relative_drift=5e-11)
        alice, bob = generate_streams(10.0, _IDEAL_LINK, ca, cb, pol=_IDEAL_POL,
                                      seed=seed)
        _, events = run_offline(alice, bob)
        report = bell_report(accumulate(events))
        assert report.s <= S_QUANTUM_MAX + 4 * report.s_sigma


# ---------------------------------------------------------------- criterion 4
# Offset acquisition across random +-10 ms offsets, and tracker
# prediction staying under a nanosecond for 100 s of constant drift.

CRIT4 = pytest.mark.acceptance(4, "offset recovery < 3.5 ns, prediction < 1 ns")


@CRIT4
def test_acquisition_accuracy_over_random_offsets():
    rng = np.random.default_rng(2024)
    link = reference_link()
    failures = 0
    for seed in range(50):
        offset = float(rng.uniform(-10e-3, 10e-3))
        ca, cb = reference_clocks(relative_offset=offset, relative_drift=5e-11)
        alice, bob = generate_streams(60.0, link, ca, cb,
                                      pol=reference_polarization(), seed=seed)
        try:
            state = acquire_lock(alice, bob)
        except NoLockError:
            failures += 1
            continue
        truth = relative_offset_at(ca, cb, state.current.valid_from)
        if abs(state.current.offset - truth) >= 3.5e-9:
            failures += 1
    assert failures <= 1


@CRIT4
def test_tracker_prediction_stays_under_a_nanosecond():
    link = reference_link()
    ca, cb = reference_clocks(relative_offset=2e-3, relative_drift=5e-11)
    alice, bob = generate_streams(100.0, link, ca, cb,
                                  pol=reference_polarization(), seed=77)
    state, _ = run_offline(alice, bob)
    assert all(block.locked for block in state.blocks)
    for block in state.blocks:
        mid = 0.5 * (block.t_start + block.t_end)
        truth = relative_offset_at(ca, cb, mid)
        assert abs(block.predicted - truth) < 1e-9


# ---------------------------------------------------------------- criterion 5
# Background-only streams must not produce a lock: the raw
# peak-over-expectation ratio would fire on any stray count in a sparse
# histogram, so the significance floor is what this criterion exercises.

CRIT5 = pytest.mark.acceptance(5, "no false lock on background-only streams")


@CRIT5
def test_false_lock_rate_at_most_one_percent():
    link = LinkDetectorConfig(pair_rate=0.0, eta_alice=0.0615, eta_bob=0.014,
                              dark_rates=(1200.0,) * 4 + (800.0,) * 4,
                              background_rate_bob=2650.0, fluctuation_sigma=0.0)
    locks = 0
    for seed in range(100):
        ca, cb = reference_clocks(relative_offset=0.25, relative_drift=5e-11)
        alice, bob = generate_streams(12.0, link, ca, cb, seed=seed)
        try:
            acquire_lock(alice, bob)
        except NoLockError:
            continue
        locks += 1
    assert locks <= 1


# ---------------------------------------------------------------- criterion 6
# The vectorized correlator and the correlation coefficient must equal
# independent brute-force references exactly.

CRIT6 = pytest.mark.acceptance(6, "bit-exact agreement with brute-force oracles")


def _outer_histogram(a, b, center, span, bin_width):
    """All-pairs reference histogram via a dense difference matrix (ticks)."""
    n_bins = 2 * span // bin_width
    d = (b[:, None] - a[None, :]) - center
    k = ((d + span) // bin_width).ravel()
    k = k[(k >= 0) & (k < n_bins)]
    return np.bincount(k, minlength=n_bins)


@CRIT6
def test_correlator_equals_all_pairs_histogram():
    rng = np.random.default_rng(606)
    bins = [800, 80, 20]                       # 100, 10 and 2.5 ns
    for trial in range(200):
        n_a = int(rng.integers(1, 2001))
        n_b = int(rng.integers(1, 2001))
        a = np.sort(rng.integers(0, 80_000_000, n_a))      # 10 ms of ticks
        b = np.sort(rng.integers(0, 80_000_000, n_b))
        center = int(rng.integers(-800_000, 800_001))      # +-100 us
        bin_width = bins[trial % len(bins)]
        span = bin_width * int(rng.integers(10, 200))
        corr = cross_correlate(a, b, center, span, bin_width)
        oracle = _outer_histogram(a, b, center, span, bin_width)
        assert np.array_equal(corr.histogram, oracle)
        assert corr.peak_count == oracle.max()


@CRIT6
def test_correlation_equals_per_event_tally():
    rng = np.random.default_rng(607)
    for _ in range(10):
        n = int(rng.integers(100, 20_000))
        ch_a = rng.integers(0, 4, n)
        ch_b = rng.integers(0, 4, n)
        counts = np.zeros((4, 4), dtype=np.int64)
        for a, b in zip(ch_a, ch_b):
            counts[a, b] += 1
        matrix = CoincidenceMatrix(counts, MeasurementSettings(), 1.0)
        for ia in (0, 1):
            for ib in (0, 1):
                agree = disagree = 0
                for a, b in zip(ch_a, ch_b):
                    if a // 2 == ia and b // 2 == ib:
                        if a % 2 == b % 2:
                            agree += 1
                        else:
                            disagree += 1
                got = correlation_e(matrix, ia, ib)
                assert got.e == (agree - disagree) / (agree + disagree)
                assert got.sigma == 2.0 * math.sqrt(
                    agree * disagree / (agree + disagree) ** 3)


# ---------------------------------------------------------------- criterion 7
# Accidental-rate calibration: counting coincidences in a side window 2
# microseconds away from the true peak must reproduce r_A * r_B * 2 tau.

CRIT7 = pytest.mark.acceptance(7, "accidental rate matches r_A * r_B * 2 tau within 10%")


@CRIT7
def test_accidental_rate_in_a_side_window():
    duration = 1200.0
    link = reference_link()
    ca = ClockModel()
    cb = ClockModel()
    alice, bob = generate_streams(duration, link, ca, cb,
                                  pol=reference_polarization(), seed=909)
    probe_offset = 2e-6
    block = BlockStatus(0, seconds_to_ticks(duration), True, probe_offset, 0.0, 99.0,
                        probe_offset)
    state = LockState(mode=LockMode.LOCKED,
                      current=OffsetEstimate(probe_offset, 0.0, 99.0, 0.0),
                      blocks=[block])
    events = extract_coincidences(alice, bob, state)
    rate_a = alice.detector_mask.sum() / duration
    rate_b = bob.detector_mask.sum() / duration
    predicted = rate_a * rate_b * 2.0 * 7e-9
    measured = len(events) / duration
    assert abs(measured - predicted) < 0.10 * predicted


# ---------------------------------------------------------------- criterion 8
# Transport integrity: a loopback session above the nominal tag rate,
# surviving a forced mid-stream disconnect, and byte-identical results
# between the offline and the streamed pipeline.

CRIT8 = pytest.mark.acceptance(8, "transport delivers bit-identical data; online equals offline")


class _BudgetSocket:
    def __init__(self, sock, budget):
        self._sock = sock
        self._budget = budget

    def sendall(self, data):
        if self._budget - len(data) < 0:
            self._sock.close()
            raise ConnectionResetError("budget exhausted")
        self._budget -= len(data)
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@CRIT8
def test_loopback_transport_with_forced_disconnect():
    link = reference_link()
    ca, cb = reference_clocks(relative_offset=0.1)
    alice, _ = generate_streams(30.0, link, ca, cb, seed=55)
    words = encode_words(alice.ticks, alice.channels)
    assert len(words) > 30 * 8500  # more data than the nominal rate needs

    server = ReceiverServer().start()
    budgets = iter([500_000])

    def factory():
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        budget = next(budgets, None)
        return _BudgetSocket(sock, budget) if budget is not None else sock

    try:
        stats = send_words(server.host, server.port, words, Station.ALICE,
                           connect_factory=factory)
        assert server.wait(timeout=20.0)
    finally:
        server.stop()
    assert stats.reconnects == 1
    assert np.array_equal(server.words(), words)
    assert stats.tags_per_second >= 8500.0


@CRIT8
def test_online_pipeline_matches_offline_byte_for_byte(tmp_path):
    link = reference_link()
    ca, cb = reference_clocks(relative_offset=0.3, relative_drift=5e-11)
    alice, bob = generate_streams(12.0, link, ca, cb,
                                  pol=reference_polarization(), seed=56)

    offline_state, offline_events = run_offline(alice, bob)
    write_coincidence_log(tmp_path / "offline.csv", offline_events)
    write_lock_timeline(tmp_path / "offline_timeline.csv", offline_state)

    pipeline = SyncPipeline(alice)
    received: list[np.ndarray] = []
    server = ReceiverServer(on_block=lambda _seq, w: received.append(w))
    server.start()
    try:
        words = encode_words(bob.ticks, bob.channels)
        send_words(server.host, server.port, words, Station.BOB, block_tags=4096)
        assert server.wait(timeout=20.0)
    finally:
        server.stop()
    for w in received:
        ticks, channels = decode_words(w)
        pipeline.feed_bob(ticks, channels)
    pipeline.finish()

    write_coincidence_log(tmp_path / "online.csv", pipeline.coincidences)
    write_lock_timeline(tmp_path / "online_timeline.csv", pipeline.state)
    assert (tmp_path / "online.csv").read_bytes() \
        == (tmp_path / "offline.csv").read_bytes()
    assert (tmp_path / "online_timeline.csv").read_bytes() \
        == (tmp_path / "offline_timeline.csv").read_bytes()
