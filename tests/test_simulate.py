import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pairlock import simulate
from pairlock.simulate import (
    ClockModel,
    InvalidConfigError,
    LinkDetectorConfig,
    MeasurementSettings,
    PolarizationModel,
    _add_normal,
    _sample_marginal_channels,
    _sample_pair_channels_array,
    _sort_words,
    generate_streams,
    joint_outcome_probabilities,
    reference_clocks,
    reference_link,
    reference_polarization,
    relative_offset_at,
)
from pairlock.timetags import MAX_TICKS, Station, encode_words


def test_joint_probabilities_anticorrelated_at_equal_angles():
    pp, pm, mp, mm = joint_outcome_probabilities(0.0, 0.0, 1.0)
    assert pp == pytest.approx(0.0)
    assert mm == pytest.approx(0.0)
    assert pm == pytest.approx(0.5)
    assert mp == pytest.approx(0.5)


def test_joint_probabilities_hand_values():
    # E = -V cos 2(a-b); at 22.5 degrees apart E = -cos(45 deg)
    e = -math.cos(math.radians(45.0))
    pp, pm, mp, mm = joint_outcome_probabilities(0.0, 22.5, 1.0)
    assert pp == pytest.approx((1 + e) / 4)
    assert pm == pytest.approx((1 - e) / 4)
    assert pp + pm + mp + mm == pytest.approx(1.0)
    # V scales the correlation linearly
    pp_half, *_ = joint_outcome_probabilities(0.0, 22.5, 0.5)
    assert pp_half == pytest.approx((1 + e / 2) / 4)
    # 45 degrees apart is uncorrelated
    assert joint_outcome_probabilities(0.0, 45.0, 0.9) == pytest.approx((0.25,) * 4)


def test_polarization_validation():
    with pytest.raises(InvalidConfigError):
        PolarizationModel(visibility_hv=1.2)
    with pytest.raises(InvalidConfigError):
        PolarizationModel(visibility_pm=-0.1)


def test_measurement_settings_require_orthogonal_pairs():
    MeasurementSettings()  # canonical angles are fine
    with pytest.raises(InvalidConfigError):
        MeasurementSettings(alice_angles=(0.0, 80.0, 45.0, 135.0))
    with pytest.raises(InvalidConfigError):
        MeasurementSettings(basis_split=-0.1)


def test_link_config_validation():
    with pytest.raises(InvalidConfigError):
        LinkDetectorConfig(pair_rate=-1.0, eta_alice=0.1, eta_bob=0.1)
    with pytest.raises(InvalidConfigError):
        LinkDetectorConfig(pair_rate=1.0, eta_alice=1.5, eta_bob=0.1)
    with pytest.raises(InvalidConfigError):
        LinkDetectorConfig(pair_rate=1.0, eta_alice=0.1, eta_bob=0.1,
                           dark_rates=(1.0, 2.0))


def test_clock_model_validation():
    ClockModel(start_offset=0.5, drift_fraction=1e-8)
    with pytest.raises(InvalidConfigError):
        ClockModel(drift_fraction=2e-8)
    with pytest.raises(InvalidConfigError):
        ClockModel(start_offset=-0.1)


@pytest.mark.parametrize("field", ["start_offset", "drift_fraction", "phase_noise_sigma",
                                   "gps_jitter_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_clock_model_refuses_non_finite_values(field, value):
    with pytest.raises(InvalidConfigError, match=f"{field} .* is not finite"):
        ClockModel(**{field: value})


@pytest.mark.parametrize("field", ["pair_rate", "eta_bob", "background_rate_bob",
                                   "fluctuation_sigma", "jitter_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_link_config_refuses_non_finite_values(field, value):
    with pytest.raises(InvalidConfigError, match=f"{field} .* is not finite"):
        replace(reference_link(), **{field: value})
    with pytest.raises(InvalidConfigError, match="dark_rates .* is not finite"):
        replace(reference_link(), dark_rates=(0.0,) * 7 + (value,))


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_polarization_and_settings_refuse_non_finite_values(value):
    with pytest.raises(InvalidConfigError, match="rotation_error .* is not finite"):
        PolarizationModel(rotation_error=value)
    with pytest.raises(InvalidConfigError, match="alice_angles .* is not finite"):
        MeasurementSettings(alice_angles=(0.0, 90.0, 45.0, value))


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_generate_streams_refuses_a_bad_duration(duration):
    with pytest.raises(InvalidConfigError, match="duration"):
        generate_streams(duration, reference_link(), *reference_clocks())


def test_clock_mapping_is_affine():
    clock = ClockModel(start_offset=0.5, drift_fraction=1e-8)
    assert clock.local_from_true(0.0) == 0.5
    assert clock.local_from_true(10.0) == pytest.approx(10.5 + 1e-7, abs=1e-15)


def test_relative_offset_hand_case():
    a = ClockModel(start_offset=0.1)
    b = ClockModel(start_offset=0.4, drift_fraction=1e-8)
    # one event seen at Alice-local 0.1 is at true time 0
    assert relative_offset_at(a, b, 0.1) == pytest.approx(0.3, abs=1e-15)
    # ten true seconds later Bob's clock has gained 1e-7
    assert relative_offset_at(a, b, 10.1) == pytest.approx(0.3 + 1e-7, abs=1e-15)


def test_pair_channel_statistics_match_the_formula():
    rng = np.random.default_rng(77)
    settings = MeasurementSettings()
    pol = reference_polarization()
    n = 400_000
    ch_a, ch_b = _sample_pair_channels_array(rng, n, settings, pol)
    basis_a = ch_a // 2
    basis_b = ch_b // 2
    sign = (1 - 2 * (ch_a % 2).astype(int)) * (1 - 2 * (ch_b % 2).astype(int))
    for ia, ib in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        mask = (basis_a == ia) & (basis_b == ib)
        n_sel = int(mask.sum())
        vis = (pol.visibility_hv, pol.visibility_pm)[ia]
        angle_a = settings.alice_angles[2 * ia]
        angle_b = settings.bob_angles[2 * ib] + pol.rotation_error
        expected = -vis * math.cos(2.0 * math.radians(angle_a - angle_b))
        measured = sign[mask].mean()
        sigma = 2.0 / math.sqrt(n_sel)
        assert abs(measured - expected) < 5 * sigma


def test_pair_channel_alice_marginal_is_fair():
    rng = np.random.default_rng(5)
    ch_a, _ = _sample_pair_channels_array(rng, 100_000, MeasurementSettings(),
                                          PolarizationModel())
    counts = np.bincount(ch_a, minlength=4)
    assert counts.sum() == 100_000
    for c in counts:
        assert abs(c - 25_000) < 5 * math.sqrt(25_000)


def test_marginal_channels_uniform_within_basis():
    rng = np.random.default_rng(9)
    ch = _sample_marginal_channels(rng, 80_000, 0.5)
    counts = np.bincount(ch, minlength=4)
    for c in counts:
        assert abs(c - 20_000) < 5 * math.sqrt(20_000)


def test_generate_streams_deterministic():
    link = reference_link()
    ca, cb = reference_clocks(relative_offset=0.2)
    a1, b1 = generate_streams(2.0, link, ca, cb, seed=42)
    a2, b2 = generate_streams(2.0, link, ca, cb, seed=42)
    a3, _ = generate_streams(2.0, link, ca, cb, seed=43)
    assert np.array_equal(a1.ticks, a2.ticks)
    assert np.array_equal(a1.channels, a2.channels)
    assert np.array_equal(b1.ticks, b2.ticks)
    assert not np.array_equal(a1.ticks, a3.ticks)
    assert a1.station is Station.ALICE
    assert b1.station is Station.BOB


def test_generate_streams_rates():
    # no per-second fluctuation, so plain Poisson errors apply
    link = reference_link(fluctuation_sigma=0.0)
    ca, cb = reference_clocks(relative_offset=0.3)
    duration = 20.0
    alice, bob = generate_streams(duration, link, ca, cb, seed=8)
    n_a = int(alice.detector_mask.sum())
    n_b = int(bob.detector_mask.sum())
    expect_a = (link.pair_rate * link.eta_alice + sum(link.alice_dark_rates)) * duration
    expect_b = (link.pair_rate * link.eta_bob + sum(link.bob_dark_rates)
                + link.background_rate_bob) * duration
    assert abs(n_a - expect_a) < 5 * math.sqrt(expect_a)
    assert abs(n_b - expect_b) < 5 * math.sqrt(expect_b)


def test_gps_markers_sit_on_integer_seconds():
    link = reference_link()
    ca = ClockModel(start_offset=0.5)
    cb = ClockModel(start_offset=0.8, drift_fraction=1e-9)
    alice, bob = generate_streams(5.0, link, ca, cb, seed=4)
    ma = alice.marker_seconds()
    mb = bob.marker_seconds()
    assert len(ma) == 6  # seconds 0..5
    assert len(mb) == 6
    for n, t in enumerate(ma):
        assert abs(t - (n + 0.5)) < 5 * 50e-9
    for n, t in enumerate(mb):
        assert abs(t - ((1 + 1e-9) * n + 0.8)) < 5 * 50e-9


def test_gps_markers_can_be_disabled():
    link = reference_link()
    ca, cb = reference_clocks(gps_enabled=False)
    alice, bob = generate_streams(2.0, link, ca, cb, seed=4)
    assert len(alice.marker_seconds()) == 0
    assert len(bob.marker_seconds()) == 0


def test_fluctuation_keeps_the_mean_rate():
    # the per-second factor is mean-one by construction; a biased
    # normalization (e.g. exp(N(0, sigma))) would inflate counts by 13%
    # at sigma = 0.5, far outside the band checked here
    link = LinkDetectorConfig(pair_rate=1000.0, eta_alice=0.5, eta_bob=0.5,
                              fluctuation_sigma=0.5)
    ca, cb = reference_clocks()
    total = 0
    n_seeds = 30
    duration = 20.0
    for seed in range(n_seeds):
        _, bob = generate_streams(duration, link, ca, cb, seed=seed)
        total += int(bob.detector_mask.sum())
    expected = 1000.0 * 0.5 * duration * n_seeds
    # per-slice variance: Poisson lambda plus lambda^2 (e^{sigma^2} - 1)
    lam = 500.0
    var = n_seeds * duration * (lam + lam * lam * (math.exp(0.25) - 1.0))
    assert abs(total - expected) < 5 * math.sqrt(var)


def test_duration_must_be_positive():
    link = reference_link()
    ca, cb = reference_clocks()
    with pytest.raises(InvalidConfigError):
        generate_streams(0.0, link, ca, cb, seed=1)


def test_reference_profile_figures():
    link = reference_link()
    # receiver singles budget: 7200/s of which 5850/s is not pair light
    assert link.pair_rate * link.eta_bob == pytest.approx(1349.6)
    assert sum(link.bob_dark_rates) + link.background_rate_bob == 5850.0
    # about 83 true pairs per second reach both detectors
    assert link.pair_rate * link.eta_alice * link.eta_bob == pytest.approx(83.0, abs=0.1)


def _streams_digest(alice, bob):
    h = hashlib.sha256()
    for stream in (alice, bob):
        h.update(stream.ticks.astype("<i8").tobytes())
        h.update(stream.channels.tobytes())
    return h.hexdigest()


def _tie_heavy_streams():
    # No jitter or phase noise and over 5e5 tags/s per station: 44 pairs of
    # neighbours share a tick, 19 with the later-drawn tag on a lower channel.
    link = replace(reference_link(), pair_rate=1e6, eta_alice=0.5, eta_bob=0.5,
                   jitter_sigma=0.0)
    ca = ClockModel(phase_noise_sigma=0.0)
    cb = ClockModel(start_offset=0.25, phase_noise_sigma=0.0)
    return generate_streams(1.0, link, ca, cb, None, reference_polarization(), seed=3)


# sha256 over both stations' little-endian ticks and channels, recorded
# when the simulator still argsorted ticks; the word sort must match them.
@pytest.mark.parametrize("case, digest", [
    ("reference", "c4bc107e54e3481bfd6a0bb5e73fa05d2380a559e256270aa92267e4b104697d"),
    ("high_rate", "b5f7dde9e8f52543f1b92e72a2cdeb522d72a2eee577e895df2313fde208b23e"),
    ("blind", "9600fff7d754eac6d67b052103e7c9b38edd83c7c0955fa5afb69f96af049e22"),
    ("tie_heavy", "727646730cb0b6a8b7ab1c34ddb8582a007fbe9c8e809d1630f59367112da6d9"),
])
def test_generate_streams_pinned(case, digest):
    pol = reference_polarization()
    ca, cb = reference_clocks(relative_offset=0.3)
    if case == "reference":
        streams = generate_streams(20.0, reference_link(), ca, cb, None, pol, seed=5)
    elif case == "high_rate":
        link = replace(reference_link(), pair_rate=1e6)
        streams = generate_streams(4.0, link, ca, cb, None, pol, seed=1)
    elif case == "blind":
        link = replace(reference_link(), eta_bob=0.010)
        ca, cb = reference_clocks(relative_offset=0.012, gps_enabled=False)
        streams = generate_streams(10.0, link, ca, cb, None, pol, seed=5)
    else:
        streams = _tie_heavy_streams()
    assert _streams_digest(*streams) == digest


def test_tie_heavy_streams_keep_draw_order_within_a_tick():
    # The pinned tie-heavy case only guards the tie rule if some tick holds
    # tags whose draw order is not channel order.
    falling = 0
    for stream in _tie_heavy_streams():
        tied = np.flatnonzero(stream.ticks[1:] == stream.ticks[:-1])
        falling += int(np.sum(stream.channels[tied + 1] < stream.channels[tied]))
    assert falling > 0


def _stable_words(ticks, channels):
    order = np.argsort(ticks, kind="stable")
    return encode_words(ticks[order], channels[order])


@pytest.mark.parametrize("ticks, channels", [
    ([], []),
    ([7], [2]),
    ([5] * 9, [3, 0, 15, 2, 1, 0, 3, 15, 1]),
    ([4, 2, 4, 2, 0, 4], [15, 3, 0, 1, 2, 3]),
    ([MAX_TICKS - 1, 9, MAX_TICKS - 1, 1 << 59, 1 << 59], [15, 0, 0, 3, 1]),
])
def test_sort_words_keeps_input_order_within_a_tick(ticks, channels):
    ticks = np.array(ticks, dtype=np.int64)
    channels = np.array(channels, dtype=np.uint8)
    words = encode_words(ticks, channels)
    before = words.copy()
    assert np.array_equal(_sort_words(words), _stable_words(ticks, channels))
    assert np.array_equal(words, before)


def test_sort_words_matches_a_stable_argsort_on_tie_heavy_input(monkeypatch):
    # A 7-tag scan chunk puts many ties across chunk edges.
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    rng = np.random.default_rng(11)
    codes = np.array([0, 1, 2, 3, 15], dtype=np.uint8)
    for _ in range(200):
        n = int(rng.integers(0, 300))
        ticks = rng.integers(0, int(rng.integers(1, 60)), n)
        channels = codes[rng.integers(0, len(codes), n)]
        words = encode_words(ticks, channels)
        assert np.array_equal(_sort_words(words), _stable_words(ticks, channels))


def test_add_normal_draws_what_rng_normal_draws(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    values = np.random.default_rng(2).random(100) * 50.0
    expected = values + np.random.default_rng(3).normal(0.0, 1e-9, len(values))
    _add_normal(np.random.default_rng(3), values, 1e-9)
    assert np.array_equal(values, expected)
