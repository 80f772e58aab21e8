"""Poisson-process simulation of an entangled pair source with two
free-running receiver stations.

The source emits polarization-entangled pairs. Alice keeps one photon
locally, the other crosses a lossy link to Bob. Each station carries a
four-output analyzer (two measurement bases, one orthogonal pair per
basis), dark counts per detector, and its own clock with start offset,
fractional rate error, and per-tag phase noise. A GPS receiver can inject
a jittered once-per-second marker tag into each stream.

Emission times are homogeneous Poisson per one-second slice; the link
efficiency is modulated per slice by a mean-one log-normal factor, which
reproduces the strong turbulence-style fluctuations of a free-space
channel without biasing long-run rates. Pairs are thinned analytically
into three independent processes (both detected, Alice only, Bob only),
so undetected emissions are never materialized.

Everything is driven by one numpy Generator, so a (seed, config) pair
reproduces streams bit-exactly. Each station's tags are packed into tag
words and sorted once; tags that share a tick keep the order in which
they were drawn (_sort_words).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .timetags import MAX_TICKS, TICKS_PER_SECOND, ChannelCode, Station, TagStream

MAX_DRIFT_FRACTION = 1e-8
# Tags per noise draw or tie scan: a chunk's temporaries stay small
# however long the run.
_CHUNK = 1 << 18
_TICK_SHIFT = np.uint64(4)


class InvalidConfigError(ValueError):
    """A simulation parameter is out of its physical range."""


@dataclass(frozen=True)
class PolarizationModel:
    """Source state quality and receiver-side alignment error.

    visibility_hv / visibility_pm are the two-photon interference
    visibilities in the two analyzer bases. rotation_error is a rigid
    polarization rotation (degrees) applied to Bob's analyzer, standing in
    for uncompensated rotation along the link.
    """

    visibility_hv: float = 0.96
    visibility_pm: float = 0.90
    rotation_error: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.visibility_hv, self.visibility_pm):
            if not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"visibility {v} outside [0, 1]")


@dataclass(frozen=True)
class MeasurementSettings:
    """Analyzer angles (degrees) and the passive basis-choice split.

    Angle index equals channel code: channels 0/1 are the orthogonal
    outputs of the first basis, 2/3 of the second. basis_split is the
    probability that a photon takes the first basis.
    """

    alice_angles: tuple[float, float, float, float] = (0.0, 90.0, 45.0, 135.0)
    bob_angles: tuple[float, float, float, float] = (22.5, 112.5, 67.5, 157.5)
    basis_split: float = 0.5

    def __post_init__(self) -> None:
        for angles in (self.alice_angles, self.bob_angles):
            if len(angles) != 4:
                raise InvalidConfigError("four analyzer angles required per station")
            for lo, hi in ((0, 1), (2, 3)):
                if (angles[hi] - angles[lo]) % 180.0 != 90.0:
                    raise InvalidConfigError(
                        f"angles {angles[lo]} and {angles[hi]} are not orthogonal")
        if not 0.0 <= self.basis_split <= 1.0:
            raise InvalidConfigError(f"basis_split {self.basis_split} outside [0, 1]")


@dataclass(frozen=True)
class LinkDetectorConfig:
    """Pair rate, arm efficiencies, and spurious-count rates.

    dark_rates lists counts/s for the eight detectors, Alice channels 0..3
    then Bob channels 0..3. background_rate_bob is unpolarized stray light
    at Bob, spread uniformly over his four channels. fluctuation_sigma is
    the standard deviation of the log of the per-second link transmission
    factor. jitter_sigma is per-detection Gaussian timing jitter.
    """

    pair_rate: float
    eta_alice: float
    eta_bob: float
    dark_rates: tuple[float, ...] = (0.0,) * 8
    background_rate_bob: float = 0.0
    fluctuation_sigma: float = 0.5
    jitter_sigma: float = 1e-9

    def __post_init__(self) -> None:
        if self.pair_rate < 0:
            raise InvalidConfigError(f"pair_rate {self.pair_rate} is negative")
        for eta in (self.eta_alice, self.eta_bob):
            if not 0.0 <= eta <= 1.0:
                raise InvalidConfigError(f"efficiency {eta} outside [0, 1]")
        if len(self.dark_rates) != 8:
            raise InvalidConfigError("dark_rates needs eight per-channel entries")
        if any(r < 0 for r in self.dark_rates):
            raise InvalidConfigError("dark rates must be non-negative")
        if self.background_rate_bob < 0:
            raise InvalidConfigError("background rate must be non-negative")
        if self.fluctuation_sigma < 0 or self.jitter_sigma < 0:
            raise InvalidConfigError("sigmas must be non-negative")

    @property
    def alice_dark_rates(self) -> tuple[float, ...]:
        return self.dark_rates[:4]

    @property
    def bob_dark_rates(self) -> tuple[float, ...]:
        return self.dark_rates[4:]


@dataclass(frozen=True)
class ClockModel:
    """Local clock of one station relative to ideal time.

    local = (1 + drift_fraction) * true + start_offset, plus per-tag phase
    noise. GPS markers are laid down at true integer seconds with their
    own jitter.
    """

    start_offset: float = 0.0
    drift_fraction: float = 0.0
    phase_noise_sigma: float = 0.2e-9
    gps_jitter_sigma: float = 50e-9
    gps_enabled: bool = True

    def __post_init__(self) -> None:
        if abs(self.drift_fraction) > MAX_DRIFT_FRACTION:
            raise InvalidConfigError(
                f"drift_fraction {self.drift_fraction} exceeds {MAX_DRIFT_FRACTION}")
        if self.start_offset < 0:
            raise InvalidConfigError("start_offset must be non-negative")
        if self.phase_noise_sigma < 0 or self.gps_jitter_sigma < 0:
            raise InvalidConfigError("sigmas must be non-negative")

    def local_from_true(self, t):
        return (1.0 + self.drift_fraction) * t + self.start_offset


def relative_offset_at(clock_alice: ClockModel, clock_bob: ClockModel, t_alice):
    """True Bob-minus-Alice clock offset at a given Alice-local time.

    This is the quantity a synchronizer estimates: for one physical event
    seen at Alice-local time t, the Bob-local reading differs by this much.
    """
    t_true = (np.asarray(t_alice) - clock_alice.start_offset) / (1.0 + clock_alice.drift_fraction)
    delta = clock_bob.start_offset - clock_alice.start_offset
    return delta + (clock_bob.drift_fraction - clock_alice.drift_fraction) * t_true


def joint_outcome_probabilities(angle_alice: float, angle_bob: float,
                                visibility: float) -> tuple[float, float, float, float]:
    """Outcome probabilities (pp, pm, mp, mm) for one analyzer pair.

    For the singlet state with interference visibility V the correlation
    is E = -V cos 2(a - b) and each joint probability is (1 + s_a s_b E)/4
    with s = +1 for the named-angle output and -1 for the orthogonal one.
    """
    e = -visibility * math.cos(2.0 * math.radians(angle_alice - angle_bob))
    same = (1.0 + e) / 4.0
    diff = (1.0 - e) / 4.0
    return (same, diff, diff, same)


def _sample_pair_channels_array(rng: np.random.Generator, n: int,
                                settings: MeasurementSettings,
                                pol: PolarizationModel) -> tuple[np.ndarray, np.ndarray]:
    """Channel codes for n detected pairs.

    Basis choices are independent per station; Bob's angle picks up the
    rotation error. The joint outcome is sampled as a fair Alice marginal
    followed by the conditional agreement probability (1 + E)/2, which is
    equivalent to the full joint distribution.
    """
    first_a = rng.random(n) < settings.basis_split
    first_b = rng.random(n) < settings.basis_split
    angle_a = np.where(first_a, settings.alice_angles[0], settings.alice_angles[2])
    angle_b = np.where(first_b, settings.bob_angles[0], settings.bob_angles[2])
    angle_b = angle_b + pol.rotation_error
    vis = np.where(first_a, pol.visibility_hv, pol.visibility_pm)
    e = -vis * np.cos(2.0 * np.radians(angle_a - angle_b))
    out_a = rng.integers(0, 2, n).astype(np.uint8)
    agree = rng.random(n) < (1.0 + e) / 2.0
    out_b = np.where(agree, out_a, 1 - out_a).astype(np.uint8)
    ch_a = (np.where(first_a, 0, 2) + out_a).astype(np.uint8)
    ch_b = (np.where(first_b, 0, 2) + out_b).astype(np.uint8)
    return ch_a, ch_b


def _sample_marginal_channels(rng: np.random.Generator, n: int,
                              basis_split: float) -> np.ndarray:
    """Channels for photons whose partner went undetected (uniform within
    each basis; the singlet marginal carries no polarization information)."""
    first = rng.random(n) < basis_split
    out = rng.integers(0, 2, n).astype(np.uint8)
    out += np.where(first, np.uint8(0), np.uint8(2))
    return out


def _poisson_times(rng: np.random.Generator, rates: np.ndarray,
                   slice_lengths: np.ndarray) -> np.ndarray:
    """Event times for a piecewise-constant-rate Poisson process.

    rates[i] applies over the i-th slice; times are uniform within each
    slice. Unsorted output: _station_stream sorts each station's tags once.
    """
    counts = rng.poisson(rates * slice_lengths)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    t = rng.random(total)
    t *= np.repeat(slice_lengths, counts)
    t += np.repeat(np.arange(len(counts), dtype=np.float64), counts)
    return t


def _constant_rate_times(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    n = rng.poisson(rate * duration)
    t = rng.random(n)
    t *= duration
    return t


def generate_streams(duration: float,
                     link: LinkDetectorConfig,
                     clock_alice: ClockModel,
                     clock_bob: ClockModel,
                     settings: MeasurementSettings | None = None,
                     pol: PolarizationModel | None = None,
                     *,
                     seed: int = 0) -> tuple[TagStream, TagStream]:
    """Simulate both stations' tag streams for one run.

    Returns (alice, bob) TagStreams in each station's local clock. Tags
    that would land before a station's counter start (negative local time)
    are dropped.
    """
    if duration <= 0:
        raise InvalidConfigError(f"duration {duration} must be positive")
    settings = settings or MeasurementSettings()
    pol = pol or PolarizationModel()
    rng = np.random.default_rng(seed)

    n_slices = max(1, math.ceil(duration))
    slice_lengths = np.full(n_slices, 1.0)
    slice_lengths[-1] = duration - (n_slices - 1)

    if link.fluctuation_sigma > 0:
        sigma = link.fluctuation_sigma
        factor = np.exp(rng.normal(-0.5 * sigma * sigma, sigma, n_slices))
    else:
        factor = np.ones(n_slices)
    eta_b = np.clip(link.eta_bob * factor, 0.0, 1.0)
    eta_a = link.eta_alice

    t_pairs = _poisson_times(rng, link.pair_rate * eta_a * eta_b, slice_lengths)
    t_alice_only = _poisson_times(rng, link.pair_rate * eta_a * (1.0 - eta_b), slice_lengths)
    t_bob_only = _poisson_times(rng, link.pair_rate * (1.0 - eta_a) * eta_b, slice_lengths)

    ch_pair_a, ch_pair_b = _sample_pair_channels_array(rng, len(t_pairs), settings, pol)
    # Only these lists hold the drawn arrays, so _station_stream can free
    # each station's share before it sorts.
    alice_times = [t_pairs, t_alice_only]
    alice_channels = [ch_pair_a, _sample_marginal_channels(rng, len(t_alice_only),
                                                           settings.basis_split)]
    bob_times = [t_pairs, t_bob_only]
    bob_channels = [ch_pair_b, _sample_marginal_channels(rng, len(t_bob_only),
                                                         settings.basis_split)]
    del t_pairs, t_alice_only, t_bob_only, ch_pair_a, ch_pair_b

    for ch, rate in enumerate(link.alice_dark_rates):
        alice_times.append(_constant_rate_times(rng, rate, duration))
        alice_channels.append(np.full(len(alice_times[-1]), ch, dtype=np.uint8))
    for ch, rate in enumerate(link.bob_dark_rates):
        bob_times.append(_constant_rate_times(rng, rate, duration))
        bob_channels.append(np.full(len(bob_times[-1]), ch, dtype=np.uint8))
    bob_times.append(_constant_rate_times(rng, link.background_rate_bob, duration))
    bob_channels.append(rng.integers(0, 4, len(bob_times[-1])).astype(np.uint8))

    alice = _station_stream(rng, Station.ALICE, clock_alice, link.jitter_sigma,
                            duration, alice_times, alice_channels)
    bob = _station_stream(rng, Station.BOB, clock_bob, link.jitter_sigma,
                          duration, bob_times, bob_channels)
    return alice, bob


def _add_normal(rng: np.random.Generator, values: np.ndarray, sigma: float) -> None:
    """Add N(0, sigma) noise to values in place, a chunk of draws at a time.

    The draws and sums are those of values + rng.normal(0.0, sigma,
    len(values)), without a whole-run noise array.
    """
    buf = np.empty(min(len(values), _CHUNK))
    for i in range(0, len(values), _CHUNK):
        noise = buf[:len(values) - i]
        rng.standard_normal(out=noise)
        noise *= sigma
        values[i:i + len(noise)] += noise


def _station_stream(rng: np.random.Generator, station: Station, clock: ClockModel,
                    jitter_sigma: float, duration: float,
                    times: list[np.ndarray], channels: list[np.ndarray]) -> TagStream:
    """One station's tags in its local clock, sorted by tick.

    Detection times get timing jitter, the clock map and phase noise; GPS
    markers at true integer seconds get the clock map and their own
    jitter. Tags before the counter start (negative local time) are
    dropped; the rest are rounded to ticks, packed into tag words and
    sorted once with _sort_words. times and channels are emptied once
    copied.
    """
    n = sum(len(t) for t in times)
    n_markers = math.floor(duration) + 1 if clock.gps_enabled else 0
    local = np.empty(n + n_markers)
    ch = np.empty(n + n_markers, dtype=np.uint8)
    np.concatenate(times, out=local[:n])
    np.concatenate(channels, out=ch[:n])
    times.clear()
    channels.clear()
    local[n:] = np.arange(n_markers)
    ch[n:] = int(ChannelCode.GPS_MARKER)
    if jitter_sigma > 0:
        _add_normal(rng, local[:n], jitter_sigma)
    # clock.local_from_true, in place
    local *= 1.0 + clock.drift_fraction
    local += clock.start_offset
    if clock.phase_noise_sigma > 0:
        _add_normal(rng, local[:n], clock.phase_noise_sigma)
    if clock.gps_jitter_sigma > 0:
        _add_normal(rng, local[n:], clock.gps_jitter_sigma)
    keep = local >= 0.0
    if not keep.all():
        local, ch = local[keep], ch[keep]
    local *= TICKS_PER_SECOND
    # Doubles from 2**52 up are whole, so this bounds the rounded ticks.
    if len(local) and local.max() >= MAX_TICKS:
        raise ValueError("tick values outside the 60-bit range")
    # Round to ticks and pack the tag words in the same buffer.
    words = local.view(np.uint64)
    np.rint(local, out=words, casting="unsafe")
    words <<= _TICK_SHIFT
    words |= ch
    words = _sort_words(words)
    # Unpack: the low byte ends in the channel nibble.
    ch = words.astype(np.uint8)
    ch &= 0xF
    words >>= _TICK_SHIFT
    return TagStream(station, words.view(np.int64), ch)


def _sort_words(words: np.ndarray) -> np.ndarray:
    """Sort tag words by tick; tags that share a tick keep their input order.

    Word order is tick order, but np.sort breaks a tie by channel code.
    Ticks shared by differing words are rare (a few per million tags at
    the reference rates), so only those groups are found in the input
    and written back in input order.
    """
    out = np.sort(words)
    ticks = _mixed_tie_ticks(out)
    if len(ticks):
        lo = np.searchsorted(out, ticks << _TICK_SHIFT)
        hi = np.searchsorted(out, (ticks << _TICK_SHIFT) | np.uint64(0xF), side="right")
        at = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        tied = out[at]
        # A table over the low 16 bits of the tied words picks candidates
        # in one pass; the exact test runs on those few.
        table = np.zeros(1 << 16, dtype=bool)
        table[tied.astype(np.uint16)] = True
        drawn = words[table[words.astype(np.uint16)]]
        drawn = drawn[np.isin(drawn, tied)]
        # Stable by tick: each group in input order, groups in tick order.
        out[at] = drawn[np.argsort(drawn >> _TICK_SHIFT, kind="stable")]
    return out


def _mixed_tie_ticks(words: np.ndarray) -> np.ndarray:
    """The ticks that more than one distinct word holds, in sorted words."""
    ties = [np.empty(0, dtype=words.dtype)]
    for i in range(0, len(words) - 1, _CHUNK):
        seg = words[i:i + _CHUNK + 1]
        # Below 16 exactly where neighbours share a tick.
        x = seg[1:] ^ seg[:-1]
        near = np.flatnonzero(x < 16)
        ties.append(seg[near[x[near] != 0]])
    return np.unique(np.concatenate(ties) >> _TICK_SHIFT)


# Reference operating point: a metropolitan free-space link budget with
# 7200/s receiver singles (5850/s of them spurious), 1.4% link efficiency,
# and about 84 coincidences per second inside a +-7 ns window. The
# rotation error is set so the receiver-side visibility analyzes to 0.80.

REFERENCE_PAIR_RATE = 96_400.0
REFERENCE_ETA_ALICE = 0.0615
REFERENCE_ETA_BOB = 0.014
REFERENCE_ALICE_DARK = 1200.0
REFERENCE_BOB_DARK = 800.0
REFERENCE_BOB_BACKGROUND = 2650.0
REFERENCE_ROTATION_ERROR = 14.5


def reference_link(fluctuation_sigma: float = 0.1) -> LinkDetectorConfig:
    """Link budget of the reference operating point.

    The default per-second fluctuation is modest so that long runs stay
    near the nominal coincidence rate; raise it to stress lock tracking.
    """
    return LinkDetectorConfig(
        pair_rate=REFERENCE_PAIR_RATE,
        eta_alice=REFERENCE_ETA_ALICE,
        eta_bob=REFERENCE_ETA_BOB,
        dark_rates=(REFERENCE_ALICE_DARK,) * 4 + (REFERENCE_BOB_DARK,) * 4,
        background_rate_bob=REFERENCE_BOB_BACKGROUND,
        fluctuation_sigma=fluctuation_sigma,
        jitter_sigma=1e-9,
    )


def reference_polarization() -> PolarizationModel:
    return PolarizationModel(visibility_hv=0.96, visibility_pm=0.90,
                             rotation_error=REFERENCE_ROTATION_ERROR)


def reference_clocks(relative_offset: float = 0.0,
                     relative_drift: float = 5e-11,
                     gps_enabled: bool = True) -> tuple[ClockModel, ClockModel]:
    """Clock pair with a given Bob-minus-Alice start offset and drift.

    Offsets are kept non-negative by pushing the sign onto whichever
    station started later.
    """
    offset_a = max(0.0, -relative_offset)
    offset_b = max(0.0, relative_offset)
    clock_a = ClockModel(start_offset=offset_a, gps_enabled=gps_enabled)
    clock_b = ClockModel(start_offset=offset_b, drift_fraction=relative_drift,
                         gps_enabled=gps_enabled)
    return clock_a, clock_b
