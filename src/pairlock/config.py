"""Run configuration.

Everything the simulator and correlator need can be expressed in one INI
file; absent keys fall back to the reference link profile, so a config
file only has to name what differs from it. Example:

    [link]
    pair_rate = 96400
    fluctuation_sigma = 0.1

    [clock.bob]
    start_offset = 0.4
    drift_fraction = 5e-11

    [correlator]
    lock_threshold = 5

Dark rates accept either a single per-channel value or four
comma-separated ones.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .simulate import (
    ClockModel,
    LinkDetectorConfig,
    MeasurementSettings,
    PolarizationModel,
    reference_link,
    reference_polarization,
)
from .sync import CorrelatorConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    link: LinkDetectorConfig = field(default_factory=reference_link)
    polarization: PolarizationModel = field(default_factory=reference_polarization)
    settings: MeasurementSettings = field(default_factory=MeasurementSettings)
    clock_alice: ClockModel = field(default_factory=ClockModel)
    clock_bob: ClockModel = field(default_factory=ClockModel)
    correlator: CorrelatorConfig = field(default_factory=CorrelatorConfig)


def _rates(raw: str, key: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if len(values) == 1:
        values = values * 4
    if len(values) != 4:
        raise ConfigError(f"{key} wants one rate or four, got {len(values)}")
    return tuple(values)  # type: ignore[return-value]


def _angles(raw: str, key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError(f"{key} wants four comma-separated angles")
    return tuple(float(p) for p in parts)


def _take(section, key: str, cast, current):
    if section is None or key not in section:
        return current
    try:
        if cast is bool:
            return section.getboolean(key)
        return cast(section[key])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc


def _clock_from(section, base: ClockModel) -> ClockModel:
    return ClockModel(
        start_offset=_take(section, "start_offset", float, base.start_offset),
        drift_fraction=_take(section, "drift_fraction", float, base.drift_fraction),
        phase_noise_sigma=_take(section, "phase_noise_sigma", float,
                                base.phase_noise_sigma),
        gps_jitter_sigma=_take(section, "gps_jitter_sigma", float,
                               base.gps_jitter_sigma),
        gps_enabled=_take(section, "gps_enabled", bool, base.gps_enabled),
    )


def load_run_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    known = {"link", "polarization", "measurement", "clock.alice", "clock.bob",
             "correlator"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")

    defaults = RunConfig()
    sec = {name: parser[name] if parser.has_section(name) else None for name in known}

    base = defaults.link
    link = LinkDetectorConfig(
        pair_rate=_take(sec["link"], "pair_rate", float, base.pair_rate),
        eta_alice=_take(sec["link"], "eta_alice", float, base.eta_alice),
        eta_bob=_take(sec["link"], "eta_bob", float, base.eta_bob),
        dark_rates=(
            _take(sec["link"], "dark_rates_alice",
                  lambda raw: _rates(raw, "dark_rates_alice"),
                  base.alice_dark_rates)
            + _take(sec["link"], "dark_rates_bob",
                    lambda raw: _rates(raw, "dark_rates_bob"),
                    base.bob_dark_rates)
        ),
        background_rate_bob=_take(sec["link"], "background_rate_bob", float,
                                  base.background_rate_bob),
        fluctuation_sigma=_take(sec["link"], "fluctuation_sigma", float,
                                base.fluctuation_sigma),
        jitter_sigma=_take(sec["link"], "jitter_sigma", float, base.jitter_sigma),
    )

    pol_base = defaults.polarization
    polarization = PolarizationModel(
        visibility_hv=_take(sec["polarization"], "visibility_hv", float,
                            pol_base.visibility_hv),
        visibility_pm=_take(sec["polarization"], "visibility_pm", float,
                            pol_base.visibility_pm),
        rotation_error=_take(sec["polarization"], "rotation_error_deg", float,
                             pol_base.rotation_error),
    )

    meas_base = defaults.settings
    settings = MeasurementSettings(
        alice_angles=_take(sec["measurement"], "alice_angles",
                           lambda raw: _angles(raw, "alice_angles"),
                           meas_base.alice_angles),
        bob_angles=_take(sec["measurement"], "bob_angles",
                         lambda raw: _angles(raw, "bob_angles"),
                         meas_base.bob_angles),
        basis_split=_take(sec["measurement"], "basis_split", float,
                          meas_base.basis_split),
    )

    corr_base = defaults.correlator
    correlator = CorrelatorConfig(
        coincidence_window=_take(sec["correlator"], "coincidence_window", float,
                                 corr_base.coincidence_window),
        fine_bin=_take(sec["correlator"], "fine_bin", float, corr_base.fine_bin),
        coarse_bin=_take(sec["correlator"], "coarse_bin", float, corr_base.coarse_bin),
        gps_search_span=_take(sec["correlator"], "gps_search_span", float,
                              corr_base.gps_search_span),
        blind_search_span=_take(sec["correlator"], "blind_search_span", float,
                                corr_base.blind_search_span),
        lock_threshold=_take(sec["correlator"], "lock_threshold", float,
                             corr_base.lock_threshold),
        block_span=_take(sec["correlator"], "block_span", float,
                         corr_base.block_span),
        acquisition_span=_take(sec["correlator"], "acquisition_span", float,
                               corr_base.acquisition_span),
        drift_window=_take(sec["correlator"], "drift_window", int,
                           corr_base.drift_window),
        drop_lock_after=_take(sec["correlator"], "drop_lock_after", int,
                              corr_base.drop_lock_after),
        reacquire_interval=_take(sec["correlator"], "reacquire_interval", int,
                                 corr_base.reacquire_interval),
    )

    return RunConfig(link=link, polarization=polarization, settings=settings,
                     clock_alice=_clock_from(sec["clock.alice"], defaults.clock_alice),
                     clock_bob=_clock_from(sec["clock.bob"], defaults.clock_bob),
                     correlator=correlator)
