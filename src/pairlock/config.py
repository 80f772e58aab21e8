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

Each key of a section names a field of its dataclass and is cast by the
field's type; an unknown key is an error. Two spellings differ from the
field: rotation_error_deg sets PolarizationModel.rotation_error, and
dark_rates_alice / dark_rates_bob each set one half of
LinkDetectorConfig.dark_rates, as one per-channel value or four
comma-separated ones.
"""

from __future__ import annotations

import configparser
from typing import get_type_hints
from dataclasses import dataclass, field, replace
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


def _four_floats(raw: str, *, shorthand: bool = False) -> tuple[float, ...]:
    """Four comma-separated numbers; with shorthand, one stands for all four."""
    values = tuple(float(p) for p in raw.split(",") if p.strip())
    if shorthand and len(values) == 1:
        values *= 4
    if len(values) != 4:
        raise ConfigError(f"wants {'one or ' if shorthand else ''}four comma-separated "
                          f"values, got {len(values)}")
    return values


# INI section -> RunConfig field.
_SECTIONS = {"link": "link", "polarization": "polarization", "measurement": "settings",
             "clock.alice": "clock_alice", "clock.bob": "clock_bob",
             "correlator": "correlator"}
# Keys that do not name their field: key -> (field, parse(raw, current value)).
_SPECIAL_KEYS = {
    "rotation_error_deg": ("rotation_error", lambda raw, _: float(raw)),
    "dark_rates_alice": ("dark_rates",
                         lambda raw, rates: _four_floats(raw, shorthand=True) + rates[4:]),
    "dark_rates_bob": ("dark_rates",
                       lambda raw, rates: rates[:4] + _four_floats(raw, shorthand=True)),
}


def _cast(section, key: str, hint):
    if hint is bool:
        return section.getboolean(key)
    if hint == tuple[float, float, float, float]:
        return _four_floats(section[key])
    return hint(section[key])


def _updated(parser: configparser.ConfigParser, name: str, base):
    """base with the keys of INI section name applied."""
    if not parser.has_section(name):
        return base
    section = parser[name]
    hints = get_type_hints(type(base))
    special = {key: spec for key, spec in _SPECIAL_KEYS.items() if spec[0] in hints}
    renamed = {field_name for field_name, _ in special.values()}
    changes = {}
    for key in section:
        try:
            if key in special:
                field_name, parse = special[key]
                current = changes.get(field_name, getattr(base, field_name))
                changes[field_name] = parse(section[key], current)
            elif key in hints and key not in renamed:
                changes[key] = _cast(section, key, hints[key])
            else:
                raise ConfigError("unknown key")
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    try:
        return replace(base, **changes)
    except ValueError as exc:  # a value the dataclass refuses
        raise ConfigError(f"[{name}] {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")
    defaults = RunConfig()
    return replace(defaults, **{attr: _updated(parser, name, getattr(defaults, attr))
                                for name, attr in _SECTIONS.items()})
