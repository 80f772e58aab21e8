"""Every INI key names a field of its section's dataclass."""

from dataclasses import fields

import pytest

from pairlock.config import ConfigError, load_run_config
from pairlock.sync import CorrelatorConfig


@pytest.mark.parametrize("section, line", [
    ("correlator", "lock_treshold = 80"),
    ("clock.bob", "start_ofset = 0.4"),
    ("polarization", "rotation_error = 3"),   # the key is rotation_error_deg
    ("link", "dark_rates = 100"),             # the keys are dark_rates_alice/_bob
])
def test_unknown_key_is_rejected(tmp_path, section, line):
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_run_config(path)


def test_every_correlator_field_is_a_key(tmp_path):
    want = CorrelatorConfig(coincidence_window=6e-9, fine_bin=0.5e-9, coarse_bin=50e-9,
                            gps_search_span=2e-3, blind_search_span=10e-3,
                            lock_threshold=7.0, block_span=0.5, acquisition_span=4.0,
                            drift_window=9, drop_lock_after=2, reacquire_interval=3)
    path = tmp_path / "run.ini"
    path.write_text("[correlator]\n" + "".join(
        f"{f.name} = {getattr(want, f.name)}\n" for f in fields(want)))
    assert load_run_config(path).correlator == want
