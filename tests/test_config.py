import pytest

from pairlock.config import ConfigError, RunConfig, load_run_config
from pairlock.simulate import reference_link


def test_defaults_are_the_reference_profile():
    cfg = RunConfig()
    assert cfg.link == reference_link()
    assert cfg.polarization.rotation_error == 14.5
    assert cfg.correlator.coincidence_window == 7e-9
    assert cfg.correlator.lock_threshold == 5.0


def test_partial_file_overrides_only_named_keys(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[link]\n"
        "pair_rate = 50000\n"
        "fluctuation_sigma = 0.0\n"
        "\n"
        "[clock.bob]\n"
        "start_offset = 0.4\n"
        "drift_fraction = 2e-11\n"
        "\n"
        "[correlator]\n"
        "lock_threshold = 8\n"
        "acquisition_span = 5.0\n")
    cfg = load_run_config(path)
    assert cfg.link.pair_rate == 50000.0
    assert cfg.link.fluctuation_sigma == 0.0
    assert cfg.link.eta_bob == reference_link().eta_bob  # untouched
    assert cfg.clock_bob.start_offset == 0.4
    assert cfg.clock_bob.drift_fraction == 2e-11
    assert cfg.clock_alice.start_offset == 0.0
    assert cfg.correlator.lock_threshold == 8.0
    assert cfg.correlator.acquisition_span == 5.0
    assert cfg.correlator.fine_bin == 1e-9


def test_dark_rate_shorthand(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[link]\n"
        "dark_rates_alice = 100\n"
        "dark_rates_bob = 1, 2, 3, 4\n")
    cfg = load_run_config(path)
    assert cfg.link.alice_dark_rates == (100.0,) * 4
    assert cfg.link.bob_dark_rates == (1.0, 2.0, 3.0, 4.0)


def test_measurement_angles(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[measurement]\n"
        "alice_angles = 0, 90, 45, 135\n"
        "bob_angles = 0, 90, 45, 135\n"
        "basis_split = 0.25\n")
    cfg = load_run_config(path)
    assert cfg.settings.bob_angles == (0.0, 90.0, 45.0, 135.0)
    assert cfg.settings.basis_split == 0.25


def test_gps_can_be_disabled_per_clock(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[clock.alice]\ngps_enabled = no\n")
    cfg = load_run_config(path)
    assert cfg.clock_alice.gps_enabled is False
    assert cfg.clock_bob.gps_enabled is True


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[links]\npair_rate = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[link]\npair_rate = plenty\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("[link]\ndark_rates_bob = 1, 2\n")
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("[measurement]\nalice_angles = 0, 90\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "nope.ini")
