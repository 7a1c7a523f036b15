import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrepeater.params import (ConfigError, build_parameter_set,
                               default_parameters, fwhm_to_sigma, load_config,
                               parse_config_text, parse_quantity,
                               to_dict, validate, with_physical)

TWO_PI = 2 * math.pi
REMOVED_KEYS = ("B_x", "g_e", "g_h", "omega_Z_nuclear", "Delta_OH_max")


# ---------------------------------------------------------------- parsing

def test_angular_key_with_2pi_prefix():
    value = parse_quantity("gamma_r", '"2pi*0.59 GHz"')
    assert value == pytest.approx(TWO_PI * 0.59e9, rel=1e-12)
    assert value == pytest.approx(3.7070e9, rel=1e-4)


def test_angular_key_plain_frequency_is_multiplied_by_2pi():
    assert parse_quantity("kappa", "100 GHz") == pytest.approx(TWO_PI * 100e9)


def test_angular_key_rad_per_s_taken_verbatim():
    assert parse_quantity("gamma_r", "3.5e9 rad/s") == 3.5e9


def test_plain_frequency_key_has_no_hidden_2pi():
    assert parse_quantity("sigma_Q", '"50 kHz"') == 5.0e4
    assert parse_quantity("D_dark", "31 GHz") == 31e9


def test_2pi_prefix_on_plain_key_is_explicit_multiplier():
    assert parse_quantity("sigma_Q", "2pi*50 kHz") == pytest.approx(TWO_PI * 5e4)


def test_missing_unit_on_frequency_key_rejected():
    with pytest.raises(ConfigError, match="unit suffix"):
        parse_quantity("gamma_r", "0.59")


@pytest.mark.parametrize("key,text,expected", [
    ("T_readout", "600 ns", 600e-9),
    ("tau_init", "0.2 us", 0.2e-6),
    ("T2_electron", "50 us", 50e-6),
    ("L_att", "25 km", 25e3),
    ("L_total", "1000 km", 1000e3),
    ("eta_d", "0.9", 0.9),
    ("n_nest", "3", 3.0),
])
def test_unit_table(key, text, expected):
    assert parse_quantity(key, text) == pytest.approx(expected, rel=1e-12)


def test_negative_and_scientific_values_parse():
    assert parse_quantity("detuning", "-275 GHz") == \
        pytest.approx(-TWO_PI * 275e9, rel=1e-12)
    assert parse_quantity("F_res", "-7.6e-2") == pytest.approx(-0.076, rel=1e-12)
    assert parse_quantity("sigma_Q", "5e4 Hz") == 5e4


def test_unknown_key_rejected():
    # a typo, and the keys that were dropped because no computation read them
    for key in ("gamma_typo", *REMOVED_KEYS):
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_config_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown parameter"):
            default_parameters(overrides=[f"{key}=1"])


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("eta_d = 0.9\neta_d = 0.8\n")


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_prefix_is_redundant_on_angular_keys(x):
    plain = parse_quantity("detuning", f"{x} MHz")
    prefixed = parse_quantity("detuning", f"2pi*{x} MHz")
    assert plain == pytest.approx(prefixed, rel=1e-12)
    assert plain == pytest.approx(TWO_PI * x * 1e6, rel=1e-12)


# ---------------------------------------------------------------- loading

def test_empty_file_gives_full_default_set(tmp_path, params):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    loaded = load_config(str(cfg))
    assert loaded.physical == params.physical
    assert loaded.link == params.link


def test_load_with_values_and_comments(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(
        "# example\n"
        'gamma_r = "2pi*0.59 GHz"\n'
        "eta_d = 0.85   # inline comment\n"
        "L_total = 500 km\n")
    ps = load_config(str(cfg))
    assert ps.physical.gamma_r == pytest.approx(TWO_PI * 0.59e9)
    assert ps.link.eta_d == 0.85
    assert ps.link.L_total == 500e3
    assert "a.cfg" in ps.provenance["eta_d"]
    assert ps.provenance["kappa"].startswith("default")


def test_out_of_range_efficiency_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eta_d = 1.3\n")
    with pytest.raises(ConfigError, match="eta_d"):
        load_config(str(cfg))


def test_cli_override_applied_after_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("eta_d = 0.8\n")
    ps = load_config(str(cfg),
                     overrides=["eta_d=0.6", "eta_d=0.7", "F_res=200"])
    assert ps.link.eta_d == 0.7
    assert ps.physical.F_res == 200.0
    assert ps.provenance["eta_d"] == "cli override"


def test_gamma_star_derived_from_linewidth():
    ps = default_parameters()
    expected = (TWO_PI * 0.64e9 - TWO_PI * 0.59e9) / 2
    assert ps.physical.gamma_star == expected
    assert ps.provenance["gamma_star"] == \
        "derived: (Gamma - gamma_r - gamma_nr)/2"


# gamma_star as loaded before Gamma stopped being a stored key, as float.hex
@pytest.mark.parametrize("overrides, gamma_star", [
    ([], "0x1.2b9b0a15be618p+27"),
    (["Gamma=2pi*0.7 GHz"], "0x1.4990f17e516acp+28"),
    (["gamma_r=2pi*0.5 GHz"], "0x1.a372a7b80a880p+28"),
    (["Gamma=2pi*0.7 GHz", "gamma_r=2pi*0.45 GHz", "gamma_nr=2pi*30 MHz"],
     "0x1.4990f17e516acp+29"),
    (["Gamma=4.2e9 rad/s"], "0x1.d615f5cc39868p+27"),
])
def test_gamma_spelling_derives_gamma_star_bit_for_bit(overrides, gamma_star):
    ps = default_parameters(overrides)
    assert ps.physical.gamma_star.hex() == gamma_star
    assert "Gamma" not in to_dict(ps) and "Gamma" not in ps.provenance


def test_gamma_override_provenance_names_its_source():
    ps = default_parameters(["Gamma=2pi*0.7 GHz"])
    assert ps.provenance["gamma_star"] == \
        "cli override (derived: (Gamma - gamma_r - gamma_nr)/2)"


def test_explicit_gamma_star_is_stored_as_given():
    ps = build_parameter_set({"gamma_star": "2pi*0.05 GHz",
                              "gamma_r": "2pi*0.5 GHz"})
    assert ps.physical.gamma_star == TWO_PI * 0.05e9
    assert ps.provenance["gamma_star"] == "config"


def test_gamma_and_gamma_star_together_are_refused():
    with pytest.raises(ConfigError, match="give either gamma_star or Gamma"):
        build_parameter_set({"Gamma": "2pi*0.64 GHz",
                             "gamma_star": "2pi*25 MHz"})


def test_sigma_sd_fwhm_alias():
    ps = build_parameter_set({"sigma_sd_fwhm": "2pi*500 MHz"})
    assert ps.physical.sigma_sd == pytest.approx(
        TWO_PI * 500e6 / (2 * math.sqrt(2 * math.log(2))), rel=1e-12)
    with pytest.raises(ConfigError, match="not both"):
        build_parameter_set({"sigma_sd_fwhm": "2pi*500 MHz",
                             "sigma_sd": "2pi*212 MHz"})


def test_eta_s_follows_explicit_p_emit():
    ps = build_parameter_set({"p_emit": "0.5"})
    assert ps.link.eta_s == 0.5
    ps2 = build_parameter_set({"p_emit": "0.5", "eta_s": "0.65"})
    assert ps2.link.eta_s == 0.65


@pytest.mark.parametrize("key,text", [
    ("kappa", "1e300 GHz"), ("sigma_sd", "1e300 GHz"), ("sigma_Q", "1e309 Hz"),
    ("L_total", "1e306 km"), ("T2_electron", "1e309"), ("F_res", "1e999")])
def test_value_not_finite_in_stored_units_is_refused(key, text):
    # a literal that overflows float64, on its own or after unit conversion
    with pytest.raises(ConfigError, match="is not finite in stored units"):
        parse_quantity(key, text)


# ---------------------------------------------------------------- validate

def test_defaults_validate_clean(params):
    report = validate(params)
    assert report.ok
    assert report.violations == []


def test_negative_polarization_is_one_violation(params):
    bad = with_physical(params, nuclear_polarization=-0.1)
    report = validate(bad)
    assert len(report.violations) == 1
    assert "nuclear_polarization" in report.violations[0]


def test_changed_emitter_rate_still_validates(params):
    # no stored linewidth is left behind to disagree with gamma_r
    assert validate(with_physical(params, gamma_r=TWO_PI * 0.3e9)).ok


def test_linewidth_below_the_decay_rates_is_one_range_violation():
    with pytest.raises(ConfigError) as err:
        default_parameters(["Gamma=2pi*0.5 GHz"])
    assert str(err.value).startswith(
        "invalid parameters: gamma_star must lie in [0, inf], got -")
    assert ";" not in str(err.value)


# ---------------------------------------------------------------- fwhm

def test_fwhm_to_sigma_values():
    assert fwhm_to_sigma(0.0) == 0.0
    assert fwhm_to_sigma(2 * math.sqrt(2 * math.log(2))) == pytest.approx(1.0)
    assert fwhm_to_sigma(2.35482) == pytest.approx(1.0, rel=1e-5)
    assert fwhm_to_sigma(TWO_PI * 500e6) == pytest.approx(TWO_PI * 212.33e6,
                                                          rel=1e-4)
    with pytest.raises(ValueError):
        fwhm_to_sigma(-1.0)


# ---------------------------------------------------------------- docs

def test_readme_config_example_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S)
    cfg = tmp_path / "example.cfg"
    cfg.write_text(example.group(1))
    ps = load_config(str(cfg))
    assert ps.physical.gamma_r == pytest.approx(TWO_PI * 0.59e9, rel=1e-12)
    assert ps.physical.sigma_Q == 5.0e4
    assert ps.link.n_nest == 3
