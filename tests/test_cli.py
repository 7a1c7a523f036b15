import json
import re
import warnings

import pytest

from qdrepeater import acceptance
from qdrepeater.cli import main

NUMBER = re.compile(r"^(-?\d\.\d{6}e[+-]\d{2,3}|inf)$")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------ rates

def test_rates_header_format_and_zero_distance(capsys):
    code, out, _ = run(capsys, ["rates", "--l-min-km", "0",
                                "--l-max-km", "1000", "--l-points", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["L_km", "rate_direct", "rate_B", "rate_C", "rate_D",
                      "rate_2plus2"]
    assert len(rows) == 3
    for row in rows:
        for value in row.values():
            assert NUMBER.match(value), value
    assert float(rows[0]["rate_direct"]) == pytest.approx(1e10, rel=1e-9)


def test_rates_curve_ordering_and_crossover(capsys):
    code, out, _ = run(capsys, ["rates", "--l-min-km", "100",
                                "--l-max-km", "1000", "--l-points", "10"])
    assert code == 0
    _, rows = parse_csv(out)
    beats_direct = []
    for row in rows:
        b, c, d = (float(row[k]) for k in ("rate_B", "rate_C", "rate_D"))
        assert b > c > d
        beats_direct.append(b > float(row["rate_direct"]))
    assert beats_direct[0] is False      # short distance: direct wins
    assert beats_direct[-1] is True      # long distance: repeater wins
    rates_b = [float(r["rate_B"]) for r in rows]
    assert all(x > y for x, y in zip(rates_b, rates_b[1:]))


def test_rates_curve_b_anchor_at_1000km(capsys):
    _, out, _ = run(capsys, ["rates", "--l-min-km", "500",
                             "--l-max-km", "1000", "--l-points", "2"])
    _, rows = parse_csv(out)
    assert float(rows[-1]["rate_B"]) == pytest.approx(0.1175, abs=2e-4)


def test_rates_conversion_override_scales_by_016(capsys):
    _, base, _ = run(capsys, ["rates", "--l-min-km", "500",
                              "--l-max-km", "1000", "--l-points", "2"])
    _, scaled, _ = run(capsys, ["rates", "--l-min-km", "500",
                                "--l-max-km", "1000", "--l-points", "2",
                                "--param", "eta_fc=0.4"])
    _, rows_a = parse_csv(base)
    _, rows_b = parse_csv(scaled)
    for a, b in zip(rows_a, rows_b):
        assert float(b["rate_B"]) / float(a["rate_B"]) == \
            pytest.approx(0.16, rel=1e-5)


def test_rates_invalid_sweep_is_usage_error(capsys):
    code, _, _ = run(capsys, ["rates", "--l-points", "1"])
    assert code == 2


# ------------------------------------------------------------ contour

def test_contour_csv_and_anchors(capsys, tmp_path):
    out_file = tmp_path / "contour.csv"
    code, _, _ = run(capsys, ["contour", "--fp-min", "200", "--fp-max", "500",
                              "--fp-points", "2", "--out", str(out_file)])
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert header == ["F_p", "polarization", "F_ent", "F_transfer", "F_gate",
                      "F_readout", "F_total"]

    def lookup(fp, pol):
        for row in rows:
            if (float(row["F_p"]) == fp
                    and abs(float(row["polarization"]) - pol) < 1e-9):
                return float(row["F_total"])
        raise AssertionError(f"grid point ({fp}, {pol}) missing")

    assert lookup(500.0, 0.95) == pytest.approx(0.831, abs=0.01)
    assert lookup(200.0, 0.80) == pytest.approx(0.526, abs=0.01)
    assert lookup(500.0, 0.999) == pytest.approx(0.858, abs=0.01)
    meta = json.loads((tmp_path / "contour.csv.meta.json").read_text())
    assert meta["parameters"]["F_res"] == 500.0
    assert meta["command"][1] == "contour"


def test_contour_rejects_polarization_below_table(capsys):
    code, _, err = run(capsys, ["contour", "--pol-min", "0.5",
                                "--pol-max", "0.9", "--pol-points", "3"])
    assert code == 2
    assert "0.80" in err


def test_contour_refuses_out_of_regime_without_force(capsys):
    code, _, err = run(capsys, ["contour", "--fp-min", "20", "--fp-max", "500",
                                "--fp-points", "2",
                                "--pol-min", "0.9", "--pol-max", "0.95",
                                "--pol-points", "2"])
    assert code == 1
    assert "refusing" in err
    code, out, err = run(capsys, ["contour", "--fp-min", "20",
                                  "--fp-max", "500", "--fp-points", "2",
                                  "--pol-min", "0.9", "--pol-max", "0.95",
                                  "--pol-points", "2", "--force"])
    assert code == 0
    assert "warning" in err
    assert out.startswith("F_p,polarization")


def test_contour_refuses_strong_readout_drive_without_force(capsys):
    strong = ["contour", "--param", "Omega_readout=2pi*500 GHz"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, strong)
    assert caught == []
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("refusing to compose")
    assert "readout drive" in err

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, strong + ["--force"])
    assert caught == []
    assert code == 0
    assert out.startswith("F_p,polarization")
    lines = err.strip().splitlines()
    assert lines
    assert all(line.startswith("warning: ") for line in lines)
    assert any("readout drive" in line for line in lines)


# ------------------------------------------------------------ validate

def test_validate_stubbed_pass_and_fail(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (True, "fine"))])
    code, out, _ = run(capsys, ["validate"])
    assert code == 0
    assert "[PASS] criterion 1" in out
    assert "1/1 criteria passed" in out

    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (False, "broken"))])
    code, out, _ = run(capsys, ["validate"])
    assert code == 1
    assert "[FAIL] criterion 1" in out


def test_validate_surfaces_gate_regime_warning(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (True, "fine"))])
    code, out, _ = run(capsys, ["validate", "--param", "F_res=20"])
    assert code == 0
    assert "config warning" in out
    assert "out of validity regime" in out


# ------------------------------------------------------------ mc

def test_mc_report_csv_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["mc", "--n", "0", "--p0", "0.1", "--trials", "2000",
            "--seed", "3"]
    code, out1, _ = run(capsys, argv + ["--out", str(f1)])
    assert code == 0
    assert "PASS" in out1
    code, out2, _ = run(capsys, argv + ["--out", str(f2)])
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()
    header, rows = parse_csv(f1.read_text())
    assert header == ["trial", "total_time_s", "swap_failures",
                      "max_storage_s"]
    assert len(rows) == 2000
    assert rows[0]["trial"] == "0"


def test_mc_seed_change_moves_numbers_but_still_passes(capsys):
    argv = ["mc", "--n", "1", "--p0", "0.05", "--p-swap", "0.6",
            "--trials", "5000"]
    code_a, out_a, _ = run(capsys, argv + ["--seed", "11"])
    code_b, out_b, _ = run(capsys, argv + ["--seed", "12"])
    assert code_a == code_b == 0
    assert "PASS" in out_a and "PASS" in out_b
    assert out_a != out_b


def test_mc_meta_records_the_overridden_nesting_level(capsys, tmp_path):
    out_csv = tmp_path / "m.csv"
    code, _, _ = run(capsys, ["mc", "--n", "1", "--p0", "0.1",
                              "--p-swap", "0.5", "--trials", "100",
                              "--out", str(out_csv)])
    assert code == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["parameters"]["n_nest"] == 1


def test_mc_default_config_reports_storage(capsys):
    code, out, _ = run(capsys, ["mc", "--trials", "300", "--seed", "5"])
    assert code == 0
    assert "fraction exceeding 1 s" in out


def test_mc_cutoff_reduces_success_fraction(capsys):
    code, out, _ = run(capsys, ["mc", "--n", "1", "--p0", "0.5",
                                "--p-swap", "1.0", "--trials", "2000",
                                "--seed", "5", "--cutoff", "1e-9"])
    assert code == 0
    match = re.search(r"success fraction (\d\.\d+)", out)
    assert match and float(match.group(1)) < 1.0


# ------------------------------------------------------------ qsim + errors

def test_qsim_command(capsys):
    code, out, _ = run(capsys, ["qsim"])
    assert code == 0
    assert "Rabi-law max deviation" in out
    assert "PASS" in out


def test_bad_param_is_config_error(capsys):
    code, _, err = run(capsys, ["rates", "--param", "eta_d=1.7"])
    assert code == 3
    assert "config error" in err
    code, _, _ = run(capsys, ["rates", "--param", "gamma_r=0.59"])
    assert code == 3  # missing unit suffix


@pytest.mark.parametrize("override", ["bogus=1", "noequals"])
@pytest.mark.parametrize("with_config", [False, True])
def test_malformed_override_is_one_config_error(capsys, tmp_path, override,
                                                with_config):
    argv = ["rates", "--param", override]
    if with_config:
        cfg = tmp_path / "p.cfg"
        cfg.write_text("eta_d = 0.8\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ")


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_config_file_equivalent_to_override(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("eta_d = 0.8\n")
    argv = ["rates", "--l-min-km", "200", "--l-max-km", "800",
            "--l-points", "4"]
    _, via_file, _ = run(capsys, argv + ["--config", str(cfg)])
    _, via_param, _ = run(capsys, argv + ["--param", "eta_d=0.8"])
    assert via_file == via_param


def test_missing_config_file_is_config_error(capsys):
    code, _, err = run(capsys, ["rates", "--config", "/nonexistent.cfg"])
    assert code == 3
    assert "config error" in err


@pytest.mark.parametrize("bad", [["--trials", "0"], ["--p0", "2"],
                                 ["--n", "-1"], ["--cutoff", "-1"]])
def test_mc_bad_input_is_usage_error(capsys, bad):
    code, out, err = run(capsys, ["mc"] + bad)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid Monte Carlo input")


def test_mc_direct_link_at_defaults_keeps_huge_slot_counts(capsys, tmp_path):
    # one 1000 km link: p0 ~ 8e-19, so some draws exceed the int64 range
    out_csv = tmp_path / "direct.csv"
    code, out, _ = run(capsys, ["mc", "--n", "0", "--trials", "10000",
                                "--out", str(out_csv)])
    assert code == 0
    assert "PASS" in out
    _, rows = parse_csv(out_csv.read_text())
    times = [float(r["total_time_s"]) for r in rows]
    assert len(times) == 10000
    assert min(times) > 0.0
