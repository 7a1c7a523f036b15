import ast
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_corpus
from percent_csv import percent_csv
from qdrepeater import acceptance, cli, fidelity, mcsim, params, rates
from qdrepeater.cli import main
from qdrepeater.params import (_KEYS, LinkParams, PhysicalParams,
                               default_parameters, to_dict, with_link)

NUMBER = re.compile(r"^(-?\d\.\d{6}e[+-]\d{2,3}|inf)$")
FINE = acceptance.Measure("fine", 1.0, 1.0, 0.0)
BROKEN = acceptance.Measure("broken", 2.0, 1.0, 0.5)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """A fresh interpreter with the package on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


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


def test_rates_parameter_copies_do_not_grow_with_the_point_count(
        capsys, monkeypatch):
    calls = []
    original = params.with_link

    def counting(ps, **changes):
        calls.append(sorted(changes))
        return original(ps, **changes)

    # every module that bound the name, params itself included
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "qdrepeater"
                and getattr(module, "with_link", None) is original):
            monkeypatch.setattr(module, "with_link", counting)
    counts = []
    for points in ("19", "190"):
        calls.clear()
        assert run(capsys, ["rates", "--l-points", points])[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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


@pytest.mark.parametrize("partial", [
    ["--pol-max", "0.9", "--pol-points", "3"],
    ["--pol-min", "0.85", "--pol-points", "3"],
])
def test_contour_partial_polarization_sweep_is_usage_error(capsys, partial):
    code, out, err = run(capsys, ["contour", "--fp-points", "2", *partial])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "invalid sweep: polarization: a sweep needs --pol-min, --pol-max "
        "and --pol-points"]


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


GATE_NOTES_AT_20 = (
    "gate 1/C correction 0.125 exceeds 0.05; first-order expansion unreliable",
    "gate spectral correction 0.11 exceeds 0.05; first-order expansion "
    "unreliable")


def test_contour_warning_lines_and_rows_byte_for_byte(capsys):
    # a note depends on F_p alone: one warning line per (F_p, note)
    argv = ["contour", "--fp-min", "20", "--fp-max", "500", "--fp-points", "3",
            "--pol-min", "0.9", "--pol-max", "0.95", "--pol-points", "2"]
    assert run(capsys, argv) == (1, "", (
        "refusing to compose out-of-regime budgets (first at F_p=20, "
        f"pol=0.9: {GATE_NOTES_AT_20[0]}); re-run with --force to override\n"))
    assert run(capsys, argv + ["--force"]) == (0, (
        "F_p,polarization,F_ent,F_transfer,F_gate,F_readout,F_total\n"
        "2.000000e+01,9.000000e-01,9.201046e-01,9.893050e-01,7.647078e-01,"
        "9.998500e-01,6.595680e-02\n"
        "2.000000e+01,9.500000e-01,9.201046e-01,9.936224e-01,7.647078e-01,"
        "9.998500e-01,7.071614e-02\n"
        "2.600000e+02,9.000000e-01,9.896037e-01,9.893050e-01,9.897125e-01,"
        "9.998500e-01,7.183679e-01\n"
        "2.600000e+02,9.500000e-01,9.896037e-01,9.936224e-01,9.897125e-01,"
        "9.998500e-01,7.702042e-01\n"
        "5.000000e+02,9.000000e-01,9.946133e-01,9.893050e-01,9.948039e-01,"
        "9.998337e-01,7.751590e-01\n"
        "5.000000e+02,9.500000e-01,9.946133e-01,9.936224e-01,9.948039e-01,"
        "9.998337e-01,8.310933e-01\n"), "".join(
        f"warning: F_p=20: {note}\n" for note in GATE_NOTES_AT_20))


def test_validate_config_lines_byte_for_byte(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", [(1, "stub", lambda: (FINE,))])
    code, out, err = run(capsys, ["validate", "--param",
                                  "Omega_readout=2pi*500 GHz"])
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines()
            if line.startswith("config ")] == [
        "config warning: readout drive 1.69 x gamma' is not weak (above 0.2 x "
        "gamma'); emission-rate formula degrades",
        "config F_total (n=3) = 0.8313  [out of validity regime]"]


def test_contour_unconverged_quadrature_is_one_error_line():
    proc = run_python(["-W", "always", "-m", "qdrepeater.cli", "contour",
                       "--param", "sigma_sd=2pi*2 GHz", "--fp-min", "10",
                       "--fp-max", "100", "--fp-points", "2"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "did not converge" in lines[0] and "nan" not in lines[0]
    assert "F_res=10 " in lines[0] and "rtol 1e-06" in lines[0]
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_contour_non_finite_quadrature_is_one_error_line():
    # F_p = 1e300 overflows the F_ent integrand: stopped at the first order
    proc = run_python(["-W", "always", "-m", "qdrepeater.cli", "contour",
                       "--fp-max", "1e300", "--fp-points", "2"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("F_ent quadrature did not converge at F_res=1e+300 "
                           "(21 nodes, rtol 1e-06), last estimates (nan, nan)"
                           "\n")


def test_contour_non_finite_nominal_fidelity_is_one_error_line():
    # without spectral diffusion F_ent runs the same quadrature, every node
    # at the mean detuning, and F_p = 1e300 overflows it at the first order
    proc = run_python(["-W", "error", "-m", "qdrepeater.cli", "contour",
                       "--param", "sigma_sd=0 Hz", "--fp-max", "1e300",
                       "--fp-points", "2", "--pol-min", "0.9",
                       "--pol-max", "0.95", "--pol-points", "2"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("F_ent quadrature did not converge at F_res=1e+300 "
                           "(21 nodes, rtol 1e-06), last estimates (nan, nan)"
                           "\n")


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
    # one line per (F_p, note), in F_p order: none repeats per polarization
    assert len(lines) == len(set(lines)) == 10
    assert [line.split(":")[1] for line in lines] == [
        f" F_p={fp:g}" for fp in np.linspace(100.0, 1000.0, 10)]


# ------------------------------------------------------------ validate

def test_validate_stubbed_pass_and_fail(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (FINE,))])
    code, out, _ = run(capsys, ["validate"])
    assert code == 0
    assert "[PASS] criterion 1: stub -- fine = 1 (1 +- 0)\n" in out
    assert "1/1 criteria passed" in out

    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (FINE, BROKEN))])
    code, out, _ = run(capsys, ["validate"])
    assert code == 1
    assert "[FAIL] criterion 1: stub -- " in out
    assert "0/1 criteria passed" in out


def test_validate_refuses_an_unevaluable_budget_before_the_criteria(
        capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "run_all", lambda: calls.append(1) or [])
    code, out, err = run(capsys, ["validate", "--param", "kappa=1e300 rad/s"])
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("F_ent quadrature did not converge")
    assert len(err.splitlines()) == 1


def test_validate_surfaces_gate_regime_warning(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS",
                        [(1, "stub", lambda: (FINE,))])
    code, out, _ = run(capsys, ["validate", "--param", "F_res=20"])
    assert code == 0
    assert "config warning" in out
    assert "out of validity regime" in out


# ------------------------------------------------------------ mc

def test_mc_report_csv_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["mc", "--param", "n_nest=0", "--p0", "0.1", "--trials",
            "2000", "--seed", "3"]
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


@pytest.mark.parametrize("n_nest, p0, trials, seed", [
    (3, None, 400, 2),      # the default chain: some trials abort
    (0, 1e-19, 200, 7),     # a bare link: slot counts beyond 2**63
], ids=["default-cutoff", "beyond-int64"])
def test_mc_out_csv_matches_per_row_rendering(capsys, tmp_path, n_nest, p0,
                                              trials, seed):
    link = with_link(default_parameters(), n_nest=n_nest).link
    cfg = mcsim.ProtocolConfig(
        n_nest=n_nest, p0=p0 or rates.link_success_probability(link),
        p_swap=rates.swap_success_probability(link),
        slot_time=rates.slot_time(link), trials=trials, seed=seed,
        memory_cutoff=4.0)
    records = mcsim.run_trials(cfg)
    if n_nest:
        assert 0 < records.success.sum() < trials
    else:
        assert (records.total_time > 2.0**63 * cfg.slot_time).any()
    lines = ["trial,total_time_s,swap_failures,max_storage_s"]
    for i, (t, failures, stored) in enumerate(zip(
            records.total_time.tolist(), records.swap_failures.tolist(),
            records.max_storage_time.tolist())):
        lines.append(f"{i},{'%.6e' % t},{failures},{'%.6e' % stored}")

    out_csv = tmp_path / "trials.csv"
    argv = ["mc", "--param", f"n_nest={n_nest}", "--cutoff", "4", "--trials",
            str(trials), "--seed", str(seed), "--out", str(out_csv)]
    code, _, _ = run(capsys, argv + (["--p0", repr(p0)] if p0 else []))
    assert code == 0
    assert out_csv.read_text() == "\n".join(lines) + "\n"


# ------------------------------------------------------------ CSV renderer

_INT64 = st.integers(-(2**63 - 1), 2**63 - 1)
_FLOAT64 = st.one_of(
    st.floats(),                                    # any double
    st.floats(min_value=-1e99, max_value=1e99),     # two-digit exponents
    # near-ties of the seventh digit
    st.builds(lambda n, k: (n + 0.5) * 10.0**k,
              st.integers(10**6, 10**7 - 1), st.integers(-99, 92)),
    # next to a power of ten, where log10 can be one off or the digits carry
    st.builds(lambda k, f: float(f"1e{k}") * f,
              st.integers(-100, 100), st.floats(1 - 1e-7, 1 + 1e-7)))
_TIES_AND_BOUNDS = [12345675.0, 1234567.5, 9999999.5, 99999995.0, 0.5, -0.0,
                    5e-324, float(np.nextafter(1e5, 0)), 1e22, 1e23, 1e-100,
                    1.7976931348623157e308]
_ROW = np.arange(2000)
#: doubles next to ties of the seventh digit at every two-digit exponent: a
#: renderer that trusted scaled values to 1e-12 of the tie gets 1% wrong
_NEAR_TIES = (_ROW * 4507 % 9_000_000 + 1_000_000.5) * 10.0**(_ROW % 191 - 99)
#: just below each power of ten: the seven digits carry into the exponent
_CARRIES = np.array([float(f"1e{k}") * (1 - 4e-8) for k in range(-99, 100)])


@st.composite
def _tables(draw):
    """A mixed int64 and float64 table, as its columns."""
    rows = draw(st.integers(0, 8))
    return [np.array(draw(st.lists(_INT64 if integer else _FLOAT64,
                                   min_size=rows, max_size=rows)),
                     dtype=np.int64 if integer else np.float64)
            for integer in draw(st.lists(st.booleans(), min_size=1,
                                         max_size=5))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
@example([np.array(_TIES_AND_BOUNDS),
          np.array([0, -1, 2**63 - 1, -(2**63 - 1), 9, 10, -10, 99, 100,
                    -999, 1000, 7], dtype=np.int64)])
# NaN, infinities, zero, a three-digit exponent and one reached by a carry
@example([np.array([np.nan, np.inf, -np.inf, -np.nan, 0.0, 9.535068e-166,
                    9.9999999e99])])
@example([_NEAR_TIES])
@example([_CARRIES])
def test_csv_matches_the_percent_renderer(columns):
    assert_csv_matches_the_percent_renderer(columns)


def assert_csv_matches_the_percent_renderer(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    row_format = ",".join("%d" if column.dtype.kind == "i" else cli._FMT
                          for column in columns)
    assert cli._csv(header, columns).decode("ascii") == percent_csv(
        header, row_format, [column.tolist() for column in columns])


@pytest.mark.parametrize("off_by", [-2, -1, 1, 2])
def test_csv_stays_exact_when_log10_is_off(monkeypatch, off_by):
    # the exponent estimate is checked, not trusted: a wrong one falls back
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + off_by)
    assert_csv_matches_the_percent_renderer(
        [np.concatenate([_TIES_AND_BOUNDS, _CARRIES, _CARRIES * -3.7])])


@pytest.mark.parametrize("case, fields", [
    ("rates", []),
    ("contour", []),
    ("mc-cutoff-4-out", []),    # mc --cutoff 4 --out, 10000 trials
    # a three-digit exponent goes through %; zeros stay in the array path
    ("rates-underflow", ["9.535068e-166"]),
])
def test_tables_render_as_arrays_but_for_what_they_cannot_prove(
        monkeypatch, tmp_path, case, fields):
    rendered, percent = [], cli._fallback

    def counted(value):
        rendered.append(percent(value))
        return rendered[-1]

    monkeypatch.setattr(cli, "_fallback", counted)
    argv = [arg.replace("{tmp}", str(tmp_path))
            for arg in golden_corpus.CASES[case]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert rendered == fields


def test_mc_seed_change_moves_numbers_but_still_passes(capsys):
    argv = ["mc", "--param", "n_nest=1", "--p0", "0.05", "--p-swap", "0.6",
            "--trials", "5000"]
    code_a, out_a, _ = run(capsys, argv + ["--seed", "11"])
    code_b, out_b, _ = run(capsys, argv + ["--seed", "12"])
    assert code_a == code_b == 0
    assert "PASS" in out_a and "PASS" in out_b
    assert out_a != out_b


def test_mc_meta_records_the_overridden_nesting_level(capsys, tmp_path):
    out_csv = tmp_path / "m.csv"
    code, _, _ = run(capsys, ["mc", "--param", "n_nest=1", "--p0", "0.1",
                              "--p-swap", "0.5", "--trials", "100",
                              "--out", str(out_csv)])
    assert code == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["parameters"]["n_nest"] == 1
    assert meta["provenance"]["n_nest"] == "cli override"


def test_mc_default_config_reports_storage(capsys):
    code, out, _ = run(capsys, ["mc", "--trials", "300", "--seed", "5"])
    assert code == 0
    assert "fraction exceeding 1 s" in out


def test_mc_without_successes_still_reports_success_fraction(capsys):
    code, out, _ = run(capsys, ["mc", "--trials", "200", "--cutoff", "0",
                                "--param", "n_nest=2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("MC mean nan")
    assert lines[1] == ("success fraction 0.0000; max-storage median nan s; "
                        "fraction exceeding 1 s: nan")


def test_mc_with_one_successful_trial_has_no_stderr(capsys):
    code, out, _ = run(capsys, ["mc", "--trials", "1"])
    assert code == 0
    assert re.match(r"MC mean \S+ \+- nan s \|", out)


def test_mc_cutoff_reduces_success_fraction(capsys):
    code, out, _ = run(capsys, ["mc", "--param", "n_nest=1", "--p0", "0.5",
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


def test_qsim_prints_criterion_10_measures_in_order(capsys):
    code, out, _ = run(capsys, ["qsim"])
    assert code == 0
    expected = [str(m) for m in acceptance.check_quantum_oracle()]
    assert out.splitlines() == expected + ["quantum oracle: PASS"]


def test_bad_param_is_config_error(capsys):
    code, _, err = run(capsys, ["rates", "--param", "eta_d=1.7"])
    assert code == 3
    assert "config error" in err
    code, _, _ = run(capsys, ["rates", "--param", "gamma_r=0.59"])
    assert code == 3  # missing unit suffix


@pytest.mark.parametrize("override", [
    "bogus=1", "noequals",
    # keys dropped because no computation read them
    "B_x=6.6 T", "g_e=-0.076", "g_h=1.309", "omega_Z_nuclear=2pi*47.652 MHz",
    "Delta_OH_max=31 GHz"])
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


@pytest.mark.parametrize("command,override", [
    *[(["validate"], o) for o in ("gamma_r=0 Hz", "kappa=0 GHz", "F_res=0",
                                  "T2_electron=0", "delta_p=0 GHz",
                                  "nuclear_polarization=0.5")],
    *[(["contour"], o) for o in ("gamma_r=0 Hz", "kappa=0 GHz",
                                 "T2_electron=0", "delta_p=0 GHz")],
    (["mc"], "n_nest=-1"),
])
def test_value_outside_a_key_range_is_one_config_error(capsys, command,
                                                       override):
    code, out, err = run(capsys, command + ["--param", override])
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: invalid parameters: ")


TINY = ("T2_electron=1e-300 s", "kappa=1e-300 GHz", "delta_p=1e-300 GHz",
        "gamma_r=1e-300 GHz", "F_res=1e-300")


@pytest.mark.parametrize("command,override", [
    *[("validate", o) for o in TINY], *[("contour", o) for o in TINY]])
def test_tiny_positive_values_are_reported_not_raised(capsys, command,
                                                      override):
    # the gate terms overflow to inf or nan, which is a validity note
    code, out, err = run(capsys, [command, "--param", override])
    assert "Traceback" not in err
    if command == "validate":
        assert code == 0
        assert "[out of validity regime]" in out
    elif override.startswith("F_res"):
        assert code == 0    # the contour grid sets F_res itself
    else:
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("refusing to compose out-of-regime budgets")


@pytest.mark.parametrize("command", ["validate", "contour"])
@pytest.mark.parametrize("override", ["t_transfer=1e300 s",
                                      "sigma_Q=1e300 Hz"])
def test_huge_quadrupolar_dephasing_gives_zero_transfer(capsys, monkeypatch,
                                                        command, override):
    # sigma_Q**2 * t**2 overflows: the spin wave is fully dephased, F_quad 0
    monkeypatch.setattr(acceptance, "run_all", lambda: [])
    argv = [command, "--param", override]
    if command == "contour":
        argv += ["--fp-min", "100", "--fp-max", "200", "--fp-points", "2",
                 "--pol-min", "0.9", "--pol-max", "0.95", "--pol-points", "2"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if command == "validate":
        assert "config F_total (n=3) = 0.0000\n" in out
    else:
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert {(r["F_transfer"], r["F_total"]) for r in rows} == {
            ("0.000000e+00", "0.000000e+00")}


def test_nesting_level_above_64_is_one_config_error():
    # 2**n_nest used to grow until memory ran out, so the commands run in a
    # child process whose address space is capped at 2 GiB
    script = "\n".join([
        "import contextlib, io, resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))",
        "from qdrepeater.cli import main",
        "for argv in sys.argv[1:]:",
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), \\",
        "            contextlib.redirect_stderr(err):",
        "        code = main(argv.split())",
        "    print(repr((code, out.getvalue(), err.getvalue())))",
    ])
    commands = [f"{c} --param n_nest={v}"
                for v in ("2000", "1e20")
                for c in ("validate", "rates", "contour", "mc --trials 50")]
    proc = run_python(["-c", script, *commands])
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    assert len(got) == len(commands)
    for line, value in zip(got, [2000] * 4 + [10**20] * 4):
        assert line == repr((3, "", "config error: invalid parameters: "
                             f"n_nest must lie in [0, 64], got {value}\n"))


EXTREMES = ("0", "-1", "1e-300", "5e-324", "1e20", "1e300", "nan", "inf")
SWEPT_COMMANDS = (
    ["validate"], ["rates", "--l-points", "3"],
    ["contour", "--fp-min", "100", "--fp-max", "200", "--fp-points", "2",
     "--pol-min", "0.9", "--pol-max", "0.95", "--pol-points", "2"],
    ["mc", "--trials", "50"])
_UNIT_SUFFIX = {"angular": " GHz", "freq": " Hz", "time": " s",
                "length": " m"}


def extreme_value_failures(key: str, *fixed: str, suffix: str | None = None,
                           values=EXTREMES) -> list[str]:
    """The calls of each swept command, with ``key`` set to each of
    ``values`` and the ``fixed`` overrides, that raise or warn, exit outside
    0-3, print a traceback, or exit non-zero without exactly one stderr line.

    A value carries ``suffix``, by default the key's ``_UNIT_SUFFIX``.
    ``validate`` runs without its acceptance criteria, which do not read the
    parameter set.
    """
    if suffix is None:
        suffix = _UNIT_SUFFIX.get(_KEYS[key]["kind"], "")
    fixed = [arg for override in fixed for arg in ("--param", override)]
    failures = []
    run_all, acceptance.run_all = acceptance.run_all, lambda: []
    try:
        for value, command in itertools.product(values, SWEPT_COMMANDS):
            argv = [*command, *fixed, "--param", f"{key}={value}{suffix}"]
            err = io.StringIO()
            try:
                with warnings.catch_warnings(), \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = main(argv)
            except Exception as exc:
                failures.append(f"{argv}: {type(exc).__name__}: {exc}")
                continue
            lines = err.getvalue().splitlines()
            if (code not in (0, 1, 2, 3) or "Traceback" in err.getvalue()
                    or code and len(lines) != 1):
                failures.append(f"{argv}: exit {code}, stderr {lines}")
    finally:
        acceptance.run_all = run_all
    return failures


@pytest.mark.parametrize("key", list(_KEYS))
def test_extreme_parameter_value_is_a_result_or_one_error_line(key):
    if key != "n_nest":
        assert extreme_value_failures(key) == []
        if _KEYS[key]["kind"] == "angular":
            # in GHz, values above about 1.4e154 rad/s are refused on parsing
            assert extreme_value_failures(key, suffix=" rad/s",
                                          values=(*EXTREMES, "1e308")) == []
        return
    # 2**n_nest once grew until memory ran out: a child process whose address
    # space is capped at 2 GiB runs these calls
    script = "\n".join([
        "import json, resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "import test_cli",
        "print(json.dumps(test_cli.extreme_value_failures('n_nest')))",
    ])
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_extreme_purcell_factor_without_spectral_diffusion():
    # sigma_sd = 0 puts every quadrature node at the mean detuning; a
    # non-finite F_ent there is refused as at any other width
    assert extreme_value_failures("F_res", "sigma_sd=0 Hz") == []


def test_gamma_and_gamma_star_together_is_one_config_error(capsys):
    code, out, err = run(capsys, ["rates", "--param", "Gamma=2pi*0.64 GHz",
                                  "--param", "gamma_star=2pi*25 MHz"])
    assert code == 3
    assert out == ""
    assert err == "config error: give either gamma_star or Gamma, not both\n"


@pytest.mark.parametrize("command", ["rates", "contour"])
def test_default_csv_matches_the_reference_byte_for_byte(capsys, command):
    reference = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                 / f"{command}_default.csv")
    code, out, err = run(capsys, [command])
    assert code == 0 and err == ""
    assert out == reference.read_text()


@pytest.mark.parametrize("argv, path", [
    (["mc", "--trials", "10"], "/nonexistent/x.csv"),
    (["rates"], "/nonexistent/x.csv"),
    (["contour", "--fp-points", "2", "--pol-min", "0.9", "--pol-max", "0.95",
      "--pol-points", "2"], "."),
], ids=["mc", "rates", "contour"])
def test_unwritable_out_is_one_usage_error(capsys, argv, path):
    code, _, err = run(capsys, [*argv, "--out", path])
    assert code == 2
    assert err.startswith(f"cannot write {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("out, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("file/x.csv", "Not a directory"),
    ("dir", "Is a directory")])
def test_unwritable_out_is_refused_before_the_work(capsys, monkeypatch,
                                                   tmp_path, out, reason):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    calls = []
    monkeypatch.setattr(mcsim, "run_trials", lambda cfg: calls.append(cfg))
    path = str(tmp_path / out)
    code, stdout, err = run(capsys, ["mc", "--trials", "200000",
                                     "--out", path])
    assert (code, stdout, calls) == (2, "", [])
    assert err == f"cannot write {path}: {reason}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]


def test_out_in_a_directory_without_write_access_is_refused(capsys,
                                                            monkeypatch,
                                                            tmp_path):
    # the tests may run as root, for whom os.access always grants write
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    path = str(tmp_path / "x.csv")
    code, out, err = run(capsys, ["rates", "--l-points", "3", "--out", path])
    assert (code, out) == (2, "")
    assert err == f"cannot write {path}: Permission denied\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_meta_json_is_one_usage_error(capsys, tmp_path):
    # the early check passes; the write of the companion file fails
    (tmp_path / "x.csv.meta.json").mkdir()
    path = str(tmp_path / "x.csv")
    code, out, err = run(capsys, ["rates", "--l-points", "3", "--out", path])
    assert (code, out) == (2, "")
    assert err == f"cannot write {path}.meta.json: Is a directory\n"


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


def _nudged(key_field) -> str:
    """A valid override that moves one declared key off its loaded default
    (a derived key such as gamma_star declares none of its own)."""
    meta = key_field.metadata
    default = to_dict(default_parameters())[key_field.name]
    if meta["kind"] == "integer":
        value = default - 1
    else:
        # 1% keeps every key in range and gamma_star non-negative; the keys
        # that default to zero are angular rates
        value = 0.99 * default or 2 * math.pi * 10e6
    unit = {"angular": " rad/s", "freq": " Hz"}.get(meta["kind"], "")
    return f"{key_field.name}={value!r}{unit}"


def test_every_parameter_key_changes_what_a_command_computes(capsys):
    def computed(overrides):
        ps = default_parameters(overrides=overrides)
        _, rates_csv, _ = run(capsys, ["rates", "--l-points", "3"] + [
            arg for item in overrides for arg in ("--param", item)])
        link = ps.link
        mc_inputs = (rates.link_success_probability(link),
                     rates.swap_success_probability(link),
                     rates.slot_time(link), link.n_nest)
        # the budget's fields by value: a budget compares by identity
        budget = fidelity.fidelity_budget(ps)
        return ([np.asarray(getattr(budget, f.name)).tolist()
                 for f in fields(budget)], rates_csv, mc_inputs)

    baseline = computed([])
    dead = [f.name for cls in (PhysicalParams, LinkParams)
            for f in fields(cls)
            if all(a == b for a, b in zip(computed([_nudged(f)]), baseline))]
    assert dead == []


def test_missing_config_file_is_config_error(capsys):
    code, _, err = run(capsys, ["rates", "--config", "/nonexistent.cfg"])
    assert code == 3
    assert "config error" in err


# a negative nesting level is a config error (--param n_nest=-1, exit 3)
@pytest.mark.parametrize("bad", [["--trials", "0"], ["--p0", "2"],
                                 ["--p-swap", "0"], ["--cutoff", "-1"]])
def test_mc_bad_input_is_usage_error(capsys, bad):
    code, out, err = run(capsys, ["mc"] + bad)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid Monte Carlo input")


# above 64 the nesting level is a config error (exit 3), tested below
@pytest.mark.parametrize("bad", [["--param", "n_nest=40"],
                                 ["--param", "n_nest=64"],
                                 ["--param", "n_nest=3", "--p-swap", "0.01"]])
def test_mc_tree_beyond_the_node_budget_is_usage_error(capsys, monkeypatch,
                                                       bad):
    # refused before sampling: such a trial could exhaust the memory
    def sample(cfg):
        raise AssertionError("sampled a refused configuration")
    monkeypatch.setattr(mcsim, "run_trials", sample)
    code, out, err = run(capsys, ["mc"] + bad)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "tree nodes per trial" in err


def test_mc_times_beyond_float64_are_usage_error(capsys):
    # a slot of about 1e305 s: trial times in seconds overflow to inf
    code, out, err = run(capsys, ["mc", "--trials", "100",
                                  "--param", "c_fiber=1e-300"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid Monte Carlo input: trial times overflow")


def test_mc_direct_link_at_defaults_keeps_huge_slot_counts(capsys, tmp_path):
    # one 1000 km link: p0 ~ 8e-19, so some draws exceed the int64 range
    out_csv = tmp_path / "direct.csv"
    code, out, _ = run(capsys, ["mc", "--param", "n_nest=0", "--trials",
                                "10000", "--out", str(out_csv)])
    assert code == 0
    assert "PASS" in out
    _, rows = parse_csv(out_csv.read_text())
    times = [float(r["total_time_s"]) for r in rows]
    assert len(times) == 10000
    assert min(times) > 0.0


# ------------------------------------------------------------ options

@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "3"], ["validate", "--trials", "5"],
    ["qsim", "--seed", "3"], ["qsim", "--out", "x.csv"],
    ["qsim", "--param", "eta_d=0.5"], ["qsim", "--config", "missing.cfg"],
    ["rates", "--trials", "5"], ["rates", "--seed", "3"],
    ["contour", "--seed", "3"], ["contour", "--trials", "5"],
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


# exit code, stdout and stderr of help and usage errors, byte for byte as
# Python 3.11's argparse renders them at 80 columns
USAGE_TEXT = json.loads(
    (Path(__file__).parent / "cli_usage_text.json").read_text())


@pytest.mark.parametrize("case", USAGE_TEXT,
                         ids=[" ".join(c["argv"]) or "(none)"
                              for c in USAGE_TEXT])
def test_help_and_usage_text_byte_for_byte(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, case["argv"]) == (case["code"], case["stdout"],
                                         case["stderr"])


def test_validate_out_is_usage_error_and_writes_nothing(capsys, tmp_path):
    target = tmp_path / "v.csv"
    code, out, _ = run(capsys, ["validate", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, target", [
    (["rates", "--l-points", "100000000000"], "cli._sweep"),
    (["contour", "--fp-points", "100000000000"], "cli._sweep"),
    (["mc", "--trials", "100000000000"], "mcsim.run_trials")])
def test_a_count_too_large_to_allocate_is_one_usage_error(
        capsys, monkeypatch, tmp_path, argv, target):
    # the allocation is stubbed: a real one would ask for 800 GB
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    module, name = target.split(".")
    monkeypatch.setattr(sys.modules[f"qdrepeater.{module}"], name, allocate)
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / "x.csv")])
    assert (code, out) == (2, "")
    assert err == f"out of memory: {argv[0]} input too large\n"
    assert list(tmp_path.iterdir()) == []


def test_only_mc_meta_records_a_seed(capsys, tmp_path):
    argv = {"rates": ["rates", "--l-points", "2"],
            "contour": ["contour", "--fp-points", "2", "--pol-min", "0.9",
                        "--pol-max", "0.95", "--pol-points", "2"],
            "mc": ["mc", "--param", "n_nest=0", "--p0", "0.5", "--trials",
                   "10", "--seed", "4"]}
    for name, args in argv.items():
        path = tmp_path / f"{name}.csv"
        assert run(capsys, args + ["--out", str(path)])[0] == 0
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        assert meta.get("seed") == (4 if name == "mc" else None)


_FINITE = "sweep bounds must be finite"
_SOURCE = "invalid rates input: source rate must be positive and finite, got "
BAD_SWEEPS = [
    (["rates", "--l-max-km", "inf"], f"invalid distance sweep: L_km: {_FINITE}"),
    (["rates", "--l-min-km=-inf"], f"invalid distance sweep: L_km: {_FINITE}"),
    (["rates", "--l-min-km", "nan"], f"invalid distance sweep: L_km: {_FINITE}"),
    (["contour", "--fp-max", "inf"], f"invalid sweep: F_p: {_FINITE}"),
    (["contour", "--fp-max", "1e400"], f"invalid sweep: F_p: {_FINITE}"),
    (["contour", "--pol-min", "nan", "--pol-max", "0.9", "--pol-points", "3"],
     f"invalid sweep: polarization: {_FINITE}"),
    (["rates", "--source-rate", "-1"], _SOURCE + "-1"),
    (["rates", "--source-rate", "0"], _SOURCE + "0"),
    (["rates", "--source-rate", "inf"], _SOURCE + "inf"),
    (["rates", "--source-rate", "nan"], _SOURCE + "nan"),
    (["rates", "--l-min-km", "-100"],
     "invalid rates input: distance must be non-negative"),
]


@pytest.mark.parametrize("argv,message", BAD_SWEEPS,
                         ids=[" ".join(argv) for argv, _ in BAD_SWEEPS])
def test_non_finite_or_negative_sweep_input_is_one_usage_error(capsys, argv,
                                                               message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert caught == []
    assert code == 2
    assert out == ""
    assert err.splitlines() == [message]


# ------------------------------------------------------------ rendering

def _terminal_writes(nodes) -> list:
    """The nodes under ``nodes`` that name ``print``, ``sys.stdout`` or
    ``sys.stderr``, or import either stream from ``sys``."""
    return [n for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id == "print"
            or isinstance(n, ast.Attribute) and n.attr in ("stdout", "stderr")
            and isinstance(n.value, ast.Name) and n.value.id == "sys"
            or isinstance(n, ast.ImportFrom) and n.module == "sys"
            and {a.name for a in n.names} & {"stdout", "stderr", "*"}]


def test_main_alone_writes_to_stdout_and_stderr():
    # commands return their output; main renders it, looking the streams up
    # in its body so that capsys and redirect_stdout see every byte
    src = Path(cli.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        writes = _terminal_writes([tree])
        if path.stem == "cli":
            main_def, = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                         and n.name == "main"]
            in_main = _terminal_writes(main_def.body)
            assert {n.attr for n in in_main
                    if isinstance(n, ast.Attribute)} == {"stdout", "stderr"}
            commands = [n.name for n in tree.body
                        if isinstance(n, ast.FunctionDef)
                        and n.name.startswith("cmd_")]
            assert commands == [f.__name__ for f in cli._COMMANDS.values()]
            writes = [n for n in writes if n not in in_main]
        offenders += [f"{path.name}:{n.lineno}" for n in writes]
    assert offenders == []


# ------------------------------------------------------------ start-up

def test_cli_import_loads_no_scipy():
    # after the import and after each command: no scipy, and none of the
    # numpy subpackages that np.percentile, np.median and hermgauss load
    script = "\n".join([
        "import contextlib, io, sys",
        "import qdrepeater, qdrepeater.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] == 'scipy'",
        "                  or m.split('.')[:2] in (['numpy', 'ma'],",
        "                                          ['numpy', 'polynomial']))",
        "print('import', loaded(), 'locale' in sys.modules)",
        "for argv in sys.argv[1:]:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = qdrepeater.cli.main(argv.split())",
        "    print(argv, code, loaded())",
    ])
    commands = ["rates",
                "contour --fp-min 100 --fp-max 200 --fp-points 2 "
                "--pol-min 0.9 --pol-max 0.95 --pol-points 2",
                "mc --trials 200", "mc --cutoff 4 --trials 200", "qsim",
                "validate"]
    proc = run_python(["-c", script, *commands])
    assert proc.returncode == 0, proc.stderr
    # argparse's gettext loads locale on the first parse; the CLI loads it
    assert proc.stdout.splitlines() == (
        ["import [] True"] + [f"{argv} 0 []" for argv in commands])


def test_cli_import_runs_no_generated_code_and_defers_nothing():
    # dataclass methods compiled by exec carry the file name "<string>";
    # the records share functions of params.py instead.  The package
    # modules that import qdrepeater.cli loads stay the same eight.
    script = "\n".join([
        "import json, sys",
        "import qdrepeater.cli",
        "mods = sorted(m for m in sys.modules",
        "              if m.split('.')[0] == 'qdrepeater')",
        "generated = sorted(",
        "    f'{name}.{cls.__qualname__}.{attr}'",
        "    for name in mods for cls in vars(sys.modules[name]).values()",
        "    if isinstance(cls, type) and cls.__module__ == name",
        "    for attr, value in vars(cls).items()",
        "    if getattr(getattr(value, '__code__', None), 'co_filename',",
        "               None) == '<string>')",
        "print(json.dumps([mods, generated]))",
    ])
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    mods, generated = json.loads(proc.stdout)
    assert generated == []
    assert mods == ["qdrepeater", "qdrepeater.acceptance", "qdrepeater.cli",
                    "qdrepeater.fidelity", "qdrepeater.mcsim",
                    "qdrepeater.params", "qdrepeater.qsim",
                    "qdrepeater.rates"]
