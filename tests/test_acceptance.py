"""Acceptance gate: every criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion,
or equivalently ``qdrepeater validate``.
"""

import math

import numpy as np
import pytest

from qdrepeater import acceptance, qsim
from qdrepeater.acceptance import CheckResult, Measure
from qdrepeater.cli import main

_IDS = [f"criterion-{c:02d}-{name.replace(' ', '-')}"
        for c, name, _ in acceptance.CHECKS]


@pytest.mark.parametrize("criterion,name,check", acceptance.CHECKS, ids=_IDS)
def test_criterion(criterion, name, check):
    result = acceptance.CheckResult(criterion, name, check())
    print(result)
    assert result.measures and result.passed, str(result)


def test_cli_validate_runs_the_full_gate(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(acceptance.CHECKS)
    assert "[FAIL]" not in out


@pytest.mark.parametrize("op", ["+-", "<", "<="])
def test_nan_measure_fails(op):
    assert not Measure("x", math.nan, 0.0, 1.0, op).passed
    assert not Measure("x", math.nan, 0.0, 0.0, op).passed


def _nan_rabi_evolution(monkeypatch):
    # the Rabi-law sweep is the only caller at 5 nuclei
    propagator = qsim.transfer_propagator

    def patched(p, t):
        out = propagator(p, t)
        return out if p.n_nuclei != 5 else np.full_like(out, np.nan)

    monkeypatch.setattr(qsim, "transfer_propagator", patched)


def _nan_overlap(monkeypatch):
    monkeypatch.setattr(qsim.PureState, "overlap",
                        lambda self, other: complex(math.nan))


@pytest.mark.parametrize("label,inject", [
    ("Rabi-law max deviation", _nan_rabi_evolution),
    ("full-vs-collective deviation", _nan_overlap)], ids=["rabi", "overlap"])
def test_nan_deviation_fails_criterion_10(monkeypatch, label, inject):
    inject(monkeypatch)
    result = CheckResult(10, "quantum oracle consistency",
                         acceptance.check_quantum_oracle())
    (measure,) = [m for m in result.measures if m.label == label]
    assert math.isnan(measure.value)
    assert not measure.passed
    assert not result.passed
    assert all(m.passed for m in result.measures if m.label != label)


def test_zero_tolerance_is_exact_equality():
    assert Measure("x", 0.1 + 0.2, 0.1 + 0.2, 0.0).passed
    assert not Measure("x", 0.1 + 0.2, 0.3, 0.0).passed
    assert Measure("x", 0.1 + 0.2, 0.3, 1e-9).passed


def test_band_keeps_its_rounding_slack_and_bounds_do_not():
    assert Measure("x", 1.0 + 0.5 * 1e-12, 0.9, 0.1).passed
    assert not Measure("x", 1.0 + 2e-12, 0.9, 0.1).passed
    assert Measure("x", 3.0, 0.0, 3.0, "<=").passed
    assert not Measure("x", 3.0, 0.0, 3.0, "<").passed
    assert Measure("x", math.nextafter(3.0, 0.0), 0.0, 3.0, "<").passed


def test_one_failing_measure_fails_its_criterion():
    good = Measure("good", 1.0, 1.0, 0.1)
    bad = Measure("bad", 2.0, 1.0, 0.1)
    result = CheckResult(3, "stub", (good, bad))
    assert not result.passed
    assert str(result) == ("[FAIL] criterion 3: stub -- good = 1 (1 +- 0.1); "
                           "bad = 2 (1 +- 0.1) FAIL")
    assert str(CheckResult(3, "stub", (good,))) == (
        "[PASS] criterion 3: stub -- good = 1 (1 +- 0.1)")
    assert str(Measure("dev", 2e-10, 0.0, 1e-9, "<")) == "dev = 2e-10 (< 1e-09)"


def test_run_all_returns_one_result_per_criterion(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", [
        (1, "a", lambda: (Measure("m", 1, 1, 0),)),
        (2, "b", lambda: (Measure("m", 2, 1, 0),))])
    results = acceptance.run_all()
    assert [(r.criterion, r.name, r.passed) for r in results] == [
        (1, "a", True), (2, "b", False)]
