"""The public names the benchmark calls, and names that must stay removed.

``BENCH_NAMES`` mirrors the list in bench/README.md, "What the benchmark
relies on": a change that deletes or renames one of them breaks the
benchmark, so it must fail here first.
"""

import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

import qdrepeater
from qdrepeater import acceptance, cli, fidelity, mcsim, params, qsim

BENCH_NAMES = [
    "acceptance.CHECKS",
    "mcsim.ProtocolConfig", "mcsim.run_trials", "mcsim.timing_stats",
    "mcsim.simulate_chain", "mcsim.storage_time_histogram",
    "rates.mean_time_parallel", "rates.mean_time_two_plus_two",
    "rates.direct_transmission_rate", "rates.crossover_distance",
    "fidelity.entanglement_fidelity",
    "fidelity.entanglement_fidelity_fixed_nodes",
    "fidelity.fidelity_budget", "fidelity.fidelity_contour",
    "qsim.chain_fidelity_oracle", "qsim.swap_branches", "qsim.werner_pair",
    "qsim.DensityMatrix.tensor", "qsim.TransferParams",
    "qsim.collective_state", "qsim.embed_collective", "qsim.evolve_transfer",
    "qsim.full_space_oracle", "qsim.build_full_space_hamiltonian",
    "qsim.PureState.overlap",
    "params.default_parameters", "params.with_link", "params.with_physical",
    "cli.main",
]


@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_benchmark_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"qdrepeater.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert obj is not None


def test_benchmark_attributes_and_registries():
    assert {"values", "counts"} <= {f.name for f in
                                    fields(mcsim.StorageHistogram)}
    assert qsim.werner_pair(1.0).mat.shape == (4, 4)
    assert all(len(entry) == 3 and callable(entry[2])
               for entry in acceptance.CHECKS)
    assert set(cli._COMMANDS) == {"rates", "contour", "validate", "mc",
                                  "qsim"}


def test_trial_records_hold_the_columns_mc_out_writes():
    assert [f.name for f in fields(mcsim.TrialRecords)] == [
        "total_time", "success", "swap_failures", "max_storage_time"]
    assert "swap_time" not in {f.name for f in fields(mcsim.ProtocolConfig)}


def test_benchmark_builds_configs_and_reads_no_removed_column(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    cfg = workloads.cutoff_config(params.default_parameters(), 10, 1)
    assert isinstance(cfg, mcsim.ProtocolConfig)
    assert len(mcsim.run_trials(cfg)) == 10
    for name in ("workloads.py", "probes.py"):
        text = (bench / name).read_text()
        assert "swap_time" not in text and "attempts" not in text, name


@pytest.mark.parametrize("name", ["swap_entanglement", "TrialRecord",
                                  "bell_state", "_within", "pulse_spacing"])
def test_removed_names_stay_out_of_the_package(name):
    assert name not in qdrepeater.__all__
    assert not any(hasattr(mod, name)
                   for mod in (qsim, mcsim, acceptance, fidelity))


def test_removed_knobs_stay_removed():
    from qdrepeater import rates
    assert "Gamma" not in {f.name for f in fields(params.PhysicalParams)}
    assert "delta_m" not in {f.name for f in fields(qsim.TransferParams)}
    assert "scheme_tag" not in {f.name for f in fields(rates.RateResult)}
    assert "tolerance" not in {f.name for f in
                               fields(mcsim.ComparisonReport)}
    assert not hasattr(fidelity.FidelityBudget, "in_regime")
    signatures = {
        fidelity.fidelity_budget: ["params"],
        fidelity.fidelity_contour: ["params", "fp_grid", "polarization_grid"],
        rates.link_success_probability: ["link"],
        rates.crossover_distance: ["params", "source_rate"],
        mcsim.compare_with_analytic: ["stats", "target"],
    }
    for fn, names in signatures.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_validation_report_has_no_notes():
    assert [f.name for f in fields(params.ValidationReport)] == ["violations"]


def test_no_module_reaches_into_private_rates_names():
    src = Path(qdrepeater.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"\brates\._", path.read_text()), path.name
