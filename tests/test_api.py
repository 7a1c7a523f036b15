"""The public names the benchmark calls, names that must stay removed, and
the reach rule: every definition in the package is reached by a command, an
acceptance criterion or the benchmark.

``BENCH_NAMES`` mirrors the list in bench/README.md, "What the benchmark
relies on": a change that deletes or renames one of them breaks the
benchmark, so it must fail here first.
"""

import ast
import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

import qdrepeater
from qdrepeater import (acceptance, cli, fidelity, mcsim, params, qsim,
                        rates)

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


@pytest.mark.parametrize("name", [
    "swap_entanglement", "TrialRecord", "bell_state", "_within",
    "pulse_spacing", "serialize", "branching_ratio", "mean_time_sequential",
    "electron_init_fidelity", "SweepSpec", "ValidationReport", "_correction",
    "_chain_product", "ContourResult", "_budget_grid"])
def test_removed_names_stay_out_of_the_package(name):
    assert not any(hasattr(mod, name) for mod in (
        qdrepeater, acceptance, cli, fidelity, mcsim, params, qsim, rates))


def test_removed_knobs_stay_removed():
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


def test_no_module_reaches_into_private_rates_names():
    src = Path(qdrepeater.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"\brates\._", path.read_text()), path.name


# ------------------------------------------------------------ reach

#: Where the reach walk starts, besides every module's top-level statements:
#: the CLI, its commands, the acceptance criteria and the benchmark's names.
REACH_ROOTS = ["cli.main", "cli._COMMANDS", "acceptance.CHECKS", *BENCH_NAMES]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_names(src: Path, roots) -> list[str]:
    """Definitions in the modules under ``src`` that nothing reaches.

    A definition is a top-level function, class or constant, keyed
    (module, name), or a method or property, keyed (module, class, name).
    The walk follows Name and Attribute loads, transitively, from ``roots``
    (dotted names) and from every top-level statement that defines nothing.
    A Name resolves through its module's definitions and ``from .x import``
    aliases; ``module.name`` and ``Class.member`` resolve exactly, and any
    other ``.name`` reaches every method or property so named.  A constant's
    value belongs to the constant.  A reached class reaches its other class
    body statements and its dunder methods, which, like dunder constants,
    are never reported.  Imports, docstrings and comments reference nothing.
    """
    defs, members, aliases, todo = {}, {}, {}, []
    for path in sorted(src.glob("*.py")):
        mod, aliases[path.stem] = path.stem, {}
        for node in ast.parse(path.read_text()).body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign)
                       else getattr(node, "targets", []))
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    aliases[mod][alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module
                        else (alias.name,))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                for item in getattr(node, "body", []):
                    if (isinstance(node, ast.ClassDef)
                            and isinstance(item, ast.FunctionDef)):
                        defs[mod, node.name, item.name] = item
                        members.setdefault(item.name, []).append(
                            (mod, node.name, item.name))
            elif names:
                defs.update(((mod, name), node) for name in names)
            else:
                todo.append((mod, node))

    def resolve(mod, name):
        """The definition, or the module as a 1-tuple, ``name`` means."""
        if (mod, name) in defs:
            return (mod, name)
        target = aliases[mod].get(name)
        return target if target is None or len(target) == 1 \
            else resolve(*target)

    reached = set()

    def reach(key):
        if key in reached or key not in defs:
            return
        reached.add(key)
        node = defs[key]
        if not isinstance(node, ast.ClassDef):
            todo.append((key[0], node))
            return
        todo.extend((key[0], expr) for expr in node.decorator_list + node.bases)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                todo.append((key[0], item))
            elif _dunder(item.name):
                reach(key + (item.name,))

    for dotted in roots:
        mod, *names = dotted.split(".")
        for depth in range(1, len(names) + 1):
            reach((mod, *names[:depth]))
    while todo:
        mod, node = todo.pop()
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name):
                reach(resolve(mod, sub.id))
                continue
            base = (resolve(mod, sub.value.id)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name) else None)
            if base and (len(base) == 1
                         or isinstance(defs[base], ast.ClassDef)):
                reach(base + (sub.attr,))
            elif isinstance(sub, ast.Attribute):
                for key in members.get(sub.attr, []):
                    reach(key)
    return sorted(".".join(key) for key in defs
                  if key not in reached and not _dunder(key[-1]))


def test_every_definition_is_reached_by_a_command_criterion_or_benchmark():
    src = Path(qdrepeater.__file__).parent
    assert unreached_names(src, REACH_ROOTS) == []


def test_reach_walk_reports_what_only_dead_code_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\n"
        "from .b import used\n"
        "LIMIT = 2\n"
        "SPARE = 3  # read only by dead()\n"
        "def main():\n"
        "    \"\"\"orphan() is named here, not called.\"\"\"\n"
        "    return used(LIMIT).size + b.Box.make().size\n"
        "def dead():\n"
        "    return SPARE\n")
    (tmp_path / "b.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n\n"
        "    @property\n"
        "    def volume(self):\n"
        "        return 2\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "def used(n):\n"
        "    return Box()\n"
        "def orphan():\n"
        "    return Box().volume\n")
    assert unreached_names(tmp_path, ["a.main"]) == [
        "a.SPARE", "a.dead", "b.Box.volume", "b.orphan"]
