"""The public names the benchmark calls, names that must stay removed, and
the reach rule: every definition in the package is reached by a command, an
acceptance criterion or the benchmark.

``BENCH_NAMES`` and ``BENCH_FIELDS`` mirror the list in bench/README.md,
"What the benchmark relies on": a change that deletes or renames one of them
breaks the benchmark, so it must fail here first.
"""

import ast
import builtins
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

#: Record fields the benchmark reads, from the same list.
BENCH_FIELDS = ["mcsim.StorageHistogram.values",
                "mcsim.StorageHistogram.counts",
                "rates.RateResult.p0", "rates.RateResult.p_swap"]


@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_benchmark_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"qdrepeater.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert obj is not None


def test_benchmark_attributes_and_registries():
    for dotted in BENCH_FIELDS:
        module, cls, name = dotted.split(".")
        record = getattr(importlib.import_module(f"qdrepeater.{module}"), cls)
        assert name in {f.name for f in fields(record)}, dotted
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
    "_chain_product", "ContourResult", "_budget_grid", "apply_cz",
    "apply_unitary", "_nominal_bk"])
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
    assert not hasattr(qsim.DensityMatrix, "apply_unitary")
    assert "F_e_init" not in {f.name for f in fields(fidelity.FidelityBudget)}
    assert not {"trials", "seed"} & {f.name for f in
                                     fields(mcsim.TimingStats)}
    signatures = {
        fidelity.fidelity_budget: ["params"],
        fidelity.fidelity_contour: ["params", "fp_grid", "polarization_grid"],
        rates.link_success_probability: ["link"],
        rates.crossover_distance: ["params", "source_rate"],
        mcsim.compare_with_analytic: ["stats", "target"],
        fidelity._ent_adaptive: ["phys", "F_res"],
        fidelity.quadrupolar_factor: ["sigma_Q", "t"],
    }
    for fn, names in signatures.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_no_module_reaches_into_private_rates_names():
    src = Path(qdrepeater.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"\brates\._", path.read_text()), path.name


# ------------------------------------------------------------ reach

#: Where the reach walk starts, besides every module's top-level statements:
#: the CLI, its commands, the acceptance criteria and the benchmark's names
#: and fields.
REACH_ROOTS = ["cli.main", "cli._COMMANDS", "acceptance.CHECKS", *BENCH_NAMES,
               *BENCH_FIELDS]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _field_name(item: ast.stmt) -> str | None:
    """The name an annotated class-body statement declares, if any."""
    return (item.target.id if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name) else None)


#: What the walk knows of a value whose class is outside the package.
FOREIGN = "foreign"


def unreached_names(src: Path, roots) -> list[str]:
    """Definitions in the modules under ``src`` that nothing reaches.

    A definition is a top-level function, class or constant, keyed
    (module, name), or a method, property or annotated field, keyed
    (module, class, name).  The walk follows Name and Attribute loads,
    transitively, from ``roots`` (dotted names) and from every top-level
    statement that defines nothing.  A Name resolves through its module's
    definitions and ``from .x import`` aliases.  ``x.name`` reaches the
    member ``name`` of the module or class that ``x`` is found to hold, and
    that class:

    - a module, a class, or an instance of a class;
    - the first parameter of a method holds its class (``self``, or
      ``cls`` of a classmethod; the package has no static methods);
    - a parameter holds the class its annotation names;
    - a call of a class gives an instance of it, and a call of a function
      or method the class its return annotation names;
    - an annotated field gives the class its annotation names, so chains
      such as ``params.physical.F_res`` resolve link by link;
    - a local name holds a class when every binding of it in the
      function, nested functions and tuple unpacking of a tuple display
      included, gives that class.

    An annotation names a class of the package, or one outside it: a
    builtin, an absolute import such as ``np.ndarray``, a subscripted
    container such as ``tuple[str, ...]`` or None, and ``X | None`` names
    X.  A receiver whose class is outside the package reaches nothing.
    Only a receiver the walk cannot resolve falls back to the name alone:
    ``x.name`` then reaches every method, property or field so named.
    Writing a field, by a constructor keyword or otherwise, does not reach
    it.  A constant's value belongs to the constant.  A reached class
    reaches its other class body statements, fields' annotations and
    defaults included, and its dunder methods, which, like dunder
    constants, are never reported.  Imports, docstrings and comments
    reference nothing.
    """
    defs, members, aliases, foreign, todo = {}, {}, {}, {}, []
    for path in sorted(src.glob("*.py")):
        mod, aliases[path.stem] = path.stem, {}
        foreign[mod] = set(dir(builtins))
        for node in ast.parse(path.read_text()).body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign)
                       else getattr(node, "targets", []))
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    aliases[mod][alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module
                        else (alias.name,))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                foreign[mod].update((alias.asname or alias.name).split(".")[0]
                                    for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                for item in getattr(node, "body", []):
                    name = (item.name if isinstance(item, ast.FunctionDef)
                            else _field_name(item))
                    if isinstance(node, ast.ClassDef) and name:
                        defs[mod, node.name, name] = item
                        members.setdefault(name, []).append(
                            (mod, node.name, name))
            elif names:
                defs.update(((mod, name), node) for name in names)
            else:
                todo.append((mod, node, None))

    def resolve(mod, name):
        """The definition, or the module as a 1-tuple, ``name`` means."""
        if (mod, name) in defs:
            return (mod, name)
        target = aliases[mod].get(name)
        return target if target is None or len(target) == 1 \
            else resolve(*target)

    def member(owner, attr):
        """The definition ``attr`` of a module or class key ``owner``."""
        if not isinstance(owner, tuple):
            return None
        return resolve(owner[0], attr) if len(owner) == 1 else owner + (attr,)

    def holds(key):
        """The class (or module) a name bound to definition ``key`` holds."""
        node = defs.get(key)
        if node is None:
            return key if key and len(key) == 1 else None
        if isinstance(node, ast.ClassDef):
            return key
        return (annotation(key[0], node.annotation)
                if isinstance(node, ast.AnnAssign) else None)

    def annotation(mod, node):
        """The class key an annotation names, FOREIGN, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp):
            sides = {annotation(mod, side) for side in (node.left, node.right)
                     if not (isinstance(side, ast.Constant)
                             and side.value is None)}
            return sides.pop() if len(sides) == 1 else None
        if isinstance(node, (ast.Subscript, ast.Constant)):
            return FOREIGN
        if isinstance(node, (ast.Name, ast.Attribute)):
            found = value_class(mod, {}, node)
            return found if found == FOREIGN or found and len(found) == 2 \
                else None
        return None

    def value_class(mod, env, node):
        """What ``node`` evaluates to: a module (1-tuple), a class key (the
        class or an instance of it), FOREIGN, or None when not stated."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            key = resolve(mod, node.id)
            return (holds(key) if key
                    else FOREIGN if node.id in foreign[mod] else None)
        if isinstance(node, ast.Attribute):
            owner = value_class(mod, env, node.value)
            return FOREIGN if owner == FOREIGN \
                else holds(member(owner, node.attr))
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            key = env[func.id] if func.id in env else resolve(mod, func.id)
        elif isinstance(func, ast.Attribute):
            key = member(value_class(mod, env, func.value), func.attr)
        else:
            return None
        callee = defs.get(key)
        if isinstance(callee, ast.ClassDef):
            return key
        return (annotation(key[0], callee.returns)
                if isinstance(callee, ast.FunctionDef) and callee.returns
                else None)

    def scope(mod, node, cls):
        """The class each local name of ``node`` holds, or None: the one
        every binding gives.  ``cls`` is the class of a method.  A binding
        is an expression, evaluated once the other names are known, or
        what it is known to hold."""
        sources, given = {}, {}

        def unpack(target, value):
            if isinstance(target, ast.Name):
                given[id(target)] = value
            elif (isinstance(target, (ast.Tuple, ast.List))
                    and isinstance(value, (ast.Tuple, ast.List))
                    and len(target.elts) == len(value.elts)
                    and not any(isinstance(e, ast.Starred)
                                for e in target.elts + value.elts)):
                for t, v in zip(target.elts, value.elts):
                    unpack(t, v)

        for sub in ast.walk(node):   # breadth first: bindings before names
            if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
                a = sub.args
                for i, arg in enumerate(a.posonlyargs + a.args + a.kwonlyargs):
                    sources.setdefault(arg.arg, []).append(
                        cls if sub is node and cls and i == 0
                        else annotation(mod, arg.annotation))
                for arg in filter(None, (a.vararg, a.kwarg)):
                    sources.setdefault(arg.arg, []).append(FOREIGN)
            elif isinstance(sub, (ast.Assign, ast.NamedExpr)):
                for target in (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target]):
                    unpack(target, sub.value)
            elif isinstance(sub, ast.AnnAssign) and sub.value:
                given[id(sub.target)] = annotation(mod, sub.annotation)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                sources.setdefault(sub.name, []).append(None)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                sources.setdefault(sub.id, []).append(given.get(id(sub)))
        env = dict.fromkeys(sources)
        for _ in sources:   # each pass resolves one more link of a chain
            found = {name: {value_class(mod, env, source)
                            if isinstance(source, ast.expr) else source
                            for source in bound}
                     for name, bound in sources.items()}
            found = {name: classes.pop() if len(classes) == 1 else None
                     for name, classes in found.items()}
            if found == env:
                break
            env = found
        return env

    reached = set()

    def reach(key):
        if key in reached or key not in defs:
            return
        reached.add(key)
        node = defs[key]
        if not isinstance(node, ast.ClassDef):
            todo.append((key[0], node, key[1] if len(key) == 3 else None))
            return
        todo.extend((key[0], expr, None)
                    for expr in node.decorator_list + node.bases)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                todo.append((key[0], item, None))
            elif _dunder(item.name):
                reach(key + (item.name,))

    for dotted in roots:
        mod, *names = dotted.split(".")
        for depth in range(1, len(names) + 1):
            reach((mod, *names[:depth]))
    while todo:
        mod, node, cls = todo.pop()
        env = scope(mod, node, (mod, cls) if cls else None)
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name):
                reach(resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute):
                owner = value_class(mod, env, sub.value)
                if owner is None:
                    for key in members.get(sub.attr, []):
                        reach(key)
                elif owner != FOREIGN:
                    reach(owner)
                    reach(member(owner, sub.attr))
    return sorted(".".join(key) for key in defs
                  if key not in reached and not _dunder(key[-1]))


def test_every_definition_is_reached_by_a_command_criterion_or_benchmark():
    src = Path(qdrepeater.__file__).parent
    assert unreached_names(src, REACH_ROOTS) == []


def test_reach_walk_reports_what_only_dead_code_uses(tmp_path):
    # each Decoy field shares its name with a member that main reads through
    # a receiver of known class, so the name alone would reach it
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from . import b\n"
        "from .b import used\n"
        "LIMIT = 2\n"
        "SPARE = 3  # read only by dead()\n"
        "SHAPES = (b.Decoy, b.Heavy)\n"
        "def main(box: b.Box, text: str, thing):\n"
        "    \"\"\"orphan() is named here, not called.\"\"\"\n"
        "    pair = b.Pair(left=1, right=2)  # class call; right is written\n"
        "    made = b.pair_of(LIMIT)  # annotated return\n"
        "    _, far = pair, box  # tuple unpacking\n"
        "    return (used(LIMIT).size + b.Box.make().size + len(SHAPES)\n"
        "            + pair.left\n"
        "            + box.area()  # annotated parameter; reads self.side\n"
        "            + made.inner.depth  # chain through an annotated field\n"
        "            + far.height\n"
        "            + text.volume + np.volume  # foreign: reach nothing\n"
        "            + thing.weight)  # unresolved: every member so named\n"
        "def dead():\n"
        "    return SPARE\n")
    (tmp_path / "b.py").write_text(
        "class Box:\n"
        "    side: int\n"
        "    height: int\n"
        "    def __init__(self):\n"
        "        self.n = 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n\n"
        "    @property\n"
        "    def volume(self):\n"
        "        return 2\n"
        "    def area(self):\n"
        "        return self.side\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int = fallback()\n"
        "    inner: 'Inner'\n"
        "class Inner:\n"
        "    depth: int\n"
        "class Decoy:\n"
        "    left: int\n"
        "    area: int\n"
        "    side: int\n"
        "    inner: int\n"
        "    depth: int\n"
        "    height: int\n"
        "    volume: int\n"
        "    weight: int\n"
        "class Heavy:\n"
        "    weight: int\n"
        "def fallback():\n"
        "    return 0\n"
        "def used(n):\n"
        "    return Box()\n"
        "def pair_of(n) -> Pair:\n"
        "    return Pair(left=n, right=n)\n"
        "def orphan():\n"
        "    return Box().volume\n")
    assert unreached_names(tmp_path, ["a.main"]) == [
        "a.SPARE", "a.dead", "b.Box.volume", "b.Decoy.area", "b.Decoy.depth",
        "b.Decoy.height", "b.Decoy.inner", "b.Decoy.left", "b.Decoy.side",
        "b.Decoy.volume", "b.Pair.right", "b.orphan"]
