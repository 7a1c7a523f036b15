"""Records behave like the dataclasses they replace.

Every record class of the package is declared with ``params.record``, which
shares one set of methods among them instead of generating them per class.
Each class here has a stdlib ``@dataclass`` twin with the same fields, the
oracle for what ``fields``, ``repr``, ``==``, ``hash``, ``replace``,
frozenness, ``copy``, ``pickle`` and ``inspect.signature`` give.  The twins
carry the names of the classes they mirror, so that ``repr`` and error texts
compare as they are.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace

import numpy as np
import pytest

from qdrepeater import acceptance, fidelity, mcsim, params, qsim, rates


# ------------------------------------------------------------ the twins

@dataclass(frozen=True)
class PhysicalParams:
    gamma_r: float
    gamma_nr: float
    gamma_star: float
    kappa: float
    g_cav: float
    F_res: float
    detuning: float
    sigma_sd: float
    T2_electron: float
    sigma_Q: float
    nuclear_polarization: float
    Omega_readout: float
    D_dark: float
    T_readout: float
    F_e_init: float
    delta_p: float
    delta_eps1: float
    delta_eps2: float
    t_transfer: float


@dataclass(frozen=True)
class LinkParams:
    L_total: float
    n_nest: int
    L_att: float
    c_fiber: float
    tau_init: float
    zeta: float
    p_emit: float
    eta_c: float
    eta_d: float
    eta_cav: float
    eta_s: float
    eta_m: float
    eta_fc: float


@dataclass(frozen=True)
class ParameterSet:
    physical: PhysicalParams
    link: LinkParams
    provenance: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RateResult:
    p0: float
    p_swap: float
    mean_time: float
    rate: float


@dataclass(frozen=True)
class ProtocolConfig:
    n_nest: int
    p0: float
    p_swap: float
    slot_time: float
    trials: int
    seed: int
    memory_cutoff: float = math.inf

    __post_init__ = mcsim.ProtocolConfig.__post_init__


@dataclass(frozen=True, eq=False)
class TrialRecords:
    total_time: np.ndarray
    success: np.ndarray
    swap_failures: np.ndarray
    max_storage_time: np.ndarray


@dataclass(frozen=True)
class TimingStats:
    mean: float
    stderr: float


@dataclass(frozen=True)
class ComparisonReport:
    mc_mean: float
    mc_stderr: float
    analytic_time: float
    ratio: float
    passed: bool


@dataclass(eq=False)        # compares by identity, unlike the old @dataclass
class StorageHistogram:
    values: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class SplittingResult:
    dE_g: float
    dE_e: float


@dataclass(frozen=True)
class GateResult:
    fidelity: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ReadoutResult:
    fidelity: float
    warnings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class FidelityBudget:
    fp_grid: tuple[float, ...]
    polarization_grid: tuple[float, ...]
    n_nest: int
    F_ent: np.ndarray
    F_gate: np.ndarray
    F_readout: np.ndarray
    warnings: tuple[tuple[str, ...], ...]
    F_transfer: np.ndarray
    F_total: np.ndarray


@dataclass(frozen=True)
class TransferParams:
    n_nuclei: int
    coupling: float

    __post_init__ = qsim.TransferParams.__post_init__


@dataclass(frozen=True)
class PureState:
    amps: np.ndarray
    n_nuclei: int
    space: str = "collective"

    __post_init__ = qsim.PureState.__post_init__


@dataclass(frozen=True)
class Measure:
    label: str
    value: float
    target: float
    tol: float
    op: str = "+-"


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    measures: tuple[Measure, ...]


TWINS = {record: globals()[record.__name__] for record in (
    params.PhysicalParams, params.LinkParams, params.ParameterSet,
    rates.RateResult, mcsim.ProtocolConfig, mcsim.TrialRecords,
    mcsim.TimingStats, mcsim.ComparisonReport, mcsim.StorageHistogram,
    fidelity.SplittingResult, fidelity.GateResult, fidelity.ReadoutResult,
    fidelity.FidelityBudget, qsim.TransferParams, qsim.PureState,
    acceptance.Measure, acceptance.CheckResult)}

#: Records compared by identity (or, for TrialRecords, by their own __eq__).
NO_VALUE_EQ = {mcsim.TrialRecords, mcsim.StorageHistogram,
               fidelity.FidelityBudget}


def _samples():
    """One instance of each record class, as the package makes them."""
    ps = params.default_parameters()
    cfg = mcsim.ProtocolConfig(n_nest=1, p0=0.5, p_swap=0.5, slot_time=1.0,
                               trials=40, seed=3, memory_cutoff=6.0)
    records = mcsim.run_trials(cfg)
    stats = mcsim.timing_stats(records, cfg)
    transfer = qsim.TransferParams(n_nuclei=3, coupling=1.0e6)
    return [
        ps.physical, ps.link, ps,
        rates.mean_time_parallel(ps),
        rates.mean_time_parallel(params.with_link(
            ps, L_total=np.array([1e5, 2e5]))),
        cfg, records, stats,
        mcsim.compare_with_analytic(stats, 3.0),
        mcsim.StorageHistogram.from_records(records),
        fidelity.zeeman_splittings(6.6, -0.076, 1.309, 0.80, 31e9),
        fidelity.gate_fidelity(ps.physical),
        fidelity.readout_fidelity(600e-9, 500.0, 0.9, 0.9, 1e9, 2e10),
        fidelity.fidelity_budget(ps),
        transfer,
        qsim.evolve_transfer(qsim.collective_state(1.0, 0.0, 3), transfer,
                             1e-7),
        acceptance.Measure("x", 1.0, 1.0, 0.1),
        acceptance.CheckResult(1, "Purcell", acceptance.CHECKS[0][2]()),
    ]


SAMPLES = _samples()


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _twin_of(rec):
    twin = TWINS[type(rec)]
    return twin(**{f.name: getattr(rec, f.name) for f in fields(twin)})


def _identity_hash(obj):
    value = hash(obj)
    return "identity" if value == object.__hash__(obj) else value


def test_every_record_class_has_a_twin_and_a_sample():
    package = [cls for name, mod in sys.modules.items()
               if name.startswith("qdrepeater.")
               for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == name
               and dataclasses.is_dataclass(cls)]
    assert sorted(cls.__qualname__ for cls in package) == sorted(
        cls.__qualname__ for cls in TWINS)
    assert {type(rec) for rec in SAMPLES} == set(TWINS)


@pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)
def test_class_matches_its_twin(cls):
    twin = TWINS[cls]
    assert dataclasses.is_dataclass(cls)
    assert ([f.name for f in fields(cls)]
            == [f.name for f in fields(twin)] == list(cls.__match_args__))
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


@pytest.mark.parametrize("rec", SAMPLES,
                         ids=lambda rec: type(rec).__name__)
def test_instance_behaves_like_its_twin(rec):
    twin = _twin_of(rec)
    first, last = fields(rec)[0].name, fields(rec)[-1].name
    for make in (lambda x: x,
                 lambda x: replace(x),
                 lambda x: replace(x, **{last: getattr(x, last)}),
                 copy.copy, copy.deepcopy,
                 lambda x: pickle.loads(pickle.dumps(x))):
        assert repr(make(rec)) == repr(make(twin))
    assert repr(rec) == repr(twin)
    # positional and keyword construction
    values = [getattr(rec, f.name) for f in fields(rec)]
    assert repr(type(rec)(*values)) == repr(type(twin)(*values)) == repr(rec)
    if type(rec) not in NO_VALUE_EQ:
        for other in (lambda x: x, copy.copy, copy.deepcopy, replace,
                      lambda x: pickle.loads(pickle.dumps(x)),
                      lambda x: object()):
            assert (_outcome(lambda: rec == other(rec))
                    == _outcome(lambda: twin == other(twin)))
            assert (_outcome(lambda: rec != other(rec))
                    == _outcome(lambda: twin != other(twin)))
        assert (_outcome(lambda: _identity_hash(rec))
                == _outcome(lambda: _identity_hash(twin)))
    assert (rec == twin) is False
    # frozen records raise on set and delete, fields or not; on copies,
    # as StorageHistogram's fields are assignable
    mutable_rec, mutable_twin = copy.copy(rec), copy.copy(twin)
    for name in (first, last, "not_a_field"):
        assert (_outcome(lambda: setattr(mutable_rec, name, 1))
                == _outcome(lambda: setattr(mutable_twin, name, 1)))
        assert (_outcome(lambda: delattr(mutable_rec, name))
                == _outcome(lambda: delattr(mutable_twin, name)))
    assert vars(mutable_rec) == vars(mutable_twin)
    # replace with a name that is no field: the same error
    assert (_outcome(lambda: replace(rec, nope=1))
            == _outcome(lambda: replace(twin, nope=1)))


@pytest.mark.parametrize("rec", [r for r in SAMPLES
                                 if type(r) is not mcsim.StorageHistogram],
                         ids=lambda rec: type(rec).__name__)
def test_frozen_records_raise_frozen_instance_error(rec):
    name = fields(rec)[0].name
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field "
                                                  f"'{name}'"):
        setattr(rec, name, 1)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field "
                                                  f"'{name}'"):
        delattr(rec, name)


@pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_a_type_error_naming_the_class(cls):
    n = len(fields(cls))
    prefix = f"{cls.__qualname__}.__init__() "
    for args, kwargs, text in [
            ((), {}, "missing a required argument: "),
            ((0,) * (n + 1), {}, "too many positional arguments"),
            ((0,), {fields(cls)[0].name: 0}, "multiple values for argument "),
            ((0,) * n, {"nope": 0}, "got an unexpected keyword argument "
                                    "'nope'")]:
        with pytest.raises(TypeError) as rec_error:
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            TWINS[cls](*args, **kwargs)
        assert str(rec_error.value).startswith(prefix + text)


def test_parameter_set_provenance_is_fresh_per_instance():
    ps = params.default_parameters()
    a = params.ParameterSet(ps.physical, ps.link)
    b = params.ParameterSet(physical=ps.physical, link=ps.link)
    assert a.provenance == b.provenance == {}
    assert a.provenance is not b.provenance
    assert list(vars(a)) == ["physical", "link", "provenance"]
    given = {"k": "v"}
    assert params.ParameterSet(ps.physical, ps.link, given).provenance \
        is given


def test_protocol_config_converts_numpy_ints_and_validates():
    cfg = mcsim.ProtocolConfig(n_nest=np.int64(2), p0=0.5, p_swap=0.5,
                               slot_time=1.0, trials=np.int32(10),
                               seed=np.uint64(7))
    assert [type(getattr(cfg, name)) for name in ("n_nest", "trials",
                                                  "seed")] == [int] * 3
    assert cfg == replace(cfg) and hash(cfg) == hash(replace(cfg))
    base = dict(n_nest=1, p0=0.5, p_swap=0.5, slot_time=1.0, trials=10,
                seed=1)
    for change, message in [({"n_nest": True}, "n_nest must be an integer"),
                            ({"trials": 10.0}, "trials must be an integer"),
                            ({"p0": 0.0}, "p0 must lie in"),
                            ({"p_swap": 1.5}, "p_swap must lie in"),
                            ({"slot_time": math.inf}, "slot_time must be"),
                            ({"trials": 0}, "need at least one trial"),
                            ({"n_nest": -1}, "n_nest must be non-negative"),
                            ({"memory_cutoff": -1.0}, "memory_cutoff"),
                            ({"n_nest": 40, "p_swap": 0.01}, "tree nodes")]:
        with pytest.raises(ValueError, match=message):
            mcsim.ProtocolConfig(**{**base, **change})
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(**{**base, **change})


def test_trial_records_keep_their_own_equality():
    records = next(r for r in SAMPLES if type(r) is mcsim.TrialRecords)
    assert mcsim.TrialRecords.__eq__ is not params._record_eq
    assert records == records[:] == copy.deepcopy(records)
    assert records != records[1:]
    assert mcsim.TrialRecords.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(records)


def test_fidelity_budget_and_storage_histogram_compare_by_identity():
    for cls in (fidelity.FidelityBudget, mcsim.StorageHistogram):
        rec = next(r for r in SAMPLES if type(r) is cls)
        assert rec == rec
        assert rec != copy.copy(rec)
        assert hash(rec) == object.__hash__(rec)


def test_storage_histogram_values_stay_assignable():
    hist = next(r for r in SAMPLES if type(r) is mcsim.StorageHistogram)
    short = copy.copy(hist)
    short.values = hist.values[:-1]
    del short.counts
    assert short.values.size == hist.values.size - 1
    assert not hasattr(short, "counts") and hasattr(hist, "counts")
