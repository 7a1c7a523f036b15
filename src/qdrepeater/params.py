"""Physical and link parameters: defaults, unit handling, config ingestion.

Unit conventions used throughout the package:

* optical and spin rates are stored as angular frequencies (rad/s),
* times in seconds, lengths in meters,
* plain counting rates (detector dark counts, quadrupolar spread) are stored
  as ordinary frequencies (Hz, i.e. s^-1) with no 2*pi.

Each key is declared once, as a field of :class:`PhysicalParams` or
:class:`LinkParams` whose metadata holds its default, unit kind, admissible
range and provenance note; loading and validation both read those
declarations.

Every record class of the package is declared with :func:`record`: a
dataclass, so ``fields`` and ``replace`` work, whose ``__init__``,
``__repr__``, ``__eq__``, ``__hash__`` and frozen ``__setattr__`` are this
module's functions, shared rather than generated and compiled per class on
every import.

Config files are flat ``key = value`` text.  Frequency-like values must carry
a unit suffix (``Hz``, ``kHz``, ``MHz``, ``GHz``, or ``rad/s``) and may use a
``2pi*`` prefix, e.g. ``gamma_r = "2pi*0.59 GHz"``.  Keys documented as
angular are converted to rad/s on load whether or not the prefix is written;
the prefix on a non-angular key is an explicit factor of 2*pi.  Times accept
{s, ms, us, ns, ps}, lengths {m, km}; both also accept bare SI numbers.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import (_HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError,
                         dataclass, field, fields, replace)

TWO_PI = 2.0 * math.pi

_GAUSSIAN_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))


class ConfigError(ValueError):
    """Raised when a config file or override cannot be turned into parameters."""


def fwhm_to_sigma(fwhm: float) -> float:
    """Convert a Gaussian full width at half maximum to a standard deviation."""
    if fwhm < 0:
        raise ValueError(f"FWHM must be non-negative, got {fwhm}")
    return fwhm / _GAUSSIAN_FWHM


def record(cls=None, /, *, eq: bool = True, frozen: bool = True):
    """Class decorator: the dataclass ``dataclass(eq=eq, frozen=frozen)``
    makes, with methods shared by every record class in place of methods
    generated and compiled for each one at import."""
    if cls is None:
        return lambda cls: record(cls, eq=eq, frozen=frozen)
    declared = fields(dataclass(init=False, repr=False, eq=False)(cls))
    cls._record_spec = (
        {f.name: f.default for f in declared},
        {f.name for f in declared
         if f.default is MISSING and f.default_factory is MISSING},
        {f.name: f.default_factory for f in declared
         if f.default_factory is not MISSING},
        getattr(cls, "__post_init__", None))
    cls.__init__, cls.__repr__ = _record_init, _record_repr
    cls.__signature__ = _RecordSignature()
    if eq:
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


def _record_init(self, *args, **kwargs):
    """Each field from ``args``, ``kwargs``, its default or a fresh call of
    its default factory, then ``__post_init__``."""
    defaults, required, factories, post_init = self._record_spec
    values = dict(zip(defaults, args), **kwargs) if args else kwargs
    if (len(values) < len(args) + len(kwargs) or not values.keys() >= required
            or not values.keys() <= defaults.keys()):
        try:
            self.__signature__.bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{type(self).__qualname__}.__init__() {exc}"
                            ) from None
    state = self.__dict__
    if len(values) < len(defaults):     # defaults first, in field order
        state.update(defaults)
        for name in factories.keys() - values.keys():
            state[name] = factories[name]()
    state.update(values)
    if post_init is not None:
        post_init(self)


def _record_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._record_spec[0])


def _record_repr(self) -> str:
    pairs = map("{}={!r}".format, self._record_spec[0], _record_values(self))
    return f"{type(self).__qualname__}({', '.join(pairs)})"


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _RecordSignature:
    """A record class's ``__signature__``, that of a generated ``__init__``,
    built when ``inspect.signature`` asks for it rather than at import."""

    def __get__(self, obj, cls) -> inspect.Signature:
        empty = inspect.Parameter.empty
        return inspect.Signature([inspect.Parameter(
            f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
            default=(_HAS_DEFAULT_FACTORY if f.default_factory is not MISSING
                     else empty if f.default is MISSING else f.default))
            for f in fields(cls)], return_annotation=None)


def _param(default: float | None, kind: str, note: str, lo: float = 0.0,
           hi: float = math.inf, *, positive: bool = False):
    """Declare one parameter key.

    ``default`` is in stored units, or None for a key derived on load;
    ``kind`` is one of angular (rad/s), freq (s^-1), time (s), length (m),
    speed (m/s), dimensionless or integer; the admissible range is
    ``[lo, hi]``, open at ``lo`` when ``positive``; ``note`` is the
    provenance recorded when the default is used.
    """
    return field(metadata={"default": default, "kind": kind, "note": note,
                           "range": (lo, hi, positive)})


def _probability(default: float, note: str):
    return _param(default, "dimensionless", note, 0.0, 1.0)


@record
class PhysicalParams:
    """Emitter, cavity, spin and readout parameters (rad/s, s)."""

    gamma_r: float = _param(  # radiative decay rate
        TWO_PI * 0.59e9, "angular",
        "radiative linewidth of low-strain GaAs droplet dots", positive=True)
    gamma_nr: float = _param(  # non-radiative decay rate
        0.0, "angular", "non-radiative decay assumed negligible")
    gamma_star: float = _param(  # optical pure dephasing, from Gamma unless given
        None, "angular", "derived: (Gamma - gamma_r - gamma_nr)/2")
    kappa: float = _param(
        TWO_PI * 100e9, "angular", "photonic-crystal cavity linewidth",
        positive=True)
    g_cav: float = _param(
        TWO_PI * 10e9, "angular", "cavity coupling, g/kappa = 0.1")
    F_res: float = _param(
        500.0, "dimensionless", "resonant Purcell factor design target",
        positive=True)
    detuning: float = _param(
        TWO_PI * 275e9, "angular",
        "dot-cavity detuning during entanglement generation", -math.inf)
    sigma_sd: float = _param(
        fwhm_to_sigma(TWO_PI * 500e6), "angular",
        "spectral diffusion, sigma from a 2pi*500 MHz FWHM")
    T2_electron: float = _param(
        50e-6, "time", "electron spin coherence at 6.6 T", positive=True)
    sigma_Q: float = _param(  # quadrupolar-shift standard deviation, no 2*pi
        5.0e4, "freq", "quadrupolar shift spread, 50 kHz stored without 2pi")
    nuclear_polarization: float = _param(  # within the tabulated transfer data
        0.95, "dimensionless", "target polarization", 0.80, 1.0)
    Omega_readout: float = _param(  # readout drive amplitude
        TWO_PI * 1e9, "angular",
        "readout drive, inverted from the quoted readout fidelity")
    D_dark: float = _param(500.0, "freq", "detector dark-count rate")
    T_readout: float = _param(
        600e-9, "time", "readout window maximizing fidelity")
    F_e_init: float = _param(
        0.99996, "dimensionless",
        "optical-pumping initialization fidelity (tabulated)", 0.0, 1.0)
    delta_p: float = _param(  # gate photon spectral standard deviation
        TWO_PI * 2.4e9, "angular",
        "gate photon spectral width: lifetime 1/gamma, Purcell 3",
        positive=True)
    delta_eps1: float = _param(  # dot 1 detuning from cavity during the gate
        0.0, "angular", "dots tuned to equal frequencies", -math.inf)
    delta_eps2: float = _param(  # dot 2 detuning from cavity during the gate
        0.0, "angular", "dots tuned to equal frequencies", -math.inf)
    t_transfer: float = _param(
        330e-9, "time", "full write-read cycle, 2 x 165 ns")


@record
class LinkParams:
    """Channel geometry and efficiency budget for one repeater configuration."""

    L_total: float = _param(
        1000e3, "length", "default end-to-end channel length", positive=True)
    n_nest: int = _param(  # nesting level; 2**n_nest links, exact float to 64
        3, "integer", "three swap levels, eight elementary links", 0, 64)
    L_att: float = _param(
        25e3, "length", "fiber attenuation length, 0.17 dB/km", positive=True)
    c_fiber: float = _param(
        2e8, "speed", "signal velocity in silica fiber", positive=True)
    tau_init: float = _param(
        0.2e-6, "time",
        "electron-nuclear reinitialization after a failed attempt")
    zeta: float = _probability(0.94, "branching ratio at effective Purcell 16")
    p_emit: float = _probability(
        0.8, "cavity-mode emission probability (p*eta_c = 0.72)")
    eta_c: float = _probability(0.9, "collection efficiency")
    eta_d: float = _probability(0.9, "detector efficiency")
    eta_cav: float = _probability(0.9, "cavity-waveguide circuit efficiency")
    eta_s: float = _probability(
        0.8, "gate photon source efficiency, defaults to p_emit")
    eta_m: float = _probability(
        0.9, "external memory efficiency (comparison scheme)")
    eta_fc: float = _probability(1.0, "frequency conversion, ideal unless set")

    @property
    def L0(self) -> float:
        """Elementary link length (m): L_total / 2**n_nest, per element of an
        array ``L_total``.  Scaling by the exact power 0.5**n_nest gives 0,
        not an OverflowError, at a huge n_nest."""
        return self.L_total * 0.5**self.n_nest


@record
class ParameterSet:
    """Validated bundle of physical and link parameters with provenance notes."""

    physical: PhysicalParams
    link: LinkParams
    provenance: dict[str, str] = field(default_factory=dict)


_KEYS = {f.name: f.metadata for cls in (PhysicalParams, LinkParams)
         for f in fields(cls)}

#: Input spellings that are not stored, each mapped to the stored key it
#: sets; a config gives one or the other, not both.
_SPELLINGS = {"sigma_sd_fwhm": "sigma_sd", "Gamma": "gamma_star"}

#: The ``Gamma`` (zero-phonon-line FWHM, angular like gamma_r) from which
#: ``gamma_star`` is derived when neither spelling is given.
_GAMMA_DEFAULT = TWO_PI * 0.64e9

_FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_SCALED_UNITS = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "length": {"m": 1.0, "km": 1e3},
}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<prefix>2pi\*)?\s*(?P<num>[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)"
    r"\s*(?P<unit>[A-Za-z/]+)?\s*$"
)


def _kind_of(key: str) -> str:
    stored = _SPELLINGS.get(key, key)
    if stored not in _KEYS:
        raise ConfigError(f"unknown parameter key: {key!r}")
    return _KEYS[stored]["kind"]


def parse_quantity(key: str, text: str) -> float:
    """Parse one config value according to the key's documented unit kind.

    A value that is not finite in stored units, such as a literal that
    overflows float64 on its own or after unit conversion, is refused.
    """
    kind = _kind_of(key)
    raw = text.strip().strip("\"'").strip()
    m = _QUANTITY_RE.match(raw)
    if not m:
        raise ConfigError(f"{key}: cannot parse value {text!r}")
    num = float(m.group("num"))
    prefix = m.group("prefix") is not None
    unit = m.group("unit")

    if kind in ("angular", "freq"):
        if unit is None:
            raise ConfigError(f"{key}: frequency value {text!r} is missing a "
                              f"unit suffix (Hz/kHz/MHz/GHz or rad/s)")
        if unit == "rad/s":
            if kind == "freq":
                raise ConfigError(f"{key} is an ordinary frequency; rad/s not accepted")
            value = num * (TWO_PI if prefix else 1.0)
        elif unit in _FREQ_UNITS:
            # a plain frequency on an angular key is converted to rad/s
            value = (num * _FREQ_UNITS[unit]
                     * (TWO_PI if prefix or kind == "angular" else 1.0))
        else:
            raise ConfigError(f"{key}: unknown frequency unit {unit!r}")
    elif prefix:
        raise ConfigError(f"{key}: 2pi* prefix is only meaningful on frequencies")
    elif kind in _SCALED_UNITS:
        if unit is not None and unit not in _SCALED_UNITS[kind]:
            raise ConfigError(f"{key}: unknown {kind} unit {unit!r}")
        value = num if unit is None else num * _SCALED_UNITS[kind][unit]
    elif kind == "speed":
        if unit is not None:
            raise ConfigError(f"{key}: give the speed as a bare number in m/s")
        value = num
    elif kind == "integer":
        if unit is not None:
            raise ConfigError(f"{key}: integer value must be bare")
        if not num.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
        value = int(num)
    else:  # dimensionless
        if unit is not None:
            raise ConfigError(f"{key}: dimensionless value must be bare, got {text!r}")
        value = num
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {text!r} is not finite in stored units")
    return value


def _split_item(item: str, where: str) -> tuple[str, str]:
    """Split one ``key = value`` config line or override into a known key and
    its value text, dropping a trailing ``#`` comment."""
    key, eq, value = item.partition("=")
    key, value = key.strip(), value.split("#", 1)[0].strip()
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    if not value:
        raise ConfigError(f"{where}: empty value for {key!r}")
    _kind_of(key)  # reject unknown keys early
    return key, value


def parse_config_text(text: str) -> dict[str, str]:
    """Split flat ``key = value`` text into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = _split_item(stripped, f"line {lineno}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_parameter_set(raw: dict[str, str],
                        sources: dict[str, str] | None = None) -> ParameterSet:
    """Turn raw key->string values into a validated ParameterSet.

    Missing keys fall back to the documented defaults.  A key may instead be
    given in one of its input spellings (``_SPELLINGS``): ``sigma_sd_fwhm``
    is converted with :func:`fwhm_to_sigma`, and ``gamma_star`` is derived
    as ``(Gamma - gamma_r - gamma_nr)/2`` from ``Gamma`` when given, or from
    its 2pi*0.64 GHz default when neither spelling is.
    """
    sources = sources or {}
    values = {key: meta["default"] for key, meta in _KEYS.items()}
    provenance = {key: f"default: {meta['note']}" for key, meta in _KEYS.items()}

    for key, stored in _SPELLINGS.items():
        if key in raw and stored in raw:
            raise ConfigError(f"give either {stored} or {key}, not both")

    given = {key: parse_quantity(key, text) for key, text in raw.items()}
    for key, value in given.items():
        if key not in _SPELLINGS:
            values[key] = value
            provenance[key] = sources.get(key, "config")

    if "sigma_sd_fwhm" in given:
        values["sigma_sd"] = fwhm_to_sigma(given["sigma_sd_fwhm"])
        src = sources.get("sigma_sd_fwhm", "config")
        provenance["sigma_sd"] = f"{src} (converted from FWHM)"
    if "gamma_star" not in given:
        bare = values["gamma_r"] + values["gamma_nr"]
        values["gamma_star"] = (given.get("Gamma", _GAMMA_DEFAULT) - bare) / 2
        note = _KEYS["gamma_star"]["note"]
        if "Gamma" in given:
            note = f"{sources.get('Gamma', 'config')} ({note})"
        provenance["gamma_star"] = note

    if "eta_s" not in given and "p_emit" in given:
        values["eta_s"] = values["p_emit"]
        provenance["eta_s"] = "derived: source efficiency equals p_emit"

    physical, link = (cls(**{f.name: values[f.name] for f in fields(cls)})
                      for cls in (PhysicalParams, LinkParams))
    ps = ParameterSet(physical=physical, link=link, provenance=provenance)

    violations = validate(ps)
    if violations:
        raise ConfigError("invalid parameters: " + "; ".join(violations))
    return ps


def _build_with_overrides(raw: dict[str, str], sources: dict[str, str],
                          overrides: list[str] | None) -> ParameterSet:
    """Apply ``key=value`` override strings on top of ``raw`` and build."""
    raw, sources = dict(raw), dict(sources)
    for item in overrides or []:
        key, raw[key] = _split_item(item, "override")
        sources[key] = "cli override"
    return build_parameter_set(raw, sources)


def load_config(path: str, overrides: list[str] | None = None) -> ParameterSet:
    """Load a config file, apply ``key=value`` override strings, validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    raw = parse_config_text(text)
    return _build_with_overrides(raw, {k: f"config: {path}" for k in raw},
                                 overrides)


def default_parameters(overrides: list[str] | None = None) -> ParameterSet:
    """The full documented default set, optionally with ``key=value`` overrides."""
    return _build_with_overrides({}, {}, overrides)


def validate(ps: ParameterSet) -> list[str]:
    """Range checks of every key: one line per violation, never raises."""
    violations = []
    for obj in (ps.physical, ps.link):
        for f in fields(obj):
            lo, hi, positive = f.metadata["range"]
            v = getattr(obj, f.name)
            if not ((lo < v if positive else lo <= v) and v <= hi):
                violations.append(
                    f"{f.name} must lie in {'(' if positive else '['}{lo:g}, "
                    f"{hi:g}], got {v}")
    return violations


def to_dict(ps: ParameterSet) -> dict[str, object]:
    """Flat mapping of every field to its stored SI value (for metadata dumps)."""
    return {f.name: getattr(obj, f.name)
            for obj in (ps.physical, ps.link) for f in fields(obj)}


def with_physical(ps: ParameterSet, **changes: float) -> ParameterSet:
    """Copy of ``ps`` with selected physical fields replaced (no revalidation)."""
    return replace(ps, physical=replace(ps.physical, **changes))


def with_link(ps: ParameterSet, **changes: float) -> ParameterSet:
    """Copy of ``ps`` with selected link fields replaced (no revalidation)."""
    return replace(ps, link=replace(ps.link, **changes))
