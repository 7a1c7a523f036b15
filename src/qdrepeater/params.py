"""Physical and link parameters: defaults, unit handling, config ingestion.

Unit conventions used throughout the package:

* optical and spin rates are stored as angular frequencies (rad/s),
* times in seconds, lengths in meters, magnetic fields in Tesla,
* plain counting rates (detector dark counts, Overhauser shift, quadrupolar
  spread) are stored as ordinary frequencies (Hz, i.e. s^-1) with no 2*pi.

Config files are flat ``key = value`` text.  Frequency-like values must carry
a unit suffix (``Hz``, ``kHz``, ``MHz``, ``GHz``, or ``rad/s``) and may use a
``2pi*`` prefix, e.g. ``gamma_r = "2pi*0.59 GHz"``.  Keys documented as
angular are converted to rad/s on load whether or not the prefix is written;
the prefix on a non-angular key is an explicit factor of 2*pi.  Times accept
{s, ms, us, ns, ps}, lengths {m, km}; both also accept bare SI numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

TWO_PI = 2.0 * math.pi

_GAUSSIAN_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))


class ConfigError(ValueError):
    """Raised when a config file or override cannot be turned into parameters."""


def fwhm_to_sigma(fwhm: float) -> float:
    """Convert a Gaussian full width at half maximum to a standard deviation."""
    if fwhm < 0:
        raise ValueError(f"FWHM must be non-negative, got {fwhm}")
    return fwhm / _GAUSSIAN_FWHM


@dataclass(frozen=True)
class PhysicalParams:
    """Emitter, cavity, spin and readout parameters (rad/s, s, T)."""

    gamma_r: float        # radiative decay rate (rad/s)
    gamma_nr: float       # non-radiative decay rate (rad/s)
    gamma_star: float     # optical pure dephasing (rad/s)
    Gamma: float          # zero-phonon-line FWHM, = gamma_r+gamma_nr+2*gamma_star
    kappa: float          # cavity linewidth (rad/s)
    g_cav: float          # cavity coupling (rad/s)
    F_res: float          # resonant Purcell factor
    detuning: float       # emitter-cavity detuning during entanglement generation (rad/s)
    sigma_sd: float       # spectral-diffusion standard deviation per dot (rad/s)
    T2_electron: float    # electron spin coherence time (s)
    B_x: float            # in-plane magnetic field (T)
    g_e: float            # electron g-factor
    g_h: float            # hole g-factor
    omega_Z_nuclear: float  # nuclear Zeeman splitting (rad/s)
    sigma_Q: float        # quadrupolar-shift standard deviation (s^-1, no 2*pi)
    nuclear_polarization: float
    Delta_OH_max: float   # maximum Overhauser shift (Hz)
    Omega_readout: float  # readout drive amplitude (rad/s)
    D_dark: float         # detector dark-count rate (Hz)
    T_readout: float      # readout window (s)
    F_e_init: float       # electron spin initialization fidelity
    delta_p: float        # gate photon spectral standard deviation (rad/s)
    delta_eps1: float     # dot 1 detuning from cavity during the gate (rad/s)
    delta_eps2: float     # dot 2 detuning from cavity during the gate (rad/s)
    t_transfer: float     # full write-read transfer duration (s)


@dataclass(frozen=True)
class LinkParams:
    """Channel geometry and efficiency budget for one repeater configuration."""

    L_total: float    # end-to-end channel length (m)
    n_nest: int       # nesting level; number of elementary links is 2**n_nest
    L_att: float      # fiber attenuation length (m)
    c_fiber: float    # signal velocity in fiber (m/s)
    tau_init: float   # electron-nuclear reinitialization time (s)
    zeta: float       # Purcell-enhanced branching ratio
    p_emit: float     # probability of emission into the cavity mode
    eta_c: float      # collection efficiency
    eta_d: float      # detector efficiency
    eta_cav: float    # cavity circuit efficiency
    eta_s: float      # gate single-photon source efficiency
    eta_m: float      # external memory efficiency (pair-source comparison scheme)
    eta_fc: float     # frequency-conversion efficiency

    @property
    def L0(self) -> float:
        """Elementary link length (m)."""
        return self.L_total / 2**self.n_nest


@dataclass(frozen=True)
class ParameterSet:
    """Validated bundle of physical and link parameters with provenance notes."""

    physical: PhysicalParams
    link: LinkParams
    provenance: dict[str, str] = field(default_factory=dict)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Defaults.  Each entry: (raw default value, parse kind, provenance note).
# Kinds: angular (rad/s), freq (s^-1), time (s), length (m), speed (m/s),
# tesla (T), dimensionless, integer.
# ---------------------------------------------------------------------------

_PHYSICAL_SCHEMA: dict[str, tuple[float, str, str]] = {
    "gamma_r": (TWO_PI * 0.59e9, "angular",
                "radiative linewidth of low-strain GaAs droplet dots"),
    "gamma_nr": (0.0, "angular", "non-radiative decay assumed negligible"),
    "gamma_star": (TWO_PI * 0.025e9, "angular",
                   "derived: (Gamma - gamma_r - gamma_nr)/2"),
    "Gamma": (TWO_PI * 0.64e9, "angular",
              "zero-phonon-line FWHM, stored angular like gamma_r"),
    "kappa": (TWO_PI * 100e9, "angular", "photonic-crystal cavity linewidth"),
    "g_cav": (TWO_PI * 10e9, "angular", "cavity coupling, g/kappa = 0.1"),
    "F_res": (500.0, "dimensionless", "resonant Purcell factor design target"),
    "detuning": (TWO_PI * 275e9, "angular",
                 "dot-cavity detuning during entanglement generation"),
    "sigma_sd": (fwhm_to_sigma(TWO_PI * 500e6), "angular",
                 "spectral diffusion, sigma from a 2pi*500 MHz FWHM"),
    "T2_electron": (50e-6, "time", "electron spin coherence at 6.6 T"),
    "B_x": (6.6, "tesla", "in-plane applied field"),
    "g_e": (-0.076, "dimensionless", "electron g-factor, GaAs dots"),
    "g_h": (1.309, "dimensionless", "hole g-factor, GaAs dots"),
    "omega_Z_nuclear": (TWO_PI * 7.22e6 * 6.6, "angular",
                        "As nuclear Zeeman, 2pi*7.22 MHz/T at B_x = 6.6 T"),
    "sigma_Q": (5.0e4, "freq",
                "quadrupolar shift spread, 50 kHz stored without 2pi"),
    "nuclear_polarization": (0.95, "dimensionless", "target polarization"),
    "Delta_OH_max": (31e9, "freq", "maximum Overhauser shift in GaAs"),
    "Omega_readout": (TWO_PI * 1e9, "angular",
                      "readout drive, inverted from the quoted readout fidelity"),
    "D_dark": (500.0, "freq", "detector dark-count rate"),
    "T_readout": (600e-9, "time", "readout window maximizing fidelity"),
    "F_e_init": (0.99996, "dimensionless",
                 "optical-pumping initialization fidelity (tabulated)"),
    "delta_p": (TWO_PI * 2.4e9, "angular",
                "gate photon spectral width: lifetime 1/gamma, Purcell 3"),
    "delta_eps1": (0.0, "angular", "dots tuned to equal frequencies"),
    "delta_eps2": (0.0, "angular", "dots tuned to equal frequencies"),
    "t_transfer": (330e-9, "time", "full write-read cycle, 2 x 165 ns"),
}

_LINK_SCHEMA: dict[str, tuple[float, str, str]] = {
    "L_total": (1000e3, "length", "default end-to-end channel length"),
    "n_nest": (3, "integer", "three swap levels, eight elementary links"),
    "L_att": (25e3, "length", "fiber attenuation length, 0.17 dB/km"),
    "c_fiber": (2e8, "speed", "signal velocity in silica fiber"),
    "tau_init": (0.2e-6, "time", "electron-nuclear reinitialization after a failed attempt"),
    "zeta": (0.94, "dimensionless", "branching ratio at effective Purcell 16"),
    "p_emit": (0.8, "dimensionless", "cavity-mode emission probability (p*eta_c = 0.72)"),
    "eta_c": (0.9, "dimensionless", "collection efficiency"),
    "eta_d": (0.9, "dimensionless", "detector efficiency"),
    "eta_cav": (0.9, "dimensionless", "cavity-waveguide circuit efficiency"),
    "eta_s": (0.8, "dimensionless", "gate photon source efficiency, defaults to p_emit"),
    "eta_m": (0.9, "dimensionless", "external memory efficiency (comparison scheme)"),
    "eta_fc": (1.0, "dimensionless", "frequency conversion, ideal unless set"),
}

_FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_LEN_UNITS = {"m": 1.0, "km": 1e3}

_UNITLESS_IN = {"dimensionless", "integer", "speed", "tesla"}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<prefix>2pi\*)?\s*(?P<num>[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)"
    r"\s*(?P<unit>[A-Za-z/]+)?\s*$"
)


def _kind_of(key: str) -> str:
    if key in _PHYSICAL_SCHEMA:
        return _PHYSICAL_SCHEMA[key][1]
    if key in _LINK_SCHEMA:
        return _LINK_SCHEMA[key][1]
    if key == "sigma_sd_fwhm":
        return "angular"
    raise ConfigError(f"unknown parameter key: {key!r}")


def parse_quantity(key: str, text: str) -> float:
    """Parse one config value according to the key's documented unit kind."""
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
            value = num * (TWO_PI if prefix else 1.0)
            if kind == "freq":
                raise ConfigError(f"{key} is an ordinary frequency; rad/s not accepted")
            return value
        if unit not in _FREQ_UNITS:
            raise ConfigError(f"{key}: unknown frequency unit {unit!r}")
        value = num * _FREQ_UNITS[unit]
        if kind == "angular":
            return TWO_PI * value  # plain frequency on an angular key
        return value * (TWO_PI if prefix else 1.0)

    if prefix:
        raise ConfigError(f"{key}: 2pi* prefix is only meaningful on frequencies")

    if kind == "time":
        if unit is None:
            return num
        if unit not in _TIME_UNITS:
            raise ConfigError(f"{key}: unknown time unit {unit!r}")
        return num * _TIME_UNITS[unit]
    if kind == "length":
        if unit is None:
            return num
        if unit not in _LEN_UNITS:
            raise ConfigError(f"{key}: unknown length unit {unit!r}")
        return num * _LEN_UNITS[unit]
    if kind == "tesla":
        if unit in (None, "T"):
            return num
        raise ConfigError(f"{key}: unknown field unit {unit!r}")
    if kind == "speed":
        if unit is not None:
            raise ConfigError(f"{key}: give the speed as a bare number in m/s")
        return num
    if kind == "integer":
        if unit is not None:
            raise ConfigError(f"{key}: integer value must be bare")
        if num != int(num):
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
        return num
    # dimensionless
    if unit is not None:
        raise ConfigError(f"{key}: dimensionless value must be bare, got {text!r}")
    return num


def parse_config_text(text: str) -> dict[str, str]:
    """Split flat ``key = value`` text into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        _kind_of(key)  # reject unknown keys early
        raw[key] = value
    return raw


def build_parameter_set(raw: dict[str, str],
                        sources: dict[str, str] | None = None) -> ParameterSet:
    """Turn raw key->string values into a validated ParameterSet.

    Missing keys fall back to the documented defaults.  ``sigma_sd_fwhm`` is
    accepted as an alternative spelling of the spectral-diffusion width and is
    converted with :func:`fwhm_to_sigma`.  When only one of ``Gamma`` /
    ``gamma_star`` is given the other is derived from
    ``Gamma = gamma_r + gamma_nr + 2*gamma_star``.
    """
    sources = sources or {}
    values: dict[str, float] = {}
    provenance: dict[str, str] = {}
    for key, (default, _, note) in {**_PHYSICAL_SCHEMA, **_LINK_SCHEMA}.items():
        values[key] = default
        provenance[key] = f"default: {note}"

    if "sigma_sd" in raw and "sigma_sd_fwhm" in raw:
        raise ConfigError("give either sigma_sd or sigma_sd_fwhm, not both")

    explicit = set()
    for key, text in raw.items():
        value = parse_quantity(key, text)
        src = sources.get(key, "config")
        if key == "sigma_sd_fwhm":
            values["sigma_sd"] = fwhm_to_sigma(value)
            provenance["sigma_sd"] = f"{src} (converted from FWHM)"
            explicit.add("sigma_sd")
            continue
        values[key] = value
        provenance[key] = src
        explicit.add(key)

    # resolve the redundant linewidth pair
    bare = values["gamma_r"] + values["gamma_nr"]
    if "gamma_star" in explicit and "Gamma" not in explicit:
        values["Gamma"] = bare + 2 * values["gamma_star"]
        provenance["Gamma"] = "derived: gamma_r + gamma_nr + 2*gamma_star"
    elif "gamma_star" not in explicit:
        values["gamma_star"] = (values["Gamma"] - bare) / 2
        provenance["gamma_star"] = "derived: (Gamma - gamma_r - gamma_nr)/2"

    if "eta_s" not in explicit and "p_emit" in explicit:
        values["eta_s"] = values["p_emit"]
        provenance["eta_s"] = "derived: source efficiency equals p_emit"

    physical = PhysicalParams(**{k: values[k] for k in _PHYSICAL_SCHEMA})
    link_kwargs = {k: values[k] for k in _LINK_SCHEMA}
    link_kwargs["n_nest"] = int(link_kwargs["n_nest"])
    link = LinkParams(**link_kwargs)
    ps = ParameterSet(physical=physical, link=link, provenance=provenance)

    report = validate(ps)
    if not report.ok:
        raise ConfigError("invalid parameters: " + "; ".join(report.violations))
    return ps


def _build_with_overrides(raw: dict[str, str], sources: dict[str, str],
                          overrides: list[str] | None) -> ParameterSet:
    """Apply ``key=value`` override strings on top of ``raw`` and build."""
    raw, sources = dict(raw), dict(sources)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        _kind_of(key)  # reject unknown keys early
        raw[key] = value.strip()
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


def validate(ps: ParameterSet) -> ValidationReport:
    """Range and consistency checks; report-style, never raises."""
    report = ValidationReport()
    p, l = ps.physical, ps.link

    def check(cond: bool, msg: str) -> None:
        if not cond:
            report.violations.append(msg)

    for name in ("gamma_r", "gamma_nr", "gamma_star", "Gamma", "kappa", "g_cav",
                 "F_res", "sigma_sd", "T2_electron", "B_x", "omega_Z_nuclear",
                 "sigma_Q", "Delta_OH_max", "Omega_readout", "D_dark",
                 "T_readout", "delta_p", "t_transfer"):
        check(getattr(p, name) >= 0, f"{name} must be non-negative")
    check(0.0 <= p.nuclear_polarization <= 1.0,
          "nuclear_polarization must lie in [0, 1]")
    check(0.0 <= p.F_e_init <= 1.0, "F_e_init must lie in [0, 1]")
    check(p.Gamma >= p.gamma_r + p.gamma_nr - 1e-9 * max(p.Gamma, 1.0),
          "Gamma must be at least gamma_r + gamma_nr")
    expected = p.gamma_r + p.gamma_nr + 2 * p.gamma_star
    check(math.isclose(p.Gamma, expected, rel_tol=1e-6, abs_tol=1e-3),
          "Gamma is inconsistent with gamma_r + gamma_nr + 2*gamma_star")

    for name in ("zeta", "p_emit", "eta_c", "eta_d", "eta_cav", "eta_s",
                 "eta_m", "eta_fc"):
        v = getattr(l, name)
        check(0.0 <= v <= 1.0, f"{name} must lie in [0, 1], got {v}")
    check(l.L_total > 0, "L_total must be positive")
    check(l.L_att > 0, "L_att must be positive")
    check(l.c_fiber > 0, "c_fiber must be positive")
    check(l.tau_init >= 0, "tau_init must be non-negative")
    check(l.n_nest >= 0, "n_nest must be non-negative")

    if report.ok:
        # cooperativity via the resonant-Purcell identification F_p = C
        report.notes.append(
            f"cooperativity C = {p.F_res:g} (resonant-Purcell identification)")
        if p.gamma_r > 0 and p.kappa > 0:
            raw_c = 4 * p.g_cav**2 / (p.kappa * p.gamma_r)
            report.notes.append(f"4g^2/(kappa*gamma_r) = {raw_c:.3g}")
        report.notes.append(
            f"elementary link L0 = {l.L0 / 1e3:.6g} km over "
            f"{2**l.n_nest} links")
    return report


def serialize(ps: ParameterSet) -> str:
    """Emit config text that reloads to a field-wise identical ParameterSet.

    Angular rates are written in rad/s and other quantities in base SI units
    so that the round trip is bit-exact.
    """
    lines = ["# generated parameter set"]
    for schema, obj in ((_PHYSICAL_SCHEMA, ps.physical), (_LINK_SCHEMA, ps.link)):
        for key, (_, kind, _) in schema.items():
            value = getattr(obj, key)
            if kind == "angular":
                lines.append(f"{key} = \"{value!r} rad/s\"")
            elif kind == "freq":
                lines.append(f"{key} = \"{value!r} Hz\"")
            elif kind == "time":
                lines.append(f"{key} = \"{value!r} s\"")
            elif kind == "length":
                lines.append(f"{key} = \"{value!r} m\"")
            elif kind == "integer":
                lines.append(f"{key} = {int(value)}")
            else:
                lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def to_dict(ps: ParameterSet) -> dict[str, object]:
    """Flat mapping of every field to its stored SI value (for metadata dumps)."""
    out: dict[str, object] = {}
    for f in fields(ps.physical):
        out[f.name] = getattr(ps.physical, f.name)
    for f in fields(ps.link):
        out[f.name] = getattr(ps.link, f.name)
    return out


def with_physical(ps: ParameterSet, **changes: float) -> ParameterSet:
    """Copy of ``ps`` with selected physical fields replaced (no revalidation)."""
    return replace(ps, physical=replace(ps.physical, **changes))


def with_link(ps: ParameterSet, **changes: float) -> ParameterSet:
    """Copy of ``ps`` with selected link fields replaced (no revalidation)."""
    return replace(ps, link=replace(ps.link, **changes))
