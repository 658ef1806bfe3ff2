"""Scenario configuration: a flat key = value file, strictly validated.

Grammar: one `key = value` pair per line; blank lines and everything
after a # are ignored; keys are lowercase dotted names.  Every key must
belong to the schema of the chosen scenario; unknown keys are errors,
not warnings, so a typo cannot silently fall back to a default.  Values
are floats, integers, bare words, or comma-separated float lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    HBAR_SI,
    Grid1D,
    ParticleSpecies,
    UnitSystem,
    ValidationError,
    make_grid,
)
from .evolve import EvolutionConfig
from .interferometer import cow_neutron_preset

SCENARIOS = (
    "potential-scan",
    "free-check",
    "two-packet-decoherence",
    "perturbative-crosscheck",
    "cow-sweep",
)

_DELTA_STOP_DEFAULT = 4.0 * math.pi * HBAR_SI  # two fringe periods
_NEUTRON = cow_neutron_preset()
# cow.preset = neutron fixes these four keys at the preset's values.
_NEUTRON_GEOMETRY = {
    "cow.mass": _NEUTRON.species.mass,
    "cow.radius": _NEUTRON.species.radius,
    "cow.L": _NEUTRON.L,
    "cow.v": _NEUTRON.v,
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the key and constraint."""


@dataclass(frozen=True)
class _Key:
    typ: str                     # float | int | word | floatlist
    default: object              # None marks "computed later" (report.d_cut)
    choices: tuple[str, ...] | None = None


def _evolution_keys(dt: float, steps: int, record_every: int) -> dict[str, _Key]:
    return {
        "evolution.dt": _Key("float", dt),
        "evolution.steps": _Key("int", steps),
        "evolution.record_every": _Key("int", record_every),
    }


def _grid_keys(x_min: float, x_max: float, n: int) -> dict[str, _Key]:
    return {
        "grid.x_min": _Key("float", x_min),
        "grid.x_max": _Key("float", x_max),
        "grid.n": _Key("int", n),
    }


_SPECIES_KEYS = {
    "species.mass": _Key("float", 1.0),
    "species.radius": _Key("float", 1.0),
}

_COMMON = {
    "scenario": _Key("word", None, SCENARIOS),
}

SCHEMAS: dict[str, dict[str, _Key]] = {
    "potential-scan": {
        **_COMMON,
        **_SPECIES_KEYS,
        "coupling.g": _Key("float", 1.0),
        "potential.r_max": _Key("float", 10.0),
        "potential.samples": _Key("int", 4096),
    },
    "free-check": {
        **_COMMON,
        **_SPECIES_KEYS,
        **_grid_keys(-20.0, 20.0, 512),
        "packet.width": _Key("float", 0.5),
        "packet.center": _Key("float", 0.0),
        "packet.momentum": _Key("float", 0.0),
        # dt = doubling time / steps; doubling time is sqrt(3) 2 m w^2 / hbar.
        **_evolution_keys(math.sqrt(3.0) * 2.0 * 0.25 / 1000.0, 1000, 100),
        "report.d_cut": _Key("float", None),
    },
    "two-packet-decoherence": {
        **_COMMON,
        **_SPECIES_KEYS,
        **_grid_keys(-16.0, 16.0, 512),
        "packet.width": _Key("float", 0.7),
        "packet.separation": _Key("float", 8.0),
        "packet.momentum": _Key("float", 0.0),
        "coupling.g": _Key("float", 0.5),  # documented demonstration coupling
        "scan.couplings": _Key("floatlist", (0.125, 0.25, 0.5)),
        **_evolution_keys(5e-4, 2000, 50),
        "report.d_cut": _Key("float", None),
    },
    "perturbative-crosscheck": {
        **_COMMON,
        **_SPECIES_KEYS,
        **_grid_keys(-16.0, 16.0, 512),
        "packet.width": _Key("float", 0.7),
        "packet.separation": _Key("float", 4.0),
        "packet.momentum": _Key("float", 0.0),
        "coupling.g": _Key("float", 1.0 / 3.0),
        "dyson.halvings": _Key("int", 1),
        **_evolution_keys(5e-4, 500, 100),
    },
    "cow-sweep": {
        **_COMMON,
        "cow.preset": _Key("word", "neutron", ("neutron", "custom")),
        **{key: _Key("float", value) for key, value in _NEUTRON_GEOMETRY.items()},
        "cow.delta_start": _Key("float", 0.0),
        "cow.delta_stop": _Key("float", _DELTA_STOP_DEFAULT),
        "cow.delta_points": _Key("int", 1000),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario description."""

    scenario: str
    units: UnitSystem
    species: ParticleSpecies
    grid: Grid1D | None = None
    evolution: EvolutionConfig | None = None
    params: dict[str, object] = field(default_factory=dict)
    resolved: dict[str, str] = field(default_factory=dict)


def _parse_lines(text: str, source: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _coerce(key: str, spec: _Key, text: str):
    if spec.typ == "float":
        try:
            v = float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"{key}: must be finite, got {text!r}")
        return v
    if spec.typ == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if spec.typ == "word":
        if spec.choices is not None and text not in spec.choices:
            raise ConfigError(
                f"{key}: must be one of {', '.join(spec.choices)}; got {text!r}"
            )
        return text
    if spec.typ == "floatlist":
        try:
            vals = tuple(float(part) for part in text.split(","))
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {text!r}") from None
        if not vals or not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"{key}: needs at least one finite number")
        return vals
    raise AssertionError(spec.typ)


def _canonical(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    raw = _parse_lines(text, source)
    scenario = raw.get("scenario")
    if scenario is None:
        raise ConfigError(f"{source}: missing required key 'scenario'")
    if scenario not in SCHEMAS:
        raise ConfigError(
            f"scenario: must be one of {', '.join(SCENARIOS)}; got {scenario!r}"
        )
    schema = SCHEMAS[scenario]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} for scenario {scenario} "
            f"(valid keys: {', '.join(sorted(schema))})"
        )
    values: dict[str, object] = {}
    for key, spec in schema.items():
        if key in raw:
            values[key] = _coerce(key, spec, raw[key])
        else:
            values[key] = spec.default
    return _build(scenario, values)


def load_config(path: str | Path) -> ScenarioConfig:
    # An unreadable file is an I/O failure, not a validation failure;
    # let the OSError propagate so the CLI maps it to its own exit code.
    p = Path(path)
    text = p.read_text()
    return parse_config(text, source=str(p))


def _positive(values: dict[str, object], key: str) -> float:
    v = values[key]
    if not (isinstance(v, (int, float)) and v > 0):
        raise ConfigError(f"{key}: must be > 0, got {v!r}")
    return float(v)


def _build(scenario: str, values: dict[str, object]) -> ScenarioConfig:
    params: dict[str, object] = {}

    if scenario == "cow-sweep":
        units = UnitSystem.si()
        if values["cow.preset"] == "neutron":
            # The four geometry keys may not fight the preset.
            for key, default in _NEUTRON_GEOMETRY.items():
                if values[key] != default:
                    raise ConfigError(
                        f"{key}: conflicts with cow.preset = neutron; "
                        "set cow.preset = custom to override the geometry"
                    )
        species = ParticleSpecies(
            mass=_positive(values, "cow.mass"), radius=_positive(values, "cow.radius")
        )
        start = float(values["cow.delta_start"])
        stop = float(values["cow.delta_stop"])
        npts = values["cow.delta_points"]
        if not (isinstance(npts, int) and npts >= 2):
            raise ConfigError(f"cow.delta_points: must be an integer >= 2, got {npts!r}")
        if not stop > start:
            raise ConfigError(
                f"cow.delta_stop: must exceed cow.delta_start ({stop!r} <= {start!r})"
            )
        params.update(
            L=_positive(values, "cow.L"),
            v=_positive(values, "cow.v"),
            delta_start=start,
            delta_stop=stop,
            delta_points=npts,
        )
        return ScenarioConfig(
            scenario=scenario,
            units=units,
            species=species,
            params=params,
            resolved={k: _canonical(v) for k, v in values.items()},
        )

    g = float(values["coupling.g"]) if "coupling.g" in values else 0.0
    if g < 0:
        raise ConfigError(f"coupling.g: must be >= 0, got {g!r}")
    units = UnitSystem.dimensionless(g)
    try:
        species = ParticleSpecies(
            mass=float(values["species.mass"]), radius=float(values["species.radius"])
        )
    except ValidationError as exc:
        raise ConfigError(f"species: {exc}") from None

    if scenario == "potential-scan":
        samples = values["potential.samples"]
        if not (isinstance(samples, int) and samples >= 2):
            raise ConfigError(f"potential.samples: must be an integer >= 2, got {samples!r}")
        params.update(r_max=_positive(values, "potential.r_max"), samples=samples)
        return ScenarioConfig(
            scenario=scenario,
            units=units,
            species=species,
            params=params,
            resolved={k: _canonical(v) for k, v in values.items()},
        )

    try:
        grid = make_grid(
            float(values["grid.x_min"]), float(values["grid.x_max"]), values["grid.n"]
        )
    except ValidationError as exc:
        raise ConfigError(f"grid: {exc}") from None

    for key in ("evolution.steps", "evolution.record_every"):
        count = values[key]
        if not (isinstance(count, int) and count >= 1):
            raise ConfigError(f"{key}: must be an integer >= 1, got {count!r}")
    try:
        evolution = EvolutionConfig(
            dt=float(values["evolution.dt"]),
            steps=values["evolution.steps"],
            record_every=values["evolution.record_every"],
        )
        evolution.check_stability(grid, species.mass, units.hbar)
    except ValidationError as exc:  # CFLViolation included; the counts passed above
        raise ConfigError(f"evolution.dt: {exc}") from None

    width = _positive(values, "packet.width")
    if width <= 2.0 * grid.dx:
        raise ConfigError(
            f"packet.width: {width!r} under-resolved on this grid (need > {2.0 * grid.dx})"
        )
    params["width"] = width
    params["momentum"] = float(values["packet.momentum"])

    if scenario == "free-check":
        params["center"] = float(values["packet.center"])
    else:
        sep = _positive(values, "packet.separation")
        if sep <= 2.0 * width:
            raise ConfigError(
                f"packet.separation: {sep!r} too small; packets overlap (need > {2.0 * width})"
            )
        params["separation"] = sep

    if "report.d_cut" in values:
        d_cut = values["report.d_cut"]
        if d_cut is None:
            d_cut = 4.0 * width  # default band: four initial packet widths
        elif not (isinstance(d_cut, float) and d_cut > 0):
            raise ConfigError(f"report.d_cut: must be > 0, got {d_cut!r}")
        params["d_cut"] = float(d_cut)
        values["report.d_cut"] = float(d_cut)

    if scenario == "two-packet-decoherence":
        couplings = tuple(sorted(values["scan.couplings"]))
        if any(c <= 0 for c in couplings):
            raise ConfigError(f"scan.couplings: all couplings must be > 0, got {couplings!r}")
        if g <= 0:
            raise ConfigError(f"coupling.g: demonstration coupling must be > 0, got {g!r}")
        params["couplings"] = couplings
        values["scan.couplings"] = couplings

    if scenario == "perturbative-crosscheck":
        halvings = values["dyson.halvings"]
        if not (isinstance(halvings, int) and 1 <= halvings <= 6):
            raise ConfigError(f"dyson.halvings: must be an integer in [1, 6], got {halvings!r}")
        if g <= 0:
            raise ConfigError(f"coupling.g: must be > 0 for the crosscheck, got {g!r}")
        params["halvings"] = halvings

    return ScenarioConfig(
        scenario=scenario,
        units=units,
        species=species,
        grid=grid,
        evolution=evolution,
        params=params,
        resolved={k: _canonical(v) for k, v in values.items()},
    )
