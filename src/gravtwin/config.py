"""Scenario configuration: a flat key = value file, strictly validated.

Grammar: one `key = value` pair per line; blank lines and everything
after a # are ignored; keys are lowercase dotted names.  Every key must
belong to the schema of the chosen scenario; unknown keys are errors,
not warnings, so a typo cannot silently fall back to a default.  Values
are floats, integers, bare words, or comma-separated float lists.  Each
schema entry carries its key's type, default and range, checked as the
value is read; only the rules that tie keys together are checked after.
"""
from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from .core import (
    HBAR_SI,
    Grid1D,
    ParticleSpecies,
    SeparatedState,
    UnitSystem,
    ValidationError,
    check_packet_width,
    free_packet_doubling_time,
    separated_product_state,
)
from .evolve import EvolutionConfig, check_first_order_window
from .interferometer import InterferometerConfig, _actions, cow_neutron_preset
from .potential import PairPotential

_DELTA_STOP_DEFAULT = 4.0 * math.pi * HBAR_SI  # two fringe periods
_FREE_CHECK_WIDTH = 0.5  # free-check packet.width default; its evolution.dt default follows from it
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
    """One config key: its type, its default, and the range of its values."""

    typ: str                     # float | int | word | floatlist
    default: object              # None marks "computed later" (report.d_cut)
    choices: tuple[str, ...] | None = None   # word: the allowed words
    positive: bool = False       # float, floatlist: every value > 0
    low: float = -math.inf       # int: the value lies in [low, high]
    high: float = math.inf


# The largest count whose array of 16-byte complex numpy can size.  Past it
# numpy fails before trying to allocate; below it a count too large for
# memory fails as a MemoryError, which the CLI reports as invalid input.
_MAX_COUNT = sys.maxsize // 16


def _memory_bytes() -> float:
    """The memory a run may hold, in bytes; unbounded where nothing can tell.

    The machine's physical memory (os.sysconf), or the memory limit of the
    cgroup at the root of /sys/fs/cgroup (v2 or v1) where one is set and
    lower, as inside a container.  Memory other processes already hold is
    not subtracted, so a count just under this figure may still fail in
    the run.
    """
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        pass
    for limit in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            limits.append(int(Path(limit).read_text()))
        except (OSError, ValueError):  # no such file, or "max"
            pass
    return float(min(limits, default=math.inf))


_MEMORY = _memory_bytes()
# What a run holds per sample at its peak, the CSV text included, from
# tracemalloc over 1e4-4e5 samples: a neutron cow sweep 626-629 B per delta
# point, a potential scan 301-303 B per r sample (at two radii and r_max).
_COW_BYTES_PER_POINT = 626
_POTENTIAL_BYTES_PER_SAMPLE = 302
# A grid run's peak per n x n cell, from tracemalloc at n = 512 and 1024 over
# one to five couplings: the 16 B final state evolve keeps per coupling, and
# 34 B beside them for rho and its Cholesky copy at the last record point.
_GRID_BYTES_PER_CELL = 34
_GRID_BYTES_PER_CELL_PER_COUPLING = 16


def _check_fits(key: str, count: int, each: int, what: str) -> None:
    """Refuse `count` items of `each` bytes that would not fit in _MEMORY, naming key."""
    if count * each > _MEMORY:
        raise ConfigError(
            f"{key}: {count} {what} need about {count * each:.3g} bytes, "
            f"more than the {_MEMORY:.3g} bytes of memory here"
        )


def _positive(default: float) -> _Key:
    return _Key("float", default, positive=True)


def _count(default: int, low: int, high: int = _MAX_COUNT) -> _Key:
    return _Key("int", default, low=low, high=high)


def _evolution_keys(dt: float, steps: int, record_every: int) -> dict[str, _Key]:
    return {
        "evolution.dt": _positive(dt),
        "evolution.steps": _count(steps, low=1),
        "evolution.record_every": _count(record_every, low=1),
    }


def _grid_keys(x_min: float, x_max: float, n: int) -> dict[str, _Key]:
    return {
        "grid.x_min": _Key("float", x_min),
        "grid.x_max": _Key("float", x_max),
        "grid.n": _count(n, low=8),
    }


_SPECIES_KEYS = {
    "species.mass": _positive(1.0),
    "species.radius": _positive(1.0),
}

_COMMON = {
    "scenario": _Key("word", None),  # read checks it against the SCHEMAS keys
}

# The scenarios are the keys of SCHEMAS, each with the keys its config may set.
SCHEMAS: dict[str, dict[str, _Key]] = {
    "potential-scan": {
        **_COMMON,
        **_SPECIES_KEYS,
        "coupling.g": _Key("float", 1.0),
        "potential.r_max": _positive(10.0),
        "potential.samples": _count(4096, low=2),
    },
    "free-check": {
        **_COMMON,
        "species.mass": _positive(1.0),
        **_grid_keys(-20.0, 20.0, 512),
        "packet.width": _positive(_FREE_CHECK_WIDTH),
        "packet.center": _Key("float", 0.0),
        "packet.momentum": _Key("float", 0.0),
        # dt = doubling time / steps, at the default width and m = hbar = 1.
        **_evolution_keys(free_packet_doubling_time(_FREE_CHECK_WIDTH, 1.0, 1.0) / 1000.0, 1000, 100),
        "report.d_cut": _positive(None),
    },
    "two-packet-decoherence": {
        **_COMMON,
        **_SPECIES_KEYS,
        **_grid_keys(-16.0, 16.0, 512),
        "packet.width": _positive(0.7),
        "packet.separation": _positive(8.0),
        "packet.momentum": _Key("float", 0.0),
        "coupling.g": _positive(0.5),  # documented demonstration coupling
        "scan.couplings": _Key("floatlist", (0.125, 0.25, 0.5), positive=True),
        **_evolution_keys(5e-4, 2000, 50),
        "report.d_cut": _positive(None),
    },
    "perturbative-crosscheck": {
        **_COMMON,
        **_SPECIES_KEYS,
        **_grid_keys(-16.0, 16.0, 512),
        "packet.width": _positive(0.7),
        "packet.separation": _positive(4.0),
        "packet.momentum": _Key("float", 0.0),
        "coupling.g": _positive(1.0 / 3.0),
        "dyson.halvings": _count(1, low=1, high=6),
        **_evolution_keys(5e-4, 500, 100),
    },
    "cow-sweep": {
        **_COMMON,
        "cow.preset": _Key("word", "neutron", ("neutron", "custom")),
        **{key: _positive(value) for key, value in _NEUTRON_GEOMETRY.items()},
        "cow.delta_start": _Key("float", 0.0),
        "cow.delta_stop": _Key("float", _DELTA_STOP_DEFAULT),
        "cow.delta_points": _count(1000, low=2),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario description.

    values holds every key of the scenario's schema under its config name,
    typed and in range.  The physics objects are built from them and hold
    each fact once: evolution and the start state (whose grid is the run's
    grid) for the grid scenarios, pairs (one pair potential per coupling of
    the run, each with the species and units) for every scenario but
    cow-sweep, and two_arm, the geometry at delta = 0, for cow-sweep.
    """

    scenario: str
    values: dict[str, object]
    evolution: EvolutionConfig | None = None
    two_arm: InterferometerConfig | None = None
    start: SeparatedState | None = field(default=None, compare=False)  # its == compares arrays
    pairs: tuple[PairPotential, ...] = ()

    @property
    def resolved(self) -> dict[str, str]:
        """Every value as its canonical string: the config the manifest records."""
        return {key: _canonical(value) for key, value in self.values.items()}


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
    """The typed value of one key, checked against the key's own range."""
    if spec.typ == "word":
        if spec.choices is not None and text not in spec.choices:
            raise ConfigError(
                f"{key}: must be one of {', '.join(spec.choices)}; got {text!r}"
            )
        return text
    if spec.typ == "int":
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
        if value < spec.low:
            raise ConfigError(f"{key}: must be an integer >= {spec.low}, got {value!r}")
        if value > spec.high:
            raise ConfigError(f"{key}: must be an integer <= {spec.high}, got {value!r}")
        return value
    try:
        if spec.typ == "float":
            value = float(text)
            numbers = (value,)
        else:
            value = numbers = tuple(float(part) for part in text.split(","))
    except ValueError:
        what = "a number" if spec.typ == "float" else "comma-separated numbers"
        raise ConfigError(f"{key}: expected {what}, got {text!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key}: must be finite, got {text!r}")
    if spec.positive and not all(v > 0 for v in numbers):
        raise ConfigError(f"{key}: must be > 0, got {value!r}")
    return value


def _canonical(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read(scenario: str, raw: Mapping[str, str | None], names: Mapping[str, str] | None = None) -> ScenarioConfig:
    """The config of scenario from the text of the keys in raw; defaults fill the rest.

    A key whose text is None counts as not given, so it takes its default.

    names maps a key to the name its value was given under, such as a
    command-line flag; the key's errors start with that name.
    """
    if scenario not in SCHEMAS:
        raise ConfigError(f"scenario: must be one of {', '.join(SCHEMAS)}; got {scenario!r}")
    schema = SCHEMAS[scenario]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} for scenario {scenario} "
            f"(valid keys: {', '.join(sorted(schema))})"
        )

    def name(key: str) -> str:
        return names.get(key, key) if names else key

    raw = {**raw, "scenario": scenario}  # a caller other than parse_config leaves it out
    values = {
        key: spec.default if raw.get(key) is None else _coerce(name(key), spec, raw[key])
        for key, spec in schema.items()
    }
    return _build(scenario, values, name)


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    raw = _parse_lines(text, source)
    if "scenario" not in raw:
        raise ConfigError(f"{source}: missing required key 'scenario'")
    return read(raw["scenario"], raw)


def load_config(path: str | Path) -> ScenarioConfig:
    # An unreadable file is an I/O failure, not a validation failure;
    # let the OSError propagate so the CLI maps it to its own exit code.
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading byte-order mark is not part of the first key
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text, source=str(p))


@contextmanager
def _named(key: str):
    """Report a ValidationError raised inside the block as a ConfigError on key."""
    try:
        yield
    except ValidationError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _build(scenario: str, values: dict[str, object], name: Callable[[str], str]) -> ScenarioConfig:
    """The config from typed, in-range values: the rules that tie keys together, each error led by name(key).

    The only builder of a run's physics objects, so a config that loads
    is a run that can start.
    """
    if scenario == "cow-sweep":
        if values["cow.preset"] == "neutron":
            # The four geometry keys may not fight the preset.
            for key, default in _NEUTRON_GEOMETRY.items():
                if values[key] != default:
                    raise ConfigError(
                        f"{name(key)}: conflicts with cow.preset = neutron; "
                        "set cow.preset = custom to override the geometry"
                    )
        species = ParticleSpecies(mass=values["cow.mass"], radius=values["cow.radius"])
        two_arm = InterferometerConfig(species, L=values["cow.L"], v=values["cow.v"], delta=0.0, units=UnitSystem.si())
        for key in ("cow.delta_start", "cow.delta_stop"):  # each sweep end must suit the geometry
            with _named(name(key)):
                replace(two_arm, delta=values[key])
        start, stop = values["cow.delta_start"], values["cow.delta_stop"]
        if not stop > start:
            raise ConfigError(f"{name('cow.delta_stop')}: the stop must exceed the start, got {start!r} to {stop!r}")
        _check_fits(name("cow.delta_points"), values["cow.delta_points"], _COW_BYTES_PER_POINT, "points")
        _actions(two_arm)  # actions past the float range fail here; the sweep's call is then a cache hit
        return ScenarioConfig(scenario, values, two_arm=two_arm)

    with _named(name("coupling.g")):
        units = UnitSystem.dimensionless(values.get("coupling.g", 0.0))
    # free-check runs at G = 0, where the radius has no effect: it stays the unit length.
    species = ParticleSpecies(mass=values["species.mass"], radius=values.get("species.radius", 1.0))
    g = units.G
    if scenario == "two-packet-decoherence":
        couplings = sorted(set(values["scan.couplings"]) | {g})
    elif scenario == "perturbative-crosscheck":
        couplings = [g / 2**j for j in range(values["dyson.halvings"] + 1)]
    else:
        couplings = [g]
    pairs = tuple(PairPotential(species=species, units=UnitSystem.dimensionless(c)) for c in couplings)
    if scenario == "potential-scan":
        _check_fits(name("potential.samples"), values["potential.samples"], _POTENTIAL_BYTES_PER_SAMPLE, "samples")
        return ScenarioConfig(scenario, values, pairs=pairs)

    n = values["grid.n"]
    per_cell = _GRID_BYTES_PER_CELL + _GRID_BYTES_PER_CELL_PER_COUPLING * len(pairs)
    _check_fits(name("grid.n"), n * n, per_cell, "pair-grid cells")  # before the grid's O(n) arrays
    x_min, x_max = values["grid.x_min"], values["grid.x_max"]
    with _named(name("grid.x_max" if x_max <= x_min else "grid.n")):
        grid = Grid1D(x_min, x_max, n)
    evolution = EvolutionConfig(
        dt=values["evolution.dt"],
        steps=values["evolution.steps"],
        record_every=values["evolution.record_every"],
    )
    with _named(name("evolution.dt")):
        evolution.check_stability(grid, species.mass, units.hbar)
    if scenario == "perturbative-crosscheck":  # the halved couplings sit deeper in the window
        with _named(name("coupling.g")):
            check_first_order_window(pairs[0], evolution.dt * evolution.steps)
    width = values["packet.width"]
    with _named(name("packet.width")):
        check_packet_width(grid, width)
    if "packet.separation" in values and values["packet.separation"] <= 2.0 * width:
        raise ConfigError(
            f"{name('packet.separation')}: {values['packet.separation']!r} too small; "
            f"packets overlap (need > {2.0 * width})"
        )
    if "report.d_cut" in values and values["report.d_cut"] is None:
        values["report.d_cut"] = 4.0 * width  # default band: four initial packet widths
    if "scan.couplings" in values:
        values["scan.couplings"] = tuple(sorted(values["scan.couplings"]))
    momentum = values["packet.momentum"]
    if not abs(momentum) < math.pi / grid.dx:
        raise ConfigError(
            f"{name('packet.momentum')}: {momentum!r} aliases on this grid; "
            f"need |momentum| < pi / dx = {math.pi / grid.dx}"
        )
    # One packet at packet.center, or two packet.separation apart about the origin.
    key = "packet.center" if scenario == "free-check" else "packet.separation"
    centers = (values[key],) if scenario == "free-check" else (-0.5 * values[key], 0.5 * values[key])
    with _named(name(key)):
        start = separated_product_state(grid, centers, width, momentum)
    return ScenarioConfig(scenario, values, evolution, start=start, pairs=pairs)
