"""Property tests for the scenario config parser.

Derandomized and without an example database, so the suite stays
deterministic and stores no failing examples.  Hypothesis's pytest plugin
still caches source literals under .hypothesis/ (ignored by git); the
derandomized draws do not depend on that cache.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravtwin import ConfigError, parse_config
from gravtwin.config import SCHEMAS

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

GRID_SCENARIOS = ("free-check", "two-packet-decoherence", "perturbative-crosscheck")

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10**6)

# Keys that may take any value from the strategy without violating a
# cross-key constraint (CFL, packet resolution, overlap, momentum against
# the grid, first-order window, preset geometry).
OVERRIDES = {
    "potential-scan": {
        "coupling.g": positive,
        "potential.r_max": positive,
        "potential.samples": st.integers(min_value=2, max_value=10**5),
    },
    "free-check": {
        "evolution.steps": counts,
        "evolution.record_every": counts,
        "packet.center": st.floats(min_value=-5.0, max_value=5.0),
        "packet.momentum": st.floats(min_value=-5.0, max_value=5.0),
        "report.d_cut": positive,
    },
    "two-packet-decoherence": {
        "evolution.steps": counts,
        "evolution.record_every": counts,
        "coupling.g": positive,
        "scan.couplings": st.lists(positive, min_size=1, max_size=4),
        "report.d_cut": positive,
    },
    "perturbative-crosscheck": {
        # S0 / hbar = 0.6 g dt steps stays under the first-order window 0.1
        # at the default dt = 5e-4: at most 0.6 * 0.3 * 5e-4 * 1000 = 0.09.
        "evolution.steps": st.integers(min_value=1, max_value=1000),
        "evolution.record_every": counts,
        "coupling.g": st.floats(min_value=1e-3, max_value=0.3),
        "dyson.halvings": st.integers(min_value=1, max_value=6),
    },
    "cow-sweep": {
        "cow.delta_points": st.integers(min_value=2, max_value=10**5),
        "cow.delta_start": st.floats(min_value=-1e-33, max_value=0.0),
    },
}


def render(pairs) -> str:
    lines = []
    for key, value in pairs.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def scenario_texts(draw):
    scenario = draw(st.sampled_from(tuple(SCHEMAS)))
    overrides = draw(st.fixed_dictionaries({}, optional=OVERRIDES[scenario]))
    return render({"scenario": scenario, **overrides})


def test_overrides_belong_to_their_schemas():
    assert set(OVERRIDES) == set(SCHEMAS)
    for scenario, keys in OVERRIDES.items():
        assert set(keys) <= set(SCHEMAS[scenario])


@PROPERTY
@given(scenario_texts())
def test_resolved_config_round_trips(text):
    first = parse_config(text)
    again = parse_config(render(first.resolved))
    assert again.resolved == first.resolved
    assert again.values == first.values
    assert again.scenario == first.scenario


@pytest.mark.parametrize("scenario", tuple(SCHEMAS))
def test_default_config_round_trips(scenario):
    first = parse_config(f"scenario = {scenario}\n")
    assert parse_config(render(first.resolved)).resolved == first.resolved


@PROPERTY
@given(
    st.sampled_from(GRID_SCENARIOS),
    st.sampled_from(("evolution.steps", "evolution.record_every")),
    st.integers(max_value=0, min_value=-10**9),
)
def test_non_positive_counts_name_their_key(scenario, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {scenario}\n{key} = {value}\n")
    assert str(err.value).startswith(f"{key}: ")


@PROPERTY
@given(
    st.sampled_from(tuple(SCHEMAS)),
    st.from_regex(r"[a-z][a-z_]{0,10}(\.[a-z][a-z_]{0,10})?", fullmatch=True),
)
def test_unknown_keys_are_named(scenario, key):
    if key in SCHEMAS[scenario]:
        return
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {scenario}\n{key} = 1\n")
    assert repr(key) in str(err.value)
