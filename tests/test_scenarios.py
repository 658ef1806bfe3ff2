import codecs
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import SMALL_CONFIGS

import gravtwin.cli as cli
import gravtwin.config as config_module
import gravtwin.interferometer as interferometer
import gravtwin.scenarios as scenarios
from gravtwin import (
    ConfigError,
    Grid1D,
    InterferometerConfig,
    NumericalAbort,
    PairPotential,
    ParticleSpecies,
    PerturbativeRegimeWarning,
    SeparatedState,
    UnitSystem,
    ValidationError,
    correction,
    dyson_first_order,
    gaussian_product_metastate,
    load_config,
    parse_config,
    run,
    separated_product_state,
    __version__,
)
from gravtwin.config import SCHEMAS
from gravtwin.core import free_packet_doubling_time
from gravtwin.potential import PERTURBATIVE_WINDOW
from gravtwin.scenarios import TIMESERIES_COLUMNS, _full_observer

ROOT = Path(__file__).resolve().parents[1]

TWO_PACKET_SMALL = """
# quick demonstration geometry for the test suite
scenario = two-packet-decoherence
grid.n = 128
evolution.steps = 100
evolution.record_every = 25
scan.couplings = 0.25, 0.5
coupling.g = 0.5
"""

FREE_SMALL = """
scenario = free-check
grid.n = 128
grid.x_min = -10
grid.x_max = 10
evolution.steps = 200
evolution.record_every = 50
"""


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_parse_minimal_config():
    cfg = parse_config("scenario = cow-sweep\n")
    assert cfg.scenario == "cow-sweep"
    assert cfg.resolved["cow.preset"] == "neutron"
    # every resolved value serializes as a string
    assert all(isinstance(v, str) for v in cfg.resolved.values())


def test_parse_comments_and_blank_lines():
    cfg = parse_config("\n# leading comment\nscenario = potential-scan\n\npotential.samples = 64\n")
    assert cfg.resolved["potential.samples"] == "64"


def test_unknown_key_named_in_error():
    # seed and units are no keys: each could take only one value
    for text, key in (
        ("scenario = free-check\npacket.widht = 0.5\n", "packet.widht"),
        ("scenario = free-check\nseed = 0\n", "seed"),
        ("scenario = cow-sweep\nunits = SI\n", "units"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert repr(key) in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = free-check\ngrid.n = 256\ngrid.n = 128\n")
    assert "grid.n" in str(err.value)


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError):
        parse_config("grid.n = 256\n")


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = warp-drive\n")
    assert "warp-drive" in str(err.value)


def test_malformed_line_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = free-check\ngrid.n 256\n", source="bench.cfg")
    assert "bench.cfg:2" in str(err.value)


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario = free-check\ngrid.n = many\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = free-check\npacket.width = wide\n")


def test_grid_power_of_two_enforced():
    with pytest.raises(ConfigError):
        parse_config("scenario = free-check\ngrid.n = 100\n")


def test_cfl_checked_at_load_time():
    text = "scenario = free-check\nevolution.dt = 0.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "evolution.dt" in str(err.value)


@pytest.mark.parametrize("line", ["packet.width = 1.0", "species.mass = 2.0"])
def test_free_check_dt_default_is_fixed(line):
    # README's value: the default packet's doubling time / 1000, whatever the width or mass.
    # One that followed the width would fail the CFL guard from width 0.53 up.
    cfg = parse_config(f"scenario = free-check\n{line}\n")
    assert cfg.values["evolution.dt"] == free_packet_doubling_time(0.5, 1.0, 1.0) / 1000


@pytest.mark.parametrize("key", ["evolution.dt", "evolution.steps", "evolution.record_every"])
def test_evolution_error_names_its_key(key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = free-check\n{key} = 0\n")
    assert str(err.value).startswith(f"{key}: ")


def _out_of_range_cases():
    """One value outside each key's declared range, for every schema; then the grid rules."""
    for scenario, schema in SCHEMAS.items():
        for key, spec in schema.items():
            if spec.positive:
                yield scenario, key, "0"
            if spec.low > -math.inf:
                yield scenario, key, str(spec.low - 1)
            if spec.high < math.inf:
                yield scenario, key, str(spec.high + 1)
    yield "potential-scan", "coupling.g", "-1"
    yield "potential-scan", "potential.samples", "10000000000000000000"  # past what numpy can size
    for scenario in ("free-check", "two-packet-decoherence", "perturbative-crosscheck"):
        yield scenario, "grid.n", "100"
        yield scenario, "grid.x_max", "-30"
        yield scenario, "packet.width", "0.1"  # under 2 dx on every default grid
    yield "cow-sweep", "cow.delta_stop", "0"  # not past cow.delta_start


@pytest.mark.parametrize("scenario,key,value", list(_out_of_range_cases()))
def test_out_of_range_value_names_its_key(scenario, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {scenario}\n{key} = {value}\n")
    assert str(err.value).startswith(f"{key}: ")


def test_every_schema_has_a_runner():
    assert set(scenarios._DISPATCH) == set(SCHEMAS)


def test_under_resolved_packet_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario = free-check\ngrid.n = 128\n")  # dx = 0.3125 vs width 0.5


def test_preset_conflict_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario = cow-sweep\ncow.preset = neutron\ncow.mass = 1e-26\n")


def test_custom_cow_overrides_geometry():
    # under preset = custom the remaining keys keep their defaults
    cfg = parse_config("scenario = cow-sweep\ncow.preset = custom\ncow.mass = 1e-26\n")
    assert cfg.two_arm.species.mass == 1e-26
    assert cfg.values["cow.L"] == 0.10


ABSORBING_FREE = """
scenario = free-check
grid.n = 128
grid.x_min = -6
grid.x_max = 6
packet.momentum = 6
evolution.steps = 400
evolution.boundary = absorbing
evolution.mask_width = 0.2
evolution.mask_strength = 50
"""


def test_absorbing_boundary_rejected_at_load_time(tmp_path, capsys):
    # Every grid scenario observes unit-norm reduced states, so a draining
    # boundary is refused before the run instead of failing mid-way.
    with pytest.raises(ConfigError) as err:
        parse_config(ABSORBING_FREE)
    assert "evolution.boundary" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = two-packet-decoherence\nevolution.mask_width = 0.2\n")
    assert "evolution.mask_width" in str(err.value)
    cfg_file = tmp_path / "absorbing.cfg"
    cfg_file.write_text(ABSORBING_FREE)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "evolution.boundary" in capsys.readouterr().err
    assert not out.exists()


def test_full_observer_solves_one_spectrum_per_record(monkeypatch):
    grid = Grid1D(-8.0, 8.0, 64)
    state = gaussian_product_metastate(grid, 0.0, 0.8, 0.0)
    calls = {"svd": 0, "eigvalsh": 0}
    shapes = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls[name] += 1
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    obs = _full_observer(3.2)(state)
    # one Rayleigh-Ritz solve at the first rank and no dense spectrum
    assert calls == {"svd": 0, "eigvalsh": 1}
    assert shapes == [(32, 32)]
    assert obs.checks["min_eigenvalue"] > -1e-10
    assert abs(obs.report.von_neumann_entropy) < 1e-6


def test_load_config_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.cfg")


def test_run_emits_timeseries_and_manifest(tmp_path):
    cfg = parse_config(FREE_SMALL)
    man = run(cfg, tmp_path / "out")
    assert man.status == "ok"
    header = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()[0]
    assert header == ",".join(TIMESERIES_COLUMNS)
    raw = read_manifest(tmp_path / "out")
    assert raw["status"] == "ok"
    assert raw["scenario"] == "free-check"
    assert "started_utc" in raw and "finished_utc" in raw
    # summary checksum in the manifest matches the file on disk
    rec = raw["outputs"]["summary.json"]
    data = (tmp_path / "out" / "summary.json").read_bytes()
    assert rec["sha256"] == hashlib.sha256(data).hexdigest()
    assert rec["bytes"] == len(data)
    # manifest itself is not among the tracked outputs
    assert "manifest.json" not in raw["outputs"]
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert on_disk == set(raw["outputs"]) | {"manifest.json"}


def test_free_check_summary_contents(tmp_path):
    run(parse_config(FREE_SMALL), tmp_path / "out")
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["spreading_sigma2_max_rel_err"] < 1e-4
    assert s["max_purity_deviation"] < 1e-8
    assert s["density_final_max_rel_err"] < 1e-4
    dens = np.load(tmp_path / "out" / "density_final.npy")
    meta = json.loads((tmp_path / "out" / "density_final.json").read_text())
    assert dens.shape == tuple(meta["shape"])
    assert meta["grid"]["n"] == dens.shape[0]
    np.testing.assert_allclose(np.sum(dens) * meta["grid"]["dx"], 1.0, atol=1e-8)


def test_two_packet_scan_summary(tmp_path):
    cfg = parse_config(TWO_PACKET_SMALL)
    run(cfg, tmp_path / "out")
    s = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert s["decay_rates_nondecreasing"] is True
    assert list(s["per_coupling"]) == ["0.25", "0.5"]
    assert (tmp_path / "out" / "timeseries_g0.25.csv").exists()
    assert (tmp_path / "out" / "timeseries_g0.5.csv").exists()
    # quadrupling the coupling quadruples the early decay rate (g^2 law)
    r1, r2 = s["decay_rates"]
    assert 3.0 < r2 / r1 < 5.0


def test_determinism_byte_identical(tmp_path, monkeypatch):
    cfg = parse_config(TWO_PACKET_SMALL)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    monkeypatch.setenv("GRAVTWIN_WORKERS", "2")
    run(cfg, tmp_path / "c")
    names = {p.name for p in (tmp_path / "a").iterdir()} - {"manifest.json"}
    assert names
    for name in sorted(names):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        c = (tmp_path / "c" / name).read_bytes()
        assert a == b, name
        assert a == c, f"{name} differs under GRAVTWIN_WORKERS=2"
    # manifests agree except for the timestamps
    ma, mb = read_manifest(tmp_path / "a"), read_manifest(tmp_path / "b")
    for key in ("started_utc", "finished_utc"):
        ma.pop(key), mb.pop(key)
    assert ma == mb


def test_cli_version(capsys):
    assert cli.main(["version"]) == 0
    out = capsys.readouterr().out
    assert "gravtwin" in out


def test_cli_calls_share_no_parse_state(tmp_path, capsys):
    # One process, one parser: a failed parse must not leak into the next call.
    out = tmp_path / "cow.csv"
    cow = ["cow", "--delta-sweep", "0:1.3e-33:8", "--preset", "neutron", "--out", str(out)]
    assert cli.main([*cow, "--bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and "--bogus" in captured.err
    assert captured.out == "" and not out.exists()
    assert cli.main(cow) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 8 sweep points to {out}\n" and captured.err == ""
    assert len(out.read_text().splitlines()) == 9
    assert cli.main(["version"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"gravtwin {__version__}\n" and captured.err == ""
    assert cli._build_parser() is cli._build_parser()


def test_cli_run_ok(tmp_path, capsys):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text("scenario = potential-scan\npotential.samples = 64\n")
    rc = cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "potential.csv").exists()
    header = (tmp_path / "out" / "potential.csv").read_text().splitlines()[0]
    assert header == "r,V_G"


def test_cli_run_rejects_non_empty_out_dir(tmp_path, capsys):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text("scenario = potential-scan\npotential.samples = 64\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.csv").write_text("left over\n")
    rc = cli.main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["stale.csv"]
    # an existing empty directory is accepted
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(empty)]) == 0
    assert (empty / "manifest.json").exists()


def test_cli_run_bad_config(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("scenario = free-check\ngrid.n = 100\n")
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1


def test_cli_run_non_utf8_config(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"scenario = free-check\n# caf\xff\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ")
    assert str(cfg_file) in err
    assert not out.exists()


@pytest.mark.parametrize("scenario", SMALL_CONFIGS)
def test_config_with_a_byte_order_mark_loads(tmp_path, scenario):
    # Each text's first line is its scenario key, which the mark would otherwise hide.
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(SMALL_CONFIGS[scenario], encoding="utf-8")
    marked.write_text(SMALL_CONFIGS[scenario], encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert load_config(marked).resolved == load_config(plain).resolved


@pytest.mark.parametrize("workers", ["0", "abc"])
def test_cli_run_refuses_bad_workers_before_the_run_directory(tmp_path, monkeypatch, capsys, workers):
    cfg_file = tmp_path / "free.cfg"
    cfg_file.write_text(FREE_SMALL)
    monkeypatch.setenv("GRAVTWIN_WORKERS", workers)
    out = tmp_path / "d"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: GRAVTWIN_WORKERS ") and err.count("\n") == 1
    assert not out.exists()


def test_csv_bytes_pins_its_format():
    # Each value is repr(float); a scalar column repeats on every row.
    columns = (np.array([-0.0, np.nan, np.inf]), 0.1, [1, -np.inf, 2.5e-300])
    assert scenarios.csv_bytes(("a", "b", "c"), columns) == (
        b"a,b,c\n-0.0,0.1,1.0\nnan,0.1,-inf\ninf,0.1,2.5e-300\n"
    )
    with pytest.raises(ValueError):
        scenarios.csv_bytes(("a", "b"), ([1.0], [1.0, 2.0]))


def test_cli_run_missing_config(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 3


def test_cli_numerical_abort_exit_code(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text("scenario = potential-scan\n")

    def boom(cfg, out):
        raise NumericalAbort("synthetic blow-up")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_failure_leaves_error_manifest(tmp_path, monkeypatch, capsys):
    import gravtwin.scenarios as scenarios

    def refuse(state):
        raise ValidationError("synthetic reduction failure")

    monkeypatch.setattr(scenarios, "partial_trace", refuse)
    cfg_file = tmp_path / "free.cfg"
    cfg_file.write_text(FREE_SMALL)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "synthetic reduction failure" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    assert manifest["diagnostic"] == "ValidationError: synthetic reduction failure"
    assert manifest["outputs"] == {}


def test_mass_leaving_the_box_names_time_and_lost_mass(tmp_path, capsys):
    # A fast packet on a short grid carries mass past the box edge: the
    # separated engine drops it at the gather and the partial trace refuses.
    cfg_file = tmp_path / "leak.cfg"
    cfg_file.write_text(
        "scenario = free-check\ngrid.n = 128\ngrid.x_min = -6\ngrid.x_max = 6\n"
        "packet.momentum = 6\nevolution.steps = 1200\nevolution.record_every = 100\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invalid input: ")
    manifest = read_manifest(out)
    assert manifest["status"] == "error"
    assert manifest["diagnostic"].startswith("ValidationError: expected a normalized state")
    assert "at t = " in manifest["diagnostic"] and "1 - norm^2 = " in manifest["diagnostic"]


def test_cli_bad_usage_is_validation(capsys):
    assert cli.main(["run"]) == 1          # missing required options
    assert cli.main(["frobnicate"]) == 1   # unknown verb


def test_cli_potential_table(tmp_path):
    out = tmp_path / "v.csv"
    rc = cli.main([
        "potential", "--mass", "1.675e-27", "--radius", "1e-15",
        "--r-max", "5e-15", "--samples", "32", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,V_G"
    assert len(lines) == 33
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    np.testing.assert_allclose(
        first[1], -0.6 * 6.67430e-11 * 1.675e-27**2 / 1e-15, rtol=1e-12
    )


def test_cli_cow_sweep(tmp_path):
    out = tmp_path / "cow.csv"
    rc = cli.main(["cow", "--delta-sweep", "0:1.3e-33:8", "--preset", "neutron", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,prob_zeroth,re_Aa_star,im_Aa_star,S_G0,S_G1"
    assert len(lines) == 9
    re_col = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(v == 0.0 for v in re_col)


def test_cli_cow_custom_geometry(tmp_path):
    out = tmp_path / "cow.csv"
    rc = cli.main([
        "cow", "--delta-sweep", "0:6.3:8", "--mass", "1e-20", "--radius", "1e-9",
        "--L", "0.05", "--v", "100.0", "--out", str(out),
    ])
    assert rc == 0


def test_cli_cow_preset_conflicts(tmp_path):
    rc = cli.main([
        "cow", "--delta-sweep", "0:1:4", "--preset", "neutron",
        "--mass", "1e-20", "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 1


def test_cli_cow_bad_sweep(tmp_path, capsys):
    for sweep in ("0:1", "1:0:5", "0:inf:3", "-inf:0:3", "nan:1:3"):
        rc = cli.main(["cow", "--delta-sweep", sweep, "--preset", "neutron",
                       "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert "--delta-sweep" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# Deltas for which cos(2 delta / hbar_SI) leaves the float range, by flag or key.
DELTA_OVERFLOW = [
    ("cow", "0:1e274:4", "--delta-sweep"),
    ("cow", "-1e274:0:4", "--delta-sweep"),
    ("run", "cow.delta_stop = 1e300\ncow.delta_points = 4", "cow.delta_stop"),
    ("run", "cow.delta_start = -1e300\ncow.delta_points = 4", "cow.delta_start"),
]


@pytest.mark.parametrize("verb, setting, name", DELTA_OVERFLOW)
def test_delta_overflow_is_invalid_input(tmp_path, capsys, verb, setting, name):
    run_dir = tmp_path / "run"
    if verb == "cow":
        argv = ["cow", "--preset", "neutron", f"--delta-sweep={setting}", "--out", str(tmp_path / "o.csv")]
    else:
        cfg_file = tmp_path / "cow.cfg"
        cfg_file.write_text(f"scenario = cow-sweep\n{setting}\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(run_dir)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {name}: ") and err.count("\n") == 1
    assert "2 delta / hbar" in err
    assert not list(tmp_path.rglob("*.csv"))
    assert not run_dir.exists()  # refused at load, before any write


def test_largest_finite_delta_sweep_runs(tmp_path):
    out = tmp_path / "o.csv"
    assert cli.main(["cow", "--preset", "neutron", "--delta-sweep", "0:9e273:4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
    run_dir = tmp_path / "run"
    cfg = parse_config("scenario = cow-sweep\ncow.delta_stop = 9e273\ncow.delta_points = 4\n")
    assert run(cfg, run_dir).status == "ok"


@pytest.mark.parametrize("stop, points", [(1e-20, 64), (9e273, 4)])
def test_cow_port_check_holds_at_any_delta(tmp_path, stop, points):
    # A check at delta + pi hbar would lose the shift once ulp(delta) is not
    # small against pi hbar; the enumeration traces both ports with no shift.
    cfg = parse_config(f"scenario = cow-sweep\ncow.delta_stop = {stop!r}\ncow.delta_points = {points}\n")
    assert run(cfg, tmp_path / "run").status == "ok"
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["enum_max_abs_prob_zeroth_err"] <= 1e-15
    assert summary["enum_max_abs_AaStar_err"] <= 1e-14 * summary["max_abs_AaStar"]


@pytest.mark.parametrize("text", ["scenario = cow-sweep\n", SMALL_CONFIGS["cow-sweep"]], ids=["default", "small"])
def test_cow_routes_agree_at_every_delta(tmp_path, text):
    # The enumeration's complex A a* meets the closed form's at each delta of the sweep.
    assert run(parse_config(text), tmp_path / "run").status == "ok"
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["enum_max_abs_AaStar_err"] <= 1e-14 * summary["max_abs_AaStar"]


# In-range species values whose pair potential or actions leave the float range.
OUT_OF_FLOAT_RANGE = [
    "potential --mass 1e200 --radius 1 --r-max 10 --samples 4",  # G m^2 overflows
    "potential --mass 1e-27 --radius 1e-60 --r-max 1e-59 --samples 4",  # R^6 underflows
    "potential --mass 1 --radius 1e60 --r-max 1 --samples 4",  # R^6 overflows
    "potential --mass 1e-170 --radius 1 --r-max 10 --samples 4",  # G m^2 underflows to 0
    "potential --mass 1e-120 --radius 1e-15 --r-max 1e-15 --samples 3",  # G m^2 R^5 underflows
    "potential --mass 1e-150 --radius 10 --r-max 30 --samples 4",  # G m^2 is subnormal
    "potential --mass 1.2e-145 --radius 1e50 --r-max 1e50 --samples 3",  # V underflows to 0
    "potential --mass 1e150 --radius 1e10 --r-max 1e11 --samples 3",  # G m^2 R^5 overflows
    "cow --mass 1e200 --radius 1e-15 --L 1 --v 1 --delta-sweep 0:1e-33:4",
    "cow --mass 1e150 --radius 1 --L 1e10 --v 1e-10 --delta-sweep 0:1e-33:4",  # S0 overflows
    "cow --mass 1e150 --radius 1 --L 1 --v 1 --delta-sweep 0:1e-33:4",  # S0 / hbar overflows
    "cow --mass 1e-27 --radius 1e-60 --L 0.1 --v 100 --delta-sweep 0:1e-33:4",
    "cow --mass 1e-27 --radius 1e-15 --L 1e300 --v 1e300 --delta-sweep 0:1e-33:4",  # panel ratio
    "cow --mass 1e-120 --radius 1e-15 --L 0.5 --v 100 --delta-sweep 0:1e-33:3",  # G m^2 R^5 underflows
]


@pytest.mark.parametrize("command", OUT_OF_FLOAT_RANGE)
def test_out_of_float_range_species_is_invalid_input(tmp_path, capsys, command):
    assert cli.main([*command.split(), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


_FLOAT_RANGE = "pair potential leaves the float range: "
# Configs whose start state or pair potentials cannot be built, each with
# the start of its message.  Each loads no run: no directory is made.
REJECTED_AT_LOAD = {
    "demo-coupling-subnormal": ("scenario = two-packet-decoherence\ncoupling.g = 1e-310\n", _FLOAT_RANGE),
    "packets-at-the-edge": ("scenario = two-packet-decoherence\npacket.separation = 30\n", "packet.separation: "),
    "packet-at-the-edge": ("scenario = free-check\npacket.center = 19\n", "packet.center: "),
    "scan-mass-overflows": ("scenario = potential-scan\nspecies.mass = 1e155\n", _FLOAT_RANGE),
    "cow-mass-overflows": ("scenario = cow-sweep\ncow.preset = custom\ncow.mass = 1e200\n", _FLOAT_RANGE),
    "halved-coupling-subnormal": (
        "scenario = perturbative-crosscheck\ngrid.n = 128\ncoupling.g = 3e-306\ndyson.halvings = 6\n", _FLOAT_RANGE,
    ),
    # pi / dx = 40.2 at the default n = 512 on [-20, 20]; 1e308 overflowed p x.
    "momentum-aliases": ("scenario = free-check\npacket.momentum = 1e5\n", "packet.momentum: "),
    "momentum-overflows": ("scenario = free-check\npacket.momentum = 1e308\n", "packet.momentum: "),
    # S0 / hbar = 0.6 g T = 0.15 at g = 1 over the default 500 steps of 5e-4.
    "crosscheck-past-first-order": (
        "scenario = perturbative-crosscheck\ngrid.n = 128\ncoupling.g = 1.0\n",
        "coupling.g: coupling too large for a first-order split",
    ),
}


@pytest.mark.parametrize("case", REJECTED_AT_LOAD)
def test_a_config_whose_run_cannot_start_is_refused_at_load(tmp_path, capsys, case):
    text, lead = REJECTED_AT_LOAD[case]
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    with pytest.raises((ConfigError, ValidationError)) as err:
        load_config(cfg_file)
    assert str(err.value).startswith(lead)
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"invalid input: {err.value}\n"
    assert not run_dir.exists()


def test_potential_verb_reads_at_the_si_coupling(tmp_path):
    # G m^2 overflows at the scan's default coupling G = 1, not at the SI G.
    out = tmp_path / "v.csv"
    argv = ["potential", "--mass", "1e155", "--radius", "1", "--r-max", "3", "--samples", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (
        b"r,V_G\n0.0,-4.00458e+299\n1.5,-2.203692216796875e+299\n3.0,-1.1123833333333333e+299\n"
    )


@pytest.mark.parametrize("scenario", SMALL_CONFIGS)
def test_a_config_equals_its_reparse(scenario):
    # The start state is left out of ==: its arrays do not compare to one bool.
    assert parse_config(SMALL_CONFIGS[scenario]) == parse_config(SMALL_CONFIGS[scenario])


@pytest.mark.parametrize("r_max", ["0", "-1e-15", "inf", "nan"])
def test_cli_potential_rejects_bad_r_max(tmp_path, capsys, r_max):
    out = tmp_path / "v.csv"
    rc = cli.main([
        "potential", "--mass", "1.675e-27", "--radius", "1e-15",
        "--r-max", r_max, "--out", str(out),
    ])
    assert rc == 1
    assert "--r-max" in capsys.readouterr().err
    assert not out.exists()


POTENTIAL_ARGV = {"--mass": "1.675e-27", "--radius": "1e-15", "--r-max": "1e-14", "--samples": "16"}
COW_ARGV = {"--mass": "1e-20", "--radius": "1e-9", "--L": "0.05", "--v": "100.0", "--delta-sweep": "0:6.3:8"}
BAD_FLAG_VALUES = [
    *(("potential", flag, value) for flag in ("--mass", "--radius", "--r-max") for value in ("0", "-1", "inf", "nan")),
    ("potential", "--samples", "1"),
    ("potential", "--samples", "10000000000000000000"),
    *(("cow", flag, value) for flag in ("--mass", "--radius", "--L", "--v") for value in ("0", "-1", "inf", "nan")),
    *(("cow", "--delta-sweep", sweep) for sweep in ("0:6.3:1", "0:inf:8", "nan:6.3:8", "0:1e-33:10000000000000000000", "1:0:8", "0:0:8")),
]


@pytest.mark.parametrize("verb, flag, value", BAD_FLAG_VALUES, ids=[f"{v}{f}={x}" for v, f, x in BAD_FLAG_VALUES])
def test_cli_bad_number_names_its_flag(tmp_path, capsys, verb, flag, value):
    out = tmp_path / "x.csv"
    flags = {**(POTENTIAL_ARGV if verb == "potential" else COW_ARGV), flag: value}
    rc = cli.main([verb, *(f"{f}={v}" for f, v in flags.items()), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {flag}: ")
    assert not out.exists()


def test_a_negative_sweep_start_needs_the_equals_form(tmp_path, capsys):
    out = tmp_path / "n.csv"
    assert cli.main(["cow", "--preset", "neutron", "--delta-sweep", "-1e-33:1e-33:8", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invalid input: argument --delta-sweep: expected one argument\n"
    assert cli.main(["cow", "--preset", "neutron", "--delta-sweep=-1e-33:1e-33:8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9


def test_cli_too_large_to_allocate(tmp_path, capsys):
    # 1e14 points is far beyond any machine's memory, so the sweep is refused at load.
    out = tmp_path / "x.csv"
    rc = cli.main(["cow", "--preset", "neutron", "--delta-sweep", "0:1e-33:100000000000000", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: --delta-sweep: ") and err.count("\n") == 1
    assert not out.exists()

    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("scenario = cow-sweep\ncow.delta_points = 100000000000000\n")
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: cow.delta_points: ") and err.count("\n") == 1
    assert not run_dir.exists()


def test_potential_samples_too_large_to_allocate(tmp_path, capsys):
    # 1e14 samples is far beyond any machine's memory, so the scan is refused at load.
    out = tmp_path / "v.csv"
    argv = ["potential", "--mass", "1.675e-27", "--radius", "1e-15", "--r-max", "1e-14"]
    assert cli.main([*argv, "--samples", "100000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: --samples: 100000000000000 samples need about ") and err.count("\n") == 1
    assert not out.exists()

    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("scenario = potential-scan\npotential.samples = 100000000000000\n")
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("invalid input: potential.samples: ")
    assert not run_dir.exists()


@pytest.mark.parametrize("scenario, key, default", [("cow-sweep", "cow.delta_points", 1000),
                                                    ("potential-scan", "potential.samples", 4096)])
def test_counts_are_weighed_against_memory(monkeypatch, scenario, key, default):
    # With 2 MB to hold, the defaults (~0.6 and ~1.2 MB) load and 8000 (~5 and ~2.4 MB) do not.
    monkeypatch.setattr(config_module, "_MEMORY", 2e6)
    assert parse_config(f"scenario = {scenario}\n").values[key] == default
    with pytest.raises(ConfigError, match=f"^{key}: 8000 .* need about "):
        parse_config(f"scenario = {scenario}\n{key} = 8000\n")


def test_grid_too_large_for_memory(tmp_path, capsys):
    # 2^22 squared cells need about 1e15 bytes, far beyond any machine's
    # memory, so the run is refused at load, before its directory exists.
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("scenario = free-check\ngrid.n = 4194304\nevolution.dt = 1e-12\nevolution.steps = 1\n")
    with pytest.raises(ConfigError, match=r"^grid\.n: 17592186044416 pair-grid cells need about "):
        load_config(cfg_file)
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: grid.n: ") and err.count("\n") == 1
    assert not run_dir.exists()


def test_grid_memory_counts_each_coupling(monkeypatch, tmp_path):
    # The default decoherence scan holds three final 512 x 512 states; with
    # just the memory that takes, a fourth coupling does not fit.
    per_cell = config_module._GRID_BYTES_PER_CELL + 3 * config_module._GRID_BYTES_PER_CELL_PER_COUPLING
    monkeypatch.setattr(config_module, "_MEMORY", 512 * 512 * per_cell)
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text("scenario = two-packet-decoherence\n")
    assert len(load_config(cfg_file).pairs) == 3
    cfg_file.write_text("scenario = two-packet-decoherence\nscan.couplings = 0.125, 0.25, 0.375, 0.5\n")
    with pytest.raises(ConfigError, match=r"^grid\.n: 262144 pair-grid cells need about "):
        load_config(cfg_file)


def test_one_perturbative_window(tmp_path):
    """dyson_first_order, correction, the crosscheck summary and load read one S0 / hbar."""
    dt, steps = 5e-4, 60
    T = dt * steps
    species = ParticleSpecies(mass=1.0, radius=1.0)

    def pair(g):
        return PairPotential(species, UnitSystem.dimensionless(g))

    # The smallest coupling whose S0 / hbar = 0.6 g T reaches the window, and the one below it.
    g_edge = PERTURBATIVE_WINDOW / (0.6 * T)
    while pair(g_edge).action_over_hbar(T) < PERTURBATIVE_WINDOW:
        g_edge = math.nextafter(g_edge, math.inf)
    while pair(math.nextafter(g_edge, 0.0)).action_over_hbar(T) >= PERTURBATIVE_WINDOW:
        g_edge = math.nextafter(g_edge, 0.0)
    g_inside = math.nextafter(g_edge, 0.0)

    text = f"scenario = perturbative-crosscheck\ngrid.n = 128\nevolution.dt = {dt!r}\nevolution.steps = {steps}\n"
    inside = parse_config(text + f"coupling.g = {g_inside!r}\n")
    run(inside, tmp_path / "inside")
    summary = json.loads((tmp_path / "inside" / "summary.json").read_text())
    assert summary["action_estimate_over_hbar"] == pair(g_inside).action_over_hbar(T) < PERTURBATIVE_WINDOW

    with pytest.raises(ConfigError, match="^coupling.g: coupling too large for a first-order split"):
        parse_config(text + f"coupling.g = {g_edge!r}\n")
    # The edge differs from inside only in its coupling.
    state = separated_product_state(inside.start.grid, (-2.0, 2.0), 0.7, 0.0)
    with pytest.raises(ValidationError, match="first-order"):
        dyson_first_order(state, pair(g_edge), inside.evolution)

    def two_arm(g):
        # T = 2 L / v is exactly the run time above.
        return InterferometerConfig(species, L=T, v=2.0, delta=0.0, units=UnitSystem.dimensionless(g))

    assert two_arm(g_edge).T == T
    with pytest.warns(PerturbativeRegimeWarning):
        correction(two_arm(g_edge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        correction(two_arm(g_inside))


def test_crosscheck_sums_the_start_norm_once(tmp_path, monkeypatch):
    """The Dyson pass and the scan check one start: its norm is one pass over its rows.

    Every other pass is a gather: the two Dyson channels, the start, and each
    coupling at each later record point.
    """
    passes = []
    fill_rows = SeparatedState._fill_rows

    def counted(self, out=None):
        passes.append("norm" if out is None else "gather")
        return fill_rows(self, out)

    monkeypatch.setattr(SeparatedState, "_fill_rows", counted)
    cfg = parse_config("scenario = perturbative-crosscheck\ngrid.n = 128\nevolution.steps = 60\n")
    run(cfg, tmp_path / "out")
    steps, every = cfg.evolution.steps, cfg.evolution.record_every
    couplings = cfg.values["dyson.halvings"] + 1
    assert passes.count("norm") == 1
    assert passes.count("gather") == 2 + 1 + couplings * -(-steps // every)


def test_nan_invariant_reaches_summary(tmp_path, monkeypatch):
    """A record whose eigenvalue check failed keeps the summary's minimum NaN."""
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("refused")

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def second_call_fails(a, *args, **kwargs):
        if a.shape == (64, 64):  # the dense fallback; the 32 x 32 Ritz solves pass
            calls.append(None)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("refused")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", second_call_fails)
    cfg = parse_config(
        "scenario = free-check\ngrid.n = 64\ngrid.x_min = -10\ngrid.x_max = 10\n"
        "packet.width = 0.8\nevolution.steps = 40\nevolution.record_every = 10\n"
    )
    assert run(cfg, tmp_path / "run").status == "ok"
    assert len(calls) == 5  # one dense spectrum per record, the Cholesky bound refused
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert math.isnan(summary["min_eigenvalue"])


# The same sweep as `gravtwin cow` flags and as cow-sweep config lines.
COW_SWEEPS = {
    "neutron": (
        ["--preset", "neutron", "--delta-sweep", "0:1.3e-33:64"],
        "cow.delta_stop = 1.3e-33\ncow.delta_points = 64\n",
    ),
    "custom": (
        ["--mass", "1.2e-25", "--radius", "3e-10", "--L", "0.5", "--v", "150", "--delta-sweep", "0:2.6e-33:50"],
        "cow.preset = custom\ncow.mass = 1.2e-25\ncow.radius = 3e-10\ncow.L = 0.5\ncow.v = 150\n"
        "cow.delta_stop = 2.6e-33\ncow.delta_points = 50\n",
    ),
}


@pytest.mark.parametrize("geometry", COW_SWEEPS)
def test_cow_verb_writes_the_cow_sweep_csv(tmp_path, geometry):
    flags, lines = COW_SWEEPS[geometry]
    out = tmp_path / "cow.csv"
    assert cli.main(["cow", *flags, "--out", str(out)]) == 0
    run(parse_config(f"scenario = cow-sweep\n{lines}"), tmp_path / "run")
    assert out.read_bytes() == (tmp_path / "run" / "cow.csv").read_bytes()


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `inputs` and `checks` modules, imported from perfbench/ as its child does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("inputs", "checks"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import checks
    import inputs

    return inputs, checks


def geometry_config(geo: dict, points: int):
    """The cow-sweep config of one geometry-scan geometry, as `gravtwin cow` reads its flags."""
    return parse_config(
        "scenario = cow-sweep\ncow.preset = custom\n"
        f"cow.mass = {geo['mass']!r}\ncow.radius = {geo['radius']!r}\ncow.L = {geo['L']!r}\n"
        f"cow.v = {geo['v']!r}\ncow.delta_stop = {geo['delta_stop']!r}\ncow.delta_points = {points}\n"
    )


def assert_sweep_is_per_point_correction(cfg):
    """Every column of the sweep, and its CSV, equal per-point `correction` bit for bit."""
    deltas, sweep_csv, sweep = scenarios._cow_sweep(cfg)
    assert len(deltas) == len(sweep.prob_zeroth) == len(sweep.Aa_star) == cfg.values["cow.delta_points"]
    refs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        for k, d in enumerate(deltas.tolist()):
            ref = correction(replace(cfg.two_arm, delta=d))
            got = (sweep.prob_zeroth[k], sweep.Aa_star[k].real, sweep.Aa_star[k].imag,
                   sweep.prob_correction[k], sweep.S_G0, sweep.S_G1)
            want = (ref.prob_zeroth, ref.Aa_star.real, ref.Aa_star.imag,
                    ref.prob_correction, ref.S_G0, ref.S_G1)
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want], d
            refs.append(ref)
    # Every column per point, the actions too: the sweep writes those as scalars.
    columns = (deltas, [r.prob_zeroth for r in refs], [r.Aa_star.real for r in refs],
               [r.Aa_star.imag for r in refs], [r.S_G0 for r in refs], [r.S_G1 for r in refs])
    assert sweep_csv == scenarios.csv_bytes(scenarios._COW_COLUMNS, columns)


def test_cow_sweep_is_per_point_correction_on_the_neutron_preset():
    cfg = parse_config("scenario = cow-sweep\n")
    assert cfg.values["cow.delta_points"] == 1000
    assert_sweep_is_per_point_correction(cfg)


def test_cow_sweep_is_per_point_correction_on_a_geometry_scan_operation(bench):
    inputs, _ = bench
    geometries = inputs.op_geometries(1, 0)
    assert len(geometries) == 24
    for geo in geometries:
        assert_sweep_is_per_point_correction(geometry_config(geo, inputs.GEOMETRY_POINTS))


def test_cow_sweep_is_per_point_correction_where_s0_underflows():
    # T = 2e-308 s: S0 = |V(0)| T underflows to 0, and every correction column reads 0.
    geo = {"mass": 1e-27, "radius": 1e-15, "L": 1e-300, "v": 1e8, "delta_stop": 1e-33}
    cfg = geometry_config(geo, 16)
    assert PairPotential(cfg.two_arm.species, cfg.two_arm.units).action_coincident(cfg.two_arm.T) == 0.0
    assert_sweep_is_per_point_correction(cfg)
    _, _, sweep = scenarios._cow_sweep(cfg)
    assert sweep.S_G0 == sweep.S_G1 == 0.0 and not np.any(sweep.Aa_star)


def test_cow_sweep_makes_no_per_point_call(monkeypatch):
    # The sweep is one array pass; the per-point closed form is only the reference.
    calls = []
    first_order = interferometer._first_order
    monkeypatch.setattr(interferometer, "_first_order", lambda *args: calls.append(args) or first_order(*args))
    geo = {"mass": 1e-25, "radius": 1e-12, "L": 0.5, "v": 300.0, "delta_stop": 1e-33}
    deltas, _, _ = scenarios._cow_sweep(geometry_config(geo, 64))
    assert len(deltas) == 64
    assert calls == []


def test_cow_sweep_past_the_perturbative_window_warns_once():
    # S0 / hbar = 0.6 G m^2 T / (R hbar), about 80 here.
    geo = {"mass": 1e-15, "radius": 1e-9, "L": 1.0, "v": 10.0, "delta_stop": 1e-33}
    cfg = geometry_config(geo, 16)
    assert PairPotential(cfg.two_arm.species, cfg.two_arm.units).action_over_hbar(cfg.two_arm.T) >= PERTURBATIVE_WINDOW
    with pytest.warns(PerturbativeRegimeWarning) as caught:
        assert_sweep_is_per_point_correction(cfg)
    assert len(caught) == 1


def test_a_geometry_scan_operation_passes_the_benchmark_checks(tmp_path, bench):
    # The benchmark's own output checks, run on one operation of its
    # geometry-scan workload through the CLI entry point it times.
    inputs, checks = bench
    for j, geo in enumerate(inputs.op_geometries(1, 0)):
        out = tmp_path / f"g{j}.csv"
        assert cli.main(inputs.cow_argv(geo, str(out))) == 0
        problems = checks.check_sweep(
            out.read_bytes(), 0.0, geo["delta_stop"], inputs.GEOMETRY_POINTS,
            geo["mass"], geo["radius"], geo["L"], geo["v"],
        )
        assert problems == [], (j, problems)



def test_a_crosscheck_operation_passes_the_benchmark_checks(tmp_path, bench):
    # The benchmark's own output checks, run on one operation of its
    # crosscheck workload through the CLI entry point it times.
    inputs, checks = bench
    values = inputs.make_inputs("crosscheck", 0)
    config = tmp_path / "config.cfg"
    config.write_text(inputs.config_text(values))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    problems, _ = checks.check_run(out, values)
    assert problems == []

# The config key each flag of BAD_FLAG_VALUES stands for, per verb.
FLAG_KEYS = {
    "potential": {"--mass": ("species.mass",), "--radius": ("species.radius",),
                  "--r-max": ("potential.r_max",), "--samples": ("potential.samples",)},
    "cow": {"--mass": ("cow.mass",), "--radius": ("cow.radius",), "--L": ("cow.L",), "--v": ("cow.v",),
            "--delta-sweep": ("cow.delta_start", "cow.delta_stop", "cow.delta_points")},
}


@pytest.mark.parametrize("verb, flag, value", BAD_FLAG_VALUES, ids=[f"{v}{f}={x}" for v, f, x in BAD_FLAG_VALUES])
def test_cli_bad_number_reads_as_its_config_key(tmp_path, capsys, verb, flag, value):
    """A bad flag fails as its key does in a config file; only the leading name differs."""
    flags = {**(POTENTIAL_ARGV if verb == "potential" else COW_ARGV), flag: value}
    assert cli.main([verb, *(f"{f}={v}" for f, v in flags.items()), "--out", str(tmp_path / "x.csv")]) == 1
    cli_name, cli_rest = capsys.readouterr().err.removeprefix("invalid input: ").rstrip("\n").split(": ", 1)

    lines = ["scenario = potential-scan" if verb == "potential" else "scenario = cow-sweep\ncow.preset = custom"]
    for f, v in flags.items():
        lines += [f"{key} = {part}" for key, part in zip(FLAG_KEYS[verb][f], v.split(":"))]
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines) + "\n")
    key, rest = str(err.value).split(": ", 1)
    assert (cli_name, cli_rest) == (flag, rest)
    assert key in FLAG_KEYS[verb][flag]


def test_potential_verb_defaults_to_the_schema_sample_count(tmp_path, capsys):
    """Without --samples the verb writes as many rows as `scenario = potential-scan` does."""
    out = tmp_path / "v.csv"
    assert cli.main(["potential", "--mass", "1", "--radius", "1", "--r-max", "10", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == parse_config("scenario = potential-scan\n").values["potential.samples"] == 4096
