import hashlib
import json

import numpy as np
import pytest

import gravtwin.cli as cli
from gravtwin import ConfigError, NumericalAbort, load_config, parse_config, run
from gravtwin.scenarios import TIMESERIES_COLUMNS

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
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = free-check\npacket.widht = 0.5\n")
    assert "packet.widht" in str(err.value)


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


def test_under_resolved_packet_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario = free-check\ngrid.n = 128\n")  # dx = 0.3125 vs width 0.5


def test_preset_conflict_rejected():
    with pytest.raises(ConfigError):
        parse_config("scenario = cow-sweep\ncow.preset = neutron\ncow.mass = 1e-26\n")


def test_custom_cow_overrides_geometry():
    # under preset = custom the remaining keys keep their defaults
    cfg = parse_config("scenario = cow-sweep\ncow.preset = custom\ncow.mass = 1e-26\n")
    assert cfg.species.mass == 1e-26
    assert cfg.params["L"] == 0.10


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


def test_cli_run_missing_config(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 3


def test_cli_numerical_abort_exit_code(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text("scenario = potential-scan\n")

    def boom(cfg, out):
        raise NumericalAbort("synthetic blow-up")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2


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


def test_cli_cow_bad_sweep(tmp_path):
    rc = cli.main(["cow", "--delta-sweep", "0:1", "--preset", "neutron",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    rc = cli.main(["cow", "--delta-sweep", "1:0:5", "--preset", "neutron",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 1
