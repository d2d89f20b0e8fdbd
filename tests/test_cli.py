"""Command-line interface: outputs, schemas, determinism, exit codes."""

import json
from importlib import resources

import jsonschema
import pytest

from tasep2 import bethe, cli


def _schema(name):
    with resources.files("tasep2.schemas").joinpath(name).open() as f:
        return json.load(f)


def run(args):
    return cli.main(args)


def test_diag_equal_density(tmp_path):
    rc = run(["diag", "--length", "6", "--na", "2", "--nb", "2",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "diag_L6_na2_nb2.json").read_text())
    jsonschema.validate(data, _schema("diag.json"))
    assert data["gap_re"] > 0
    assert data["dimension"] == 90
    assert data["zero_count"] == 1


def test_diag_frozen_sector(tmp_path):
    rc = run(["diag", "--length", "3", "--na", "3", "--nb", "0",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "diag_L3_na3_nb0.json").read_text())
    jsonschema.validate(data, _schema("diag.json"))
    assert data["frozen"] is True and data["gap_re"] is None


def test_diag_krylov_matches_dense(tmp_path):
    run(["diag", "--length", "6", "--na", "2", "--nb", "2",
         "--output-dir", str(tmp_path / "a")])
    rc = run(["diag", "--length", "6", "--na", "2", "--nb", "2", "--krylov",
              "--output-dir", str(tmp_path / "b")])
    assert rc == 0
    dense = json.loads((tmp_path / "a" / "diag_L6_na2_nb2.json").read_text())
    kry = json.loads((tmp_path / "b" / "diag_L6_na2_nb2.json").read_text())
    assert abs(dense["gap_re"] - kry["gap_re"]) <= 1e-10
    assert kry["method"] == "krylov"


def test_diag_momentum_block(tmp_path):
    rc = run(["diag", "--length", "6", "--na", "2", "--nb", "2",
              "--momentum", "0", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "diag_L6_na2_nb2_k0.json").read_text())
    assert data["k"] == 0 and data["zero_count"] == 1


def test_diag_spectrum_export(tmp_path):
    rc = run(["diag", "--length", "3", "--na", "1", "--nb", "1",
              "--spectrum", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectrum_L3_na1_nb1.txt").read_text().strip().splitlines()
    assert len(lines) == 6
    float(lines[0].split()[0]), float(lines[0].split()[1])


def test_diag_csv_format(tmp_path):
    rc = run(["diag", "--length", "4", "--na", "1", "--nb", "1",
              "--format", "csv", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "diag_L4_na1_nb1.csv").read_text().splitlines()
    assert lines[0].startswith("L,n_A,n_B")
    assert lines[1].split(",")[0] == "4"


def test_diag_domain_error_exit_code(tmp_path):
    rc = run(["diag", "--length", "3", "--na", "5", "--nb", "0",
              "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_DOMAIN


def test_bethe_l6_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(["bethe", "--length", "6", "--output-dir", str(out)])
        assert rc == 0
    fa = (a / "roots_L6.json").read_text()
    fb = (b / "roots_L6.json").read_text()
    assert fa == fb
    data = json.loads(fa)
    jsonschema.validate(data, _schema("roots.json"))
    assert data["p"] == 2 and data["r"] == 0
    assert abs(data["energy"][0] - 0.5264385166464931) <= 1e-9
    assert (a / "curve_Z_L6.csv").read_text() == (b / "curve_Z_L6.csv").read_text()


def test_bethe_explicit_integers(tmp_path):
    rc = run(["bethe", "--length", "6", "--integers", "-1", "0",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "roots_L6.json").read_text())
    assert abs(data["energy"][0]) <= 1e-10   # steady state
    assert abs(data["energy_raw"][0] - 10.0) <= 1e-10


def test_bethe_seed_file_roundtrip(tmp_path):
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    rc = run(["bethe", "--length", "6", "--from-file",
              str(tmp_path / "roots_L6.json"),
              "--output-dir", str(tmp_path / "again")])
    assert rc == 0
    a = json.loads((tmp_path / "roots_L6.json").read_text())
    b = json.loads((tmp_path / "again" / "roots_L6.json").read_text())
    import numpy as np
    np.testing.assert_allclose(np.asarray(a["lambda"]),
                               np.asarray(b["lambda"]), atol=1e-13)


def test_bethe_numerical_failure_exit_code(tmp_path):
    rc = run(["bethe", "--length", "6", "--integers", "0", "0",
              "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL


def test_overwrite_refused_without_force(tmp_path):
    assert run(["bethe", "--length", "6", "--output-dir", str(tmp_path)]) == 0
    rc = run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_IO
    rc = run(["bethe", "--length", "6", "--output-dir", str(tmp_path),
              "--force"])
    assert rc == 0


def test_bethe_l36_curve(tmp_path):
    rc = run(["bethe", "--length", "36", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "roots_L36.json").read_text())
    jsonschema.validate(data, _schema("roots.json"))
    assert data["p"] == 12
    lines = (tmp_path / "curve_Z_L36.csv").read_text().strip().splitlines()
    assert len(lines) == 12
    band = data["band"]
    assert band["abs_Z_min"] < band["abs_Z_max"]


def test_scale_paper_range(tmp_path):
    rc = run(["scale", "--from", "6", "--to", "33",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    jsonschema.validate(report, _schema("scale.json"))
    assert abs(report["z_estimate"] - 1.5) <= 1e-5
    gaps = (tmp_path / "gap_series.csv").read_text().strip().splitlines()
    assert gaps[0] == "L,gap_re" and len(gaps) == 12  # sizes 6..36
    exts = (tmp_path / "extrapolants.csv").read_text().strip().splitlines()
    assert exts[0] == "L,extrapolant" and len(exts) == 11


def test_scale_explicit_omega(tmp_path):
    rc = run(["scale", "--from", "6", "--to", "33", "--omega", "1",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    assert report["omega"] == 1.0
    assert abs(report["z_estimate"] - 1.5) <= 1e-5


def test_scale_coarse_range(tmp_path):
    rc = run(["scale", "--from", "6", "--to", "12",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    assert abs(report["z_estimate"] - 1.5) <= 0.2


def test_scale_failure_writes_converged_prefix(tmp_path, monkeypatch):
    """A failed continuation step keeps the converged prefix of the chain
    without solving the chain again."""
    continue_in_l, solve_gap_chain = bethe.continue_in_L, bethe.solve_gap_chain
    chain_calls = []

    def failing_step(roots, target_length, **kwargs):
        if target_length == 15:
            raise bethe.NewtonDivergenceError("injected failure at L=15")
        return continue_in_l(roots, target_length, **kwargs)

    def counted_chain(*args, **kwargs):
        chain_calls.append(args)
        return solve_gap_chain(*args, **kwargs)

    monkeypatch.setattr(bethe, "continue_in_L", failing_step)
    monkeypatch.setattr(bethe, "solve_gap_chain", counted_chain)
    rc = run(["scale", "--from", "6", "--to", "33",
              "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    lines = (tmp_path / "gap_series.csv").read_text().strip().splitlines()
    assert lines[0] == "L,gap_re"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [6, 9, 12]
    assert len(chain_calls) == 1


def test_check_yang_baxter(tmp_path):
    rc = run(["check", "--yang-baxter", "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    jsonschema.validate(report, _schema("check.json"))
    assert report["yang_baxter"]["max_residual"] <= 1e-12
    assert report["yang_baxter"]["n_triples"] == 100


def test_check_transfer_hamiltonian(tmp_path):
    rc = run(["check", "--transfer-hamiltonian", "--length", "3",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["transfer_hamiltonian"]["checks"][0]["discrepancy"] <= 1e-6


def test_check_all(tmp_path):
    rc = run(["check", "--all", "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    jsonschema.validate(report, _schema("check.json"))
    assert report["pass"] is True


def test_check_nothing_selected(tmp_path):
    rc = run(["check", "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_DOMAIN


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"length=6\nna=2\nnb=2\noutput_dir={tmp_path}\n")
    rc = run(["--config", str(cfg), "diag", "--length", "6", "--na", "2",
              "--nb", "2"])
    assert rc == 0
    assert (tmp_path / "diag_L6_na2_nb2.json").exists()


def test_config_file_list_values(tmp_path):
    """A whitespace-separated list in a config file acts as the same list
    given on the command line."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"integers=-1 0\noutput_dir={tmp_path / 'cfg'}\n")
    assert run(["--config", str(cfg), "bethe", "--length", "6"]) == 0
    assert run(["bethe", "--length", "6", "--integers", "-1", "0",
                "--output-dir", str(tmp_path / "cli")]) == 0
    got = json.loads((tmp_path / "cfg" / "roots_L6.json").read_text())
    assert got == json.loads((tmp_path / "cli" / "roots_L6.json").read_text())
    assert got["I"] == [0, -1]


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TASEP2_OUTPUT_DIR", str(tmp_path))
    rc = run(["diag", "--length", "4", "--na", "1", "--nb", "1"])
    assert rc == 0
    assert (tmp_path / "diag_L4_na1_nb1.json").exists()
