"""Command-line interface: outputs, schemas, determinism, exit codes."""

import json
from importlib import resources

import jsonschema
import pytest

from tasep2 import (Sector, bethe, build_hamiltonian_tasep, cli,
                    dense_spectrum, scaling)


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


def test_diag_momentum_block_solved_in_real_form(tmp_path):
    """(9,3,3) k = 1 is solved in its real form and keeps the gap of the
    complex block's dense spectrum, 0.27143713655943460 +
    0.28236121493727280i, to 1e-12."""
    rc = run(["diag", "--length", "9", "--na", "3", "--nb", "3",
              "--momentum", "1", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "diag_L9_na3_nb3_k1.json").read_text())
    gap = complex(data["gap_re"], data["gap_im"])
    assert abs(gap - (0.2714371365594346 + 0.2823612149372728j)) <= 1e-12



def test_diag_spectrum_export(tmp_path):
    rc = run(["diag", "--length", "3", "--na", "1", "--nb", "1",
              "--spectrum", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectrum_L3_na1_nb1.txt").read_text().strip().splitlines()
    assert len(lines) == 6
    float(lines[0].split()[0]), float(lines[0].split()[1])


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


def test_bethe_second_level_state(tmp_path):
    """r is the count of --second-integers: the p = 2, r = 1 state of L = 6
    has the eigenvalue (5 - sqrt 5)/2 of the sector (n_A, n_B) = (4, 1)."""
    rc = run(["bethe", "--length", "6", "--integers", "-2", "1",
              "--second-integers", "0", "--seed", "1",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "roots_L6.json").read_text())
    jsonschema.validate(data, _schema("roots.json"))
    assert (data["p"], data["r"], data["J"]) == (2, 1, [0])
    assert abs(complex(*data["energy"]) - (5 - 5 ** 0.5) / 2) <= 1e-12


def test_bethe_second_integers_need_integers(tmp_path, capsys):
    """--second-integers without --integers is a domain error naming both
    flags, with or without --from-file, and writes no files."""
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    for extra in ([], ["--from-file", str(tmp_path / "roots_L6.json")]):
        out = tmp_path / f"again{len(extra)}"
        rc = run(["bethe", "--length", "6", "--second-integers", "0", *extra,
                  "--output-dir", str(out)])
        assert rc == cli.EXIT_DOMAIN
        assert "--second-integers needs --integers" in capsys.readouterr().err
        assert not out.exists()


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


def test_bethe_seed_file_with_other_root_count(tmp_path, capsys):
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    rc = run(["bethe", "--length", "6", "--integers", "-1", "0", "1",
              "--from-file", str(tmp_path / "roots_L6.json"),
              "--output-dir", str(tmp_path / "again")])
    assert rc == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "seed roots have (p, r) = (2, 0), the integers ask for (3, 0)" in err


def test_bethe_seed_file_of_other_length_refused(tmp_path, capsys):
    """A root set of another L and no --integers is a domain error naming
    both lengths, not a silent solve of the gap state."""
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    rc = run(["bethe", "--length", "9", "--from-file",
              str(tmp_path / "roots_L6.json"),
              "--output-dir", str(tmp_path / "again")])
    assert rc == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "L = 6" in err and "L = 9" in err
    assert not (tmp_path / "again" / "roots_L9.json").exists()


def test_bethe_numerical_failure_exit_code(tmp_path):
    rc = run(["bethe", "--length", "6", "--integers", "0", "0",
              "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL


def test_bethe_seed_file_root_on_pole_exit_code(tmp_path, capsys):
    """A seed root at Z = 1 (lambda = 0) is a numerical failure that names
    the residual row the pole made infinite."""
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    data = json.loads((tmp_path / "roots_L6.json").read_text())
    data["lambda"][0] = [0.0, 0.0]
    (tmp_path / "pole.json").write_text(json.dumps(data))
    rc = run(["bethe", "--length", "6", "--from-file",
              str(tmp_path / "pole.json"),
              "--output-dir", str(tmp_path / "again")])
    assert rc == cli.EXIT_NUMERICAL
    assert "residual row Z_0 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["lambda", "I"])
def test_bethe_seed_file_missing_key_exit_code(tmp_path, capsys, missing):
    """A --from-file root set without a key is a domain error naming the
    key, not a traceback."""
    run(["bethe", "--length", "6", "--output-dir", str(tmp_path)])
    data = json.loads((tmp_path / "roots_L6.json").read_text())
    del data[missing]
    (tmp_path / "seed.json").write_text(json.dumps(data))
    rc = run(["bethe", "--length", "6", "--from-file",
              str(tmp_path / "seed.json"),
              "--output-dir", str(tmp_path / "again")])
    assert rc == cli.EXIT_DOMAIN
    assert f"has no key '{missing}'" in capsys.readouterr().err


def _assert_rows(path, sep, header, values):
    """`path` is `header` (if any), then one line per row of `values`, each
    number the .17g text of the exact double."""
    lines = path.read_text().splitlines()
    if header is not None:
        assert lines.pop(0) == header
    assert lines == [sep.join(f"{x:.17g}" for x in row) for row in values]
    assert [[float(x) for x in line.split(sep)] for line in lines] == [
        [float(x) for x in row] for row in values]


def test_text_reports_hold_exact_doubles(tmp_path):
    """The spectrum, curve and gap-series files hold the doubles the library
    returned or the JSON report holds, byte for byte; only the last has a
    header.  The extrapolants are in the scaling report alone."""
    assert run(["diag", "--length", "6", "--na", "2", "--nb", "2",
                "--spectrum", "--output-dir", str(tmp_path)]) == 0
    evs = dense_spectrum(build_hamiltonian_tasep(6, Sector(6, 2, 2)))
    _assert_rows(tmp_path / "spectrum_L6_na2_nb2.txt", " ", None,
                 [(x.real, x.imag) for x in evs.eigenvalues])

    assert run(["bethe", "--length", "6", "--output-dir", str(tmp_path)]) == 0
    roots = json.loads((tmp_path / "roots_L6.json").read_text())
    big_z = bethe.solve_gap_state(6).big_z
    _assert_rows(tmp_path / "curve_Z_L6.csv", ",", None,
                 [(z.real, z.imag) for z in big_z])
    _assert_rows(tmp_path / "curve_lambda_L6.csv", ",", None, roots["lambda"])

    assert run(["scale", "--from", "6", "--to", "12",
                "--output-dir", str(tmp_path)]) == 0
    chain = bethe.solve_gap_chain(15)
    _assert_rows(tmp_path / "gap_series.csv", ",", "L,gap_re",
                 [(l, bethe.energy_from_roots(chain[l]).real)
                  for l in range(6, 16, 3)])
    assert not (tmp_path / "extrapolants.csv").exists()


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
    """The report holds results only: its omega 1 tableau is rebuilt from
    its extrapolants, bit for bit, on the paper's range and on 6..327; the
    gap series and the report are the only files written."""
    for to in (327, 33):
        out = tmp_path / str(to)
        rc = run(["scale", "--from", "6", "--to", str(to),
                  "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "scaling_report.json").read_text())
        jsonschema.validate(report, _schema("scale.json"))
        assert set(report) == {"z_estimate", "error", "truncated",
                               "extrapolants"}
        tab = scaling.bst_extrapolate(
            sorted((int(l), v) for l, v in report["extrapolants"].items()),
            1.0)
        assert (-tab.limit, tab.error_estimate, tab.truncated) == (
            report["z_estimate"], report["error"], report["truncated"])
        assert sorted(p.name for p in out.iterdir()) == [
            "gap_series.csv", "scaling_report.json"]
    assert abs(report["z_estimate"] - 1.5) <= 1e-5
    assert len(report["extrapolants"]) == 10  # L = 6..33
    gaps = (out / "gap_series.csv").read_text().strip().splitlines()
    assert gaps[0] == "L,gap_re" and len(gaps) == 12  # sizes 6..36


def test_scale_rejects_omega(tmp_path):
    """`scale` has no --omega: its tableau is always at omega = 1."""
    with pytest.raises(SystemExit) as info:
        run(["scale", "--from", "6", "--to", "33", "--omega", "1",
             "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert not (tmp_path / "scaling_report.json").exists()


def test_scale_coarse_range(tmp_path):
    rc = run(["scale", "--from", "6", "--to", "12",
              "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    assert abs(report["z_estimate"] - 1.5) <= 0.2


def test_scale_failure_writes_converged_prefix(tmp_path, monkeypatch):
    """A failed size of the chain keeps the converged prefix of the chain
    without solving the chain again."""
    newton, solve_gap_chain = bethe._newton, bethe.solve_gap_chain
    chain_calls = []

    def failing_step(Z0, Y0, length, *args):
        if length == 15:
            raise bethe.NewtonDivergenceError("injected failure at L=15")
        return newton(Z0, Y0, length, *args)

    def counted_chain(*args, **kwargs):
        chain_calls.append(args)
        return solve_gap_chain(*args, **kwargs)

    monkeypatch.setattr(bethe, "_newton", failing_step)
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
    assert len(report["yang_baxter"]["triples"]) == 100


@pytest.mark.parametrize("triples", ["0", "-3"])
def test_check_without_triples_is_domain_error(tmp_path, capsys, triples):
    """A Yang-Baxter check over no triples checked nothing: it exits 2 and
    writes no report, and --all does the same."""
    for what in ("--yang-baxter", "--all"):
        rc = run(["check", what, "--triples", triples,
                  "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_DOMAIN
        assert "--triples" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()
    assert run(["check", "--transfer-hamiltonian", "--triples", triples,
                "--length", "2", "--output-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, message", [
    (["--yang-baxter", "--length", "5", "--triples", "1"],
     "--length needs --transfer-hamiltonian or --all"),
    (["--transfer-hamiltonian", "--length", "0"], "need at least two sites"),
    (["--transfer-hamiltonian", "--length", "9"], "1 <= L <= 8"),
])
def test_check_length_domain_error(tmp_path, capsys, argv, message):
    """A --length that no check uses, one below two sites, or one above the
    eight sites of the 3^L transfer matrix exits 2 and writes no report."""
    rc = run(["check", *argv, "--output-dir", str(tmp_path)])
    assert rc == cli.EXIT_DOMAIN
    assert message in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


@pytest.mark.parametrize("argv", [
    ["scale", "--from", "7", "--to", "33"],
    ["check", "--yang-baxter", "--triples", "0"],
    ["check"],
    ["scale", "--from", "6", "--to", "6"],
    ["diag", "--length", "6", "--na", "2", "--nb", "2", "--krylov",
     "--spectrum"],
])
def test_domain_error_creates_no_output_dir(tmp_path, argv):
    """A run refused for its arguments leaves no output directory behind:
    among them `diag --krylov --spectrum`, since Arnoldi returns N_EIGS
    eigenvalues, not the full list `--spectrum` writes."""
    out = tmp_path / "out"
    assert run([*argv, "--output-dir", str(out)]) == cli.EXIT_DOMAIN
    assert not out.exists()


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


def test_config_file_comments_and_malformed_lines(tmp_path, capsys):
    """Blank lines and # comments are skipped; a line without `=` is a
    config error (exit 4)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# an L = 6 sector\n\nlength=6\n  # na next\nna=2\n"
                   f"nb=2\noutput_dir={tmp_path}\n")
    assert run(["--config", str(cfg), "diag"]) == 0
    cfg.write_text("length 6\n")
    assert run(["--config", str(cfg), "diag"]) == cli.EXIT_IO
    assert "config line is not key=value: 'length 6'" in (
        capsys.readouterr().err)


def test_config_file_supplies_required_options(tmp_path):
    """Options a subcommand requires may come from the config file alone,
    and a flag on the command line still overrides the file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"length=6\nna=2\nnb=2\noutput_dir={tmp_path}\n")
    assert run(["--config", str(cfg), "diag"]) == 0
    data = json.loads((tmp_path / "diag_L6_na2_nb2.json").read_text())
    assert data["dimension"] == 90
    assert run(["--config", str(cfg), "diag", "--nb", "1"]) == 0
    data = json.loads((tmp_path / "diag_L6_na2_nb1.json").read_text())
    assert (data["n_B"], data["dimension"]) == (1, 60)


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


def test_config_file_force_flag(tmp_path, capsys):
    """A store_true flag in a config file is on for `true` and off for
    `false`, in any case: a repeated `diag` overwrites its report, or refuses
    to.  Any other value, such as `yes`, is a config error (exit 4) and
    writes no report."""
    cfg = tmp_path / "run.cfg"
    args = ["--config", str(cfg), "diag", "--length", "4", "--na", "1",
            "--nb", "1"]
    for force, rc in (("true", 0), ("false", cli.EXIT_IO), ("TRUE", 0)):
        cfg.write_text(f"force={force}\noutput_dir={tmp_path / force}\n")
        assert run(args) == 0
        assert run(args) == rc, force
    capsys.readouterr()
    cfg.write_text(f"force=yes\noutput_dir={tmp_path / 'yes'}\n")
    assert run(args) == cli.EXIT_IO
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "yes" / "diag_L4_na1_nb1.json").exists()


def test_config_keys_are_long_flags(tmp_path, capsys):
    """A config key is a long flag's name (`from`, whose dest is `frm`); a
    key that names no flag of any subcommand, or a list or scalar value that
    does not convert, is a config error (exit 4, not argparse's 2)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"from=9\nto=21\noutput-dir={tmp_path}\n")
    assert run(["--config", str(cfg), "scale"]) == 0
    lines = (tmp_path / "gap_series.csv").read_text().strip().splitlines()
    assert lines[1].startswith("9,")
    cfg.write_text(f"frm=9\noutput_dir={tmp_path / 'frm'}\n")
    assert run(["--config", str(cfg), "scale"]) == cli.EXIT_IO
    assert "--frm" in capsys.readouterr().err
    assert not (tmp_path / "frm").exists()
    cfg.write_text("integers=-1 x\n")
    assert run(["--config", str(cfg), "bethe", "--length", "6"]) == cli.EXIT_IO
    cfg.write_text(f"seed=abc\noutput_dir={tmp_path / 'seed'}\n")
    assert run(["--config", str(cfg), "scale"]) == cli.EXIT_IO
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "seed").exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TASEP2_OUTPUT_DIR", str(tmp_path))
    rc = run(["diag", "--length", "4", "--na", "1", "--nb", "1"])
    assert rc == 0
    assert (tmp_path / "diag_L4_na1_nb1.json").exists()
