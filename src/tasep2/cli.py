"""Command-line interface: diag / bethe / scale / check subcommands.

This module writes every report and reads the root sets of `--from-file`;
the numerics modules return numbers and open no files.  Every summary is
JSON; the text reports are rows of numbers written with `.17g`, which parses
back to the same double.  `diag --spectrum` needs the dense solver.  `bethe`
takes the root counts p and r from the lengths of --integers and
--second-integers, which needs --integers.  `scale` takes only the range
--from..--to; `scaling.bst_extrapolate` of its report's extrapolants at
omega = 1 rebuilds the tableau bit for bit.

Every command accepts --seed and --output-dir (default from
TASEP2_OUTPUT_DIR), and refuses to overwrite existing files unless --force
is given.  `scale` and `bethe --length` without `--integers` are
deterministic and accept --seed only because every subcommand does.  A config
file of key=value lines can seed the defaults: each key is a long flag without
its dashes (`from=9`, `output-dir` or `output_dir`), list values are separated
by spaces (`integers=-1 0`), a flag is `true` or `false` in any case, and an
unknown key or a bad value is a config error.
Exit codes: 0 success, 2 domain error, 3 numerical failure, 4 I/O error.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bethe, scaling, spectra, yangbaxter
from .lattice import Sector, build_hamiltonian_tasep, project_momentum

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _open_out(path, force):
    if path.exists() and not force:
        raise FileExistsError(f"refusing to overwrite {path} (use --force)")
    return open(path, "w")


def _write_json(path, payload, force):
    with _open_out(path, force) as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _write_rows(path, force, header, rows):
    """The text `header`, then one line per row of numbers, each with .17g:
    space-separated in a .txt file, comma-separated in a .csv."""
    sep = " " if path.suffix == ".txt" else ","
    with _open_out(path, force) as f:
        f.write(header)
        f.writelines(sep.join(f"{x:.17g}" for x in row) + "\n"
                     for row in rows)


def _re_im(values):
    return [[x.real, x.imag] for x in values]


def _roots_payload(roots):
    """roots.json of a root set: the paper's variables lambda = ln(Z)/2,
    Lambda = ln(Y)/2 and E_raw = L + 2p - 2 E_gen, the generator eigenvalue
    E_gen, and the band of |Z| and |lambda| (empty, [inf, 0], for p = 0)."""
    lam = 0.5 * np.log(roots.big_z)
    energy = bethe.energy_from_roots(roots)
    e_raw = roots.length + 2.0 * roots.p - 2.0 * energy
    abs_z, abs_lam = np.abs(roots.big_z), np.abs(lam)
    return {
        "L": roots.length, "p": roots.p, "r": roots.r,
        "I": [int(i) for i in roots.branch_integers],
        "J": [int(j) for j in roots.second_integers],
        "lambda": _re_im(lam),
        "Lambda": _re_im(0.5 * np.log(roots.big_y)),
        "energy_raw": [e_raw.real, e_raw.imag],
        "residual_norm": roots.residual_norm,
        "energy": [energy.real, energy.imag],
        "band": {"abs_Z_min": abs_z.min(initial=np.inf),
                 "abs_Z_max": abs_z.max(initial=0.0),
                 "abs_lambda_min": abs_lam.min(initial=np.inf),
                 "abs_lambda_max": abs_lam.max(initial=0.0)},
    }


def _read_roots(path):
    """The root set of a roots.json report; a missing key is a ValueError."""
    data = json.loads(Path(path).read_text())
    try:
        big_z, big_y = (np.exp(2.0 * np.array(
            [complex(a, b) for a, b in data[key]], dtype=complex))
            for key in ("lambda", "Lambda"))
        return bethe.BetheRootSet(
            data["L"], big_z, big_y, np.asarray(data["I"], dtype=int),
            np.asarray(data["J"], dtype=int), data.get("residual_norm", np.nan))
    except KeyError as exc:
        raise ValueError(f"{path} has no key {exc}") from None


def _load_config(path, parsers):
    """Set the key=value lines of a config file as defaults of the parsers.

    A key is a long flag without its dashes, in any parser, and a flag that
    takes no value is set by `true` or `false` in any case.  A key that
    names no flag, or a value that does not convert, raises ValueError; left
    as a string, a bad value would fail later as an argparse usage error.
    """
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, val = line.split("=", 1)
        values["--" + key.strip().replace("_", "-")] = val.strip()
    used = set()
    for parser in parsers:
        for action in parser._actions:
            flag = next((o for o in action.option_strings if o in values),
                        None)
            if flag is None:
                continue
            used.add(flag)
            val = values[flag]
            if action.nargs == 0:  # store_true
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"{flag} is true or false, not {val!r}")
                val = val.lower() == "true"
            elif action.nargs == "+":
                val = [action.type(v) for v in val.split()]
            elif action.type is not None:
                val = action.type(val)
            parser.set_defaults(**{action.dest: val})
            action.required = False
    unknown = sorted(set(values) - used)
    if unknown:
        raise ValueError("no option " + ", ".join(unknown))


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output-dir", default=None)
    sub.add_argument("--force", action="store_true")


def _outdir(args):
    path = Path(args.output_dir or os.environ.get("TASEP2_OUTPUT_DIR", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_diag(args):
    if args.krylov and args.spectrum:
        raise ValueError("--spectrum needs the dense solver, not --krylov")
    sector = Sector(args.length, args.na, args.nb)
    if args.momentum is None:
        gen = build_hamiltonian_tasep(args.length, sector)
    else:
        gen = project_momentum(sector, args.momentum)
    if args.krylov:
        result = spectra.krylov_gap(gen, seed=args.seed)
    else:
        result = spectra.dense_spectrum(gen)
    gap = result.gap
    payload = {"L": args.length, "n_A": args.na, "n_B": args.nb,
               "k": args.momentum,
               "gap_re": None if gap is None else gap.real,
               "gap_im": None if gap is None else gap.imag,
               "method": "krylov" if args.krylov else "dense",
               "dimension": gen.dimension, "zero_count": result.zero_count,
               "frozen": gap is None}
    out = _outdir(args)
    suffix = "" if args.momentum is None else f"_k{args.momentum}"
    stem = f"diag_L{args.length}_na{args.na}_nb{args.nb}{suffix}"
    _write_json(out / f"{stem}.json", payload, args.force)
    if args.spectrum:
        _write_rows(out / f"spectrum_L{args.length}_na{args.na}"
                          f"_nb{args.nb}{suffix}.txt", args.force, "",
                    _re_im(result.eigenvalues))
    print(json.dumps(payload))
    return EXIT_OK


def cmd_bethe(args):
    if args.second_integers is not None and args.integers is None:
        raise ValueError("--second-integers needs --integers")
    seed_roots = None
    if args.from_file:
        seed_roots = _read_roots(args.from_file)
    integers, second = args.integers, args.second_integers
    if integers is None and seed_roots is not None:
        if seed_roots.length != args.length:
            raise ValueError(
                f"--from-file holds a root set of L = {seed_roots.length}, "
                f"--length asks for L = {args.length}")
        integers, second = seed_roots.branch_integers, seed_roots.second_integers
    if integers is None:
        roots = bethe.solve_gap_state(args.length)
    else:
        roots = bethe.solve_bethe(args.length, branch_integers=integers,
                                  second_integers=second,
                                  seed_roots=seed_roots, seed=args.seed)
    out = _outdir(args)
    payload = _roots_payload(roots)
    _write_json(out / f"roots_L{args.length}.json", payload, args.force)
    _write_rows(out / f"curve_Z_L{args.length}.csv", args.force, "",
                _re_im(roots.big_z))
    _write_rows(out / f"curve_lambda_L{args.length}.csv", args.force, "",
                payload["lambda"])
    print(json.dumps({"L": args.length, "p": roots.p, "r": roots.r,
                      "energy_re": payload["energy"][0],
                      "energy_im": payload["energy"][1],
                      "residual_norm": roots.residual_norm}))
    return EXIT_OK


def cmd_scale(args):
    try:
        report = scaling.run_scaling_study(args.frm, args.to)
    except bethe.BetheError as exc:
        # retain whatever prefix of the chain converged, then fail loudly
        sys.stderr.write(f"scaling study aborted: {exc}\n")
        chain = exc.chain or {}
        _write_rows(_outdir(args) / "gap_series.csv", args.force,
                    "L,gap_re\n",
                    [(l, bethe.energy_from_roots(chain[l]).real)
                     for l in range(args.frm, args.to + 4, 3) if l in chain])
        return EXIT_NUMERICAL
    out = _outdir(args)
    _write_rows(out / "gap_series.csv", args.force, "L,gap_re\n",
                report["series"])
    payload = {
        "z_estimate": report["z_estimate"],
        "error": report["error"],
        "truncated": report["tableau"].truncated,
        "extrapolants": {str(l): e for l, e in report["extrapolants"]},
    }
    _write_json(out / "scaling_report.json", payload, args.force)
    print(json.dumps({"z_estimate": payload["z_estimate"],
                      "error": payload["error"]}))
    return EXIT_OK


def cmd_check(args):
    if args.length is not None and not (args.transfer_hamiltonian or args.all):
        raise ValueError("--length needs --transfer-hamiltonian or --all")
    results = {}
    rng = np.random.default_rng(args.seed)
    if args.yang_baxter or args.all:
        if args.triples < 1:
            raise ValueError("--triples must be at least 1")
        worst, triples = 0.0, []
        for _ in range(args.triples):
            th = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            th /= np.maximum(1.0, np.abs(th))
            res = yangbaxter.check_yang_baxter(*th)
            worst = max(worst, res)
            triples.append({"theta": _re_im(th), "residual": res})
        results["yang_baxter"] = {
            "max_residual": worst,
            "pass": worst <= 1e-12,
            "triples": triples,
        }
    if args.transfer_hamiltonian or args.all:
        lengths = [2, 3] if args.length is None else [args.length]
        checks = [yangbaxter.transfer_hamiltonian_check(l) for l in lengths]
        results["transfer_hamiltonian"] = {
            "checks": checks,
            "pass": all(c["discrepancy"] <= 1e-6 for c in checks),
        }
    if not results:
        raise ValueError("nothing to check: pass --yang-baxter, "
                         "--transfer-hamiltonian, or --all")
    results["pass"] = all(v["pass"] for v in results.values())
    _write_json(_outdir(args) / "check_report.json", results, args.force)
    print(json.dumps({"pass": results["pass"]}))
    return EXIT_OK if results["pass"] else EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tasep2",
        description="Two-species totally asymmetric exclusion process on a "
                    "ring: spectra, Bethe roots, and gap scaling.",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file mirroring the long flags")
    sub = parser.add_subparsers(dest="command", required=True)
    parser._command_parsers = {}

    p = parser._command_parsers["diag"] = sub.add_parser(
        "diag", help="diagonalize a sector block")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--momentum", type=int, default=None)
    p.add_argument("--krylov", action="store_true",
                   help="Arnoldi (smallest real parts), not a dense solve")
    p.add_argument("--spectrum", action="store_true",
                   help="also write the full eigenvalue list (dense only)")
    _add_common(p)
    p.set_defaults(func=cmd_diag)

    p = parser._command_parsers["bethe"] = sub.add_parser(
        "bethe", help="solve the nested root system")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--integers", type=int, nargs="+", default=None)
    p.add_argument("--second-integers", type=int, nargs="+", default=None,
                   help="second-level integers J; r is their count")
    p.add_argument("--from-file", default=None,
                   help="JSON root set used to seed the solve")
    _add_common(p)
    p.set_defaults(func=cmd_bethe)

    p = parser._command_parsers["scale"] = sub.add_parser(
        "scale", help="gap series and exponent extrapolation")
    p.add_argument("--from", dest="frm", type=int, default=6)
    p.add_argument("--to", dest="to", type=int, default=33)
    _add_common(p)
    p.set_defaults(func=cmd_scale)

    p = parser._command_parsers["check"] = sub.add_parser(
        "check", help="integrability verification")
    p.add_argument("--yang-baxter", action="store_true")
    p.add_argument("--transfer-hamiltonian", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--length", type=int, default=None,
                   help="ring length of the transfer check (default 2 and 3)")
    p.add_argument("--triples", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    # --config is read first, so that it can supply required options
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    args, _ = pre.parse_known_args(argv)
    if args.config:
        try:
            _load_config(args.config,
                         (parser, *parser._command_parsers.values()))
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_IO
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except (bethe.BetheError, spectra.ConvergenceError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (OSError, FileExistsError) as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
