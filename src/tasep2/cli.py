"""Command-line interface: diag / bethe / scale / check subcommands.

Every command accepts --seed and --output-dir (default from
TASEP2_OUTPUT_DIR), and refuses to overwrite existing files unless --force
is given.  `scale` and `bethe --length` without `--integers` are
deterministic and accept --seed only because every subcommand does.  A config
file of key=value lines mirroring the long flags (list values separated by
spaces, as in `integers=-1 0`) can seed the defaults.
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


def _fmt(x):
    return float(f"{x:.17g}")


def _open_out(path, force):
    if path.exists() and not force:
        raise FileExistsError(f"refusing to overwrite {path} (use --force)")
    return open(path, "w")


def _write_json(path, payload, force):
    with _open_out(path, force) as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _load_config(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output-dir", default=None)
    sub.add_argument("--force", action="store_true")


def _outdir(args):
    base = args.output_dir or os.environ.get("TASEP2_OUTPUT_DIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_diag(args):
    sector = Sector(args.length, args.na, args.nb)
    gen = build_hamiltonian_tasep(args.length, sector)
    if args.momentum is not None:
        gen = project_momentum(gen, args.momentum)
    if args.krylov:
        result = spectra.krylov_gap(gen, seed=args.seed)
    else:
        result = spectra.dense_spectrum(gen)
    payload = result.summary()
    payload["dimension"] = gen.dimension
    payload["zero_count"] = result.zero_count
    payload["frozen"] = result.gap is None
    out = _outdir(args)
    suffix = "" if args.momentum is None else f"_k{args.momentum}"
    stem = f"diag_L{args.length}_na{args.na}_nb{args.nb}{suffix}"
    if args.format == "csv":
        keys = list(payload)
        with _open_out(out / f"{stem}.csv", args.force) as f:
            f.write(",".join(keys) + "\n")
            f.write(",".join("" if payload[k] is None else str(payload[k])
                             for k in keys) + "\n")
    else:
        _write_json(out / f"{stem}.json", payload, args.force)
    if args.spectrum:
        with _open_out(out / f"spectrum_L{args.length}_na{args.na}"
                             f"_nb{args.nb}{suffix}.txt", args.force) as f:
            result.export_spectrum(f)
    print(json.dumps(payload))
    return EXIT_OK


def cmd_bethe(args):
    if args.from_file:
        with open(args.from_file) as f:
            seed_roots = bethe.BetheRootSet.from_json_dict(json.load(f))
    else:
        seed_roots = None
    if args.integers is not None:
        p = len(args.integers)
        roots = bethe.solve_bethe(args.length, p, args.second_roots,
                                  branch_integers=args.integers,
                                  second_integers=args.second_integers,
                                  seed_roots=seed_roots, seed=args.seed)
    elif seed_roots is not None and seed_roots.length == args.length:
        roots = bethe.solve_bethe(args.length, seed_roots.p, seed_roots.r,
                                  branch_integers=seed_roots.branch_integers,
                                  second_integers=seed_roots.second_integers,
                                  seed_roots=seed_roots, seed=args.seed)
    else:
        roots = bethe.solve_gap_state(args.length)
    out = _outdir(args)
    payload = roots.to_json_dict()
    energy = bethe.energy_from_roots(roots)
    payload["energy"] = [_fmt(energy.real), _fmt(energy.imag)]
    big_z = roots.big_z
    payload["band"] = {
        "abs_Z_min": _fmt(np.min(np.abs(big_z))),
        "abs_Z_max": _fmt(np.max(np.abs(big_z))),
        "abs_lambda_min": _fmt(np.min(np.abs(roots.lam))),
        "abs_lambda_max": _fmt(np.max(np.abs(roots.lam))),
    }
    _write_json(out / f"roots_L{args.length}.json", payload, args.force)
    with _open_out(out / f"curve_Z_L{args.length}.csv", args.force) as f:
        roots.write_curve_csv(f, plane="big_z")
    with _open_out(out / f"curve_lambda_L{args.length}.csv", args.force) as f:
        roots.write_curve_csv(f, plane="lambda")
    print(json.dumps({"L": args.length, "p": roots.p, "r": roots.r,
                      "energy_re": payload["energy"][0],
                      "energy_im": payload["energy"][1],
                      "residual_norm": roots.residual_norm}))
    return EXIT_OK


def cmd_scale(args):
    out = _outdir(args)
    try:
        report = scaling.run_scaling_study(args.frm, args.to, omega=args.omega)
    except bethe.BetheError as exc:
        # retain whatever prefix of the chain converged, then fail loudly
        sys.stderr.write(f"scaling study aborted: {exc}\n")
        chain = exc.chain or {}
        series = scaling.GapSeries(
            [(l, bethe.energy_from_roots(chain[l]).real)
             for l in range(args.frm, args.to + 4, 3) if l in chain])
        with _open_out(out / "gap_series.csv", args.force) as f:
            series.write_csv(f)
        return EXIT_NUMERICAL
    with _open_out(out / "gap_series.csv", args.force) as f:
        report["series"].write_csv(f)
    with _open_out(out / "extrapolants.csv", args.force) as f:
        f.write("L,extrapolant\n")
        for l, e in report["extrapolants"]:
            f.write(f"{l},{e:.17g}\n")
    tab = report["tableau"]
    payload = {
        "z_estimate": _fmt(report["z_estimate"]),
        "error": _fmt(report["error"]),
        "omega": tab.omega,
        "limit": _fmt(tab.limit),
        "truncated": tab.truncated,
        "table": [[_fmt(x) for x in col] for col in tab.table],
        "extrapolants": {str(l): _fmt(e) for l, e in report["extrapolants"]},
    }
    _write_json(out / "scaling_report.json", payload, args.force)
    print(json.dumps({"z_estimate": payload["z_estimate"],
                      "error": payload["error"], "omega": payload["omega"]}))
    return EXIT_OK


def cmd_check(args):
    out = _outdir(args)
    results = {}
    rng = np.random.default_rng(args.seed)
    if args.yang_baxter or args.all:
        worst, triples = 0.0, []
        for _ in range(args.triples):
            th = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
            th /= np.maximum(1.0, np.abs(th))
            res = yangbaxter.check_yang_baxter(*th)
            worst = max(worst, res)
            triples.append({"theta": [[t.real, t.imag] for t in th],
                            "residual": _fmt(res)})
        results["yang_baxter"] = {
            "max_residual": _fmt(worst),
            "n_triples": args.triples,
            "pass": worst <= 1e-12,
            "triples": triples,
        }
    if args.transfer_hamiltonian or args.all:
        lengths = [args.length] if args.length else [2, 3]
        checks = [yangbaxter.transfer_hamiltonian_check(l) for l in lengths]
        results["transfer_hamiltonian"] = {
            "checks": checks,
            "pass": all(c["discrepancy"] <= 1e-6 for c in checks),
        }
    if not results:
        raise ValueError("nothing to check: pass --yang-baxter, "
                         "--transfer-hamiltonian, or --all")
    results["pass"] = all(v["pass"] for v in results.values()
                          if isinstance(v, dict))
    _write_json(out / "check_report.json", results, args.force)
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
                   help="shift-inverted Arnoldi instead of a dense solve")
    p.add_argument("--spectrum", action="store_true",
                   help="also write the full eigenvalue list")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="summary file format")
    _add_common(p)
    p.set_defaults(func=cmd_diag)

    p = parser._command_parsers["bethe"] = sub.add_parser(
        "bethe", help="solve the nested root system")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--integers", type=int, nargs="+", default=None)
    p.add_argument("--second-roots", type=int, default=0)
    p.add_argument("--second-integers", type=int, nargs="+", default=None)
    p.add_argument("--from-file", default=None,
                   help="JSON root set used to seed the solve")
    _add_common(p)
    p.set_defaults(func=cmd_bethe)

    p = parser._command_parsers["scale"] = sub.add_parser(
        "scale", help="gap series and exponent extrapolation")
    p.add_argument("--from", dest="frm", type=int, default=6)
    p.add_argument("--to", dest="to", type=int, default=33)
    p.add_argument("--omega", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_scale)

    p = parser._command_parsers["check"] = sub.add_parser(
        "check", help="integrability verification")
    p.add_argument("--yang-baxter", action="store_true")
    p.add_argument("--transfer-hamiltonian", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--triples", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        try:
            defaults = _load_config(args.config)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_IO
        coerced = {}
        for key, val in defaults.items():
            if val.lower() in ("true", "false"):
                coerced[key] = val.lower() == "true"
            else:
                try:
                    coerced[key] = int(val)
                except ValueError:
                    coerced[key] = val
        for sub_parser in (parser, *parser._command_parsers.values()):
            sub_parser.set_defaults(**coerced)
            # argparse would convert a list option's string default whole
            sub_parser.set_defaults(**{
                a.dest: [a.type(v) for v in defaults[a.dest].split()]
                for a in sub_parser._actions
                if a.nargs == "+" and a.dest in defaults})
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
