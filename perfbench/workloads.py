"""The benchmark's workloads: lists of operations, each timed then checked.

An operation's `run` is the only timed part. Its `check` runs afterwards,
outside the timed region, and returns the list of bounds the output missed;
an empty list means the operation passed. Every call into tasep2 goes through
a module attribute (`cli.main`, `lattice.build_hamiltonian_tasep`, ...), so
the tracer's wrappers see it.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

import tasep2
from tasep2 import bethe, cli, lattice, scaling, spectra

HERE = Path(__file__).resolve().parent
SCHEMAS = Path(tasep2.__file__).resolve().parent / "schemas"

TABLE_TOL = 1e-8     # extrapolants against the published table
Z_TOL = 1e-5         # |z - 3/2| of the BST limit of the ten extrapolants
GAP_TOL = 1e-9       # ED gap against the Bethe gap or the dense reference
COLSUM_TOL = 1e-12   # generator column sums
ZERO_TOL = 1e-10     # eigenvalues counted as the zero mode

# Sizes of the workloads as defined; REDUCED is for the self-test.
FULL = {
    "chain_to": 327,
    "ed": ((12, 4, 4, 1), (10, 3, 3, None)),
    "small_lengths": tuple(range(2, 9)),
    "calibrate": (6, 9),
}
REDUCED = {
    "chain_to": 33,
    "ed": ((6, 2, 2, 1), (6, 2, 2, None)),
    "small_lengths": (2, 3, 4),
    "calibrate": (6,),
}


@dataclass
class Operation:
    name: str
    run: Callable     # (workdir) -> output
    check: Callable   # (output, workdir) -> list of failure messages


def load_references():
    """Published extrapolants and committed dense-spectrum gaps."""
    data = json.loads((HERE / "reference.json").read_text())
    return {
        "extrapolants": {int(l): v
                         for l, v in data["paper_extrapolants"].items()},
        "dense_gap": {tuple(int(x) for x in key.split(",")): complex(*v)
                      for key, v in data["dense_gap"].items()},
    }


def dense_reference_gap(length, n_a, n_b):
    """Gap of a full sector by dense LAPACK: how `dense_gap` was made."""
    gen = lattice.build_hamiltonian_tasep(length,
                                          lattice.Sector(length, n_a, n_b))
    return spectra.dense_spectrum(gen, dense_limit=gen.dimension).gap


def schema_errors(report, schema_name):
    """Messages of every violation of `src/tasep2/schemas/<schema_name>`."""
    schema = json.loads((SCHEMAS / schema_name).read_text())
    return [f"{schema_name}: {err.message}"
            for err in jsonschema.Draft7Validator(schema).iter_errors(report)]


def _cli(argv):
    """Operation body calling `tasep2.cli.main` with output to `workdir`."""
    def run(workdir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--output-dir", str(workdir)])
        return code, err.getvalue()
    return run


def _cli_report(result, workdir, filename, schema_name):
    """(report, failures) of a CLI operation that should exit 0."""
    code, stderr = result
    if code != 0:
        return None, [f"exit code {code}: {stderr.strip()}"]
    report = json.loads((workdir / filename).read_text())
    return report, schema_errors(report, schema_name)


def _gap_errors(label, got, want, conjugate_ok):
    dist = abs(got - want)
    if conjugate_ok:
        dist = min(dist, abs(got - np.conj(want)))
    if not dist <= GAP_TOL:
        return [f"{label}: gap {got} differs from {want} by {dist:.3e}"]
    return []


def bethe_chain(seed, sizes, refs):
    """`tasep2 scale` from L=6 through the Bethe chain and BST."""
    table = refs["extrapolants"]

    def check(result, workdir):
        report, errors = _cli_report(result, workdir, "scaling_report.json",
                                     "scale.json")
        if report is None:
            return errors
        got = report["extrapolants"]
        for l, want in sorted(table.items()):
            value = got.get(str(l))
            if value is None or not abs(value - want) <= TABLE_TOL:
                errors.append(f"extrapolant L={l}: {value} vs {want}")
        if not errors:
            tab = scaling.bst_scan([(l, got[str(l)]) for l in sorted(table)])
            if not abs(-tab.limit - 1.5) < Z_TOL:
                errors.append(f"BST z = {-tab.limit} misses 3/2 by >= {Z_TOL}")
        return errors

    argv = ["scale", "--from", "6", "--to", str(sizes["chain_to"]),
            "--seed", str(seed)]
    return [Operation(f"scale_to_{sizes['chain_to']}", _cli(argv), check)]


def _diag_operation(length, n_a, n_b, momentum, seed, want):
    argv = ["diag", "--length", str(length), "--na", str(n_a),
            "--nb", str(n_b), "--krylov", "--seed", str(seed)]
    stem = f"diag_L{length}_na{n_a}_nb{n_b}"
    if momentum is not None:
        argv += ["--momentum", str(momentum)]
        stem += f"_k{momentum}"

    def check(result, workdir):
        report, errors = _cli_report(result, workdir, f"{stem}.json",
                                     "diag.json")
        if report is None:
            return errors
        if report["gap_re"] is None:
            return errors + [f"{stem}: no gap reported"]
        got = complex(report["gap_re"], report["gap_im"])
        if momentum is None:
            if report["zero_count"] != 1:
                errors.append(f"{stem}: zero_count {report['zero_count']}")
            return errors + _gap_errors(stem, got, want, conjugate_ok=False)
        return errors + _gap_errors(stem, got, want, conjugate_ok=True)

    return Operation(stem, _cli(argv), check)


def ed_gap(seed, sizes, refs):
    """`tasep2 diag --krylov` on a momentum block and on a full sector.

    A momentum block is checked against the Bethe gap state of its size,
    a full sector against the committed dense-spectrum gap.
    """
    ops = []
    for length, n_a, n_b, momentum in sizes["ed"]:
        if momentum is None:
            want = refs["dense_gap"][(length, n_a, n_b)]
        else:
            want = bethe.energy_from_roots(bethe.solve_gap_state(length))
        ops.append(_diag_operation(length, n_a, n_b, momentum, seed, want))
    return ops


def _sector_operation(sector):
    def run(workdir):
        gen = lattice.build_hamiltonian_tasep(sector.length, sector)
        return gen, spectra.dense_spectrum(gen)

    def check(result, workdir):
        gen, spec = result
        errors = []
        colsum = float(np.max(np.abs(gen.column_sums())))
        if not colsum <= COLSUM_TOL:
            errors.append(f"max |column sum| {colsum:.3e}")
        if spec.zero_count != 1:
            errors.append(f"zero_count {spec.zero_count}")
        rest = spec.eigenvalues[np.abs(spec.eigenvalues) > ZERO_TOL]
        if not np.all(rest.real > 0):
            errors.append("nonzero eigenvalue with Re <= 0")
        return errors

    name = f"sector_L{sector.length}_na{sector.n_a}_nb{sector.n_b}"
    return Operation(name, run, check)


def _calibrate_operation(length, seed):
    def run(workdir):
        return bethe.calibrate_energy_map(length, seed=seed)

    def check(emap, workdir):
        if (emap.sign, emap.scale, emap.offset) != (-1, 0.5, 0.0):
            return [f"calibration {emap} is not (-1, 1/2, 0)"]
        return []

    return Operation(f"calibrate_L{length}", run, check)


def verify_small(seed, sizes, refs):
    """Many small calls: every small sector, calibration, `tasep2 check`."""
    ops = [_sector_operation(sector)
           for length in sizes["small_lengths"]
           for sector in lattice.all_sectors(length)]
    ops += [_calibrate_operation(length, seed)
            for length in sizes["calibrate"]]

    def check(result, workdir):
        report, errors = _cli_report(result, workdir, "check_report.json",
                                     "check.json")
        if report is not None and report["pass"] is not True:
            errors.append("check --all did not pass")
        return errors

    ops.append(Operation("check_all",
                         _cli(["check", "--all", "--seed", str(seed)]), check))
    return ops


def ed_verify(seed, sizes, refs):
    """`ed_gap` and `verify_small` in one pass: the big and the small calls
    into `lattice` and `spectra`, plus calibration and `tasep2 check`."""
    return ed_gap(seed, sizes, refs) + verify_small(seed, sizes, refs)


WORKLOADS = {
    "bethe_chain": bethe_chain,
    "ed_gap": ed_gap,
    "verify_small": verify_small,
    "ed_verify": ed_verify,
}
