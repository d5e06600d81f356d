"""Command-line front end: audits, PSD checks, sampling, free-energy runs.

Every experiment is reproducible: the master seed plus the config echoed in
the output header determine every output byte, independent of --threads.
Exit status: 0 when all verdicts pass, 1 when a genuine violation was
detected (a successful detection, not a failure), 2 on usage or validation
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .audit import check_condition, validate_psd
from .disorder import DisorderDraw, SeedPolicy, make_sampler, write_draws
from .errors import GaussemError, ValidationError
from .grem import GremTree, TreeLift, check_lift_covariance, parse_tree_file, validate_tree
from .interpolation import monotonicity_scan
from .models import (
    CovarianceModel,
    CustomModel,
    GREMModel,
    MixedModel,
    PSpinModel,
    REMModel,
    SKModel,
)
from .spins import CoordinatePartition
from .thermo import jensen_bound, quenched_alpha, superadditivity_report
from .util import format_float

SEED_ENV = "GAUSSEM_SEED"

_SIZED_KINDS = {
    "sk": SKModel,
    "rem": REMModel,
}


def parse_model(spec: str, n: int | None = None, base: str | Path = ".") -> CovarianceModel:
    """Build a model from its CLI grammar: sk | pspin:p | mixed:p=w,... | rem
    | grem:treefile | custom:matrixfile."""
    head, sep, arg = spec.partition(":")
    head = head.strip()
    if head in _SIZED_KINDS:
        if sep:
            raise ValidationError(f"model {head!r} takes no argument (got {arg!r})")
        _need_n(head, n)
        return _SIZED_KINDS[head](n)
    if head == "pspin":
        _need_n(head, n)
        try:
            p = int(arg)
        except ValueError:
            raise ValidationError(f"pspin needs an integer order, got {arg!r}") from None
        return PSpinModel(n, p)
    if head == "mixed":
        _need_n(head, n)
        return MixedModel(n, _parse_mixed_weights(arg))
    if head == "grem":
        tree = _load_tree(Path(base) / arg if arg else None, spec)
        if n is not None and n != tree.n_spins:
            raise ValidationError(
                f"--n {n} conflicts with the tree's size {tree.n_spins}"
            )
        return GREMModel(tree)
    if head == "custom":
        if not arg:
            raise ValidationError("custom needs a matrix file: custom:<path>")
        matrix = _load_matrix(Path(base) / arg)
        model = CustomModel(matrix, name=arg)
        if n is not None and n != model.n:
            raise ValidationError(f"--n {n} conflicts with the matrix size {model.n}")
        return model
    raise ValidationError(
        f"unknown model {head!r} (at position 0 of {spec!r}); "
        "expected sk, pspin:p, mixed:p=w,..., rem, grem:file, custom:file"
    )


def _need_n(kind: str, n: int | None) -> None:
    if n is None:
        raise ValidationError(f"model {kind!r} needs an explicit --n")


def _parse_mixed_weights(arg: str) -> dict[int, Fraction]:
    weights: dict[int, Fraction] = {}
    if not arg:
        raise ValidationError("mixed needs weight entries: mixed:p=w[,p=w...]")
    pos = len("mixed:")
    for i, tok in enumerate(arg.split(",")):
        lhs, sep, rhs = tok.partition("=")
        if not sep:
            raise ValidationError(
                f"mixed entry {i + 1} at position {pos} must look like p=w, got {tok!r}"
            )
        try:
            p = int(lhs)
        except ValueError:
            raise ValidationError(
                f"mixed entry {i + 1} at position {pos}: order {lhs!r} is not an integer"
            ) from None
        try:
            w = Fraction(rhs)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"mixed entry {i + 1} at position {pos}: weight {rhs!r} is not a number"
            ) from None
        if p in weights:
            raise ValidationError(f"mixed entry {i + 1}: duplicate order p={p}")
        weights[p] = w
        pos += len(tok) + 1
    return weights


def _load_tree(path: Path | None, spec: str) -> GremTree:
    if path is None:
        raise ValidationError(f"grem needs a tree file: grem:<path> (got {spec!r})")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read tree file {path}: {exc}") from exc
    return parse_tree_file(text)


def _load_matrix(path: Path) -> np.ndarray:
    try:
        lines = [
            ln for ln in (s.strip() for s in path.read_text().splitlines())
            if ln and not ln.startswith("#")
        ]
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    if not lines:
        raise ValidationError(f"matrix file {path} is empty")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValidationError(
            f"matrix file {path}: first line must be the dimension, got {lines[0]!r}"
        ) from None
    if len(lines) - 1 != dim:
        raise ValidationError(f"matrix file {path}: expected {dim} rows, got {len(lines) - 1}")
    try:
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ValidationError(f"matrix file {path}: malformed number: {exc}") from exc
    if any(len(r) != dim for r in rows):
        raise ValidationError(f"matrix file {path}: every row must have {dim} entries")
    return np.array(rows)


# -- output ------------------------------------------------------------------


def _cell(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return format_float(x)
    if isinstance(x, Fraction):
        return format_float(float(x))
    return str(x)


def _config_dict(args: argparse.Namespace) -> dict:
    # out and threads are execution details: they must not change result bytes
    skip = {"func", "out", "threads"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = val if isinstance(val, (int, float, str, bool, type(None))) else str(val)
    return out


def _emit(args: argparse.Namespace, columns: list[str], rows: list[tuple]) -> None:
    config = _config_dict(args)
    if args.format == "json":
        doc = {
            "tool": "gaussem",
            "version": __version__,
            "config": config,
            "columns": columns,
            "rows": [[_cell(x) for x in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# gaussem {__version__}\n")
        buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
        text = buf.getvalue()
    _write_text(args.out, text)


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _partition_from(args: argparse.Namespace, n: int) -> CoordinatePartition:
    if args.mask is not None and args.n1 is not None:
        raise ValidationError("give --n1 or --mask, not both")
    if args.mask is not None:
        return CoordinatePartition(n, args.mask)
    if args.n1 is not None:
        return CoordinatePartition.canonical(n, args.n1)
    raise ValidationError("give a partition: --n1 K (canonical prefix) or --mask M")


def _betas(arg: str) -> list[float]:
    try:
        betas = [float(tok) for tok in arg.split(",") if tok != ""]
    except ValueError:
        raise ValidationError(f"bad --beta list {arg!r}") from None
    if not betas or not all(math.isfinite(b) for b in betas):
        raise ValidationError(f"--beta needs one or more finite values, got {arg!r}")
    return betas


def _tgrid(arg: str) -> np.ndarray:
    parts = arg.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--tgrid must be start:stop:count, got {arg!r}")
    try:
        a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"--tgrid must be start:stop:count, got {arg!r}") from None
    if k < 1:
        raise ValidationError("--tgrid count must be >= 1")
    return np.linspace(a, b, k)


# -- subcommands ---------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    result = check_condition(model, mode=args.mode, tolerance=args.tolerance)
    columns = ["n", "partition_mask", "n1", "max_gap", "witness_sigma", "witness_tau", "verdict"]
    rows = [
        (r.n, r.mask, r.n1, r.max_gap, str(r.witness_sigma), str(r.witness_tau), r.verdict)
        for r in result.reports
    ]
    _emit(args, columns, rows)
    return 0 if result.holds else 1


def _cmd_psd(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    report = validate_psd(model.covariance_matrix(), tol=args.tol)
    _emit(args, ["n", "dim", "rank", "min_eigenvalue_estimate", "psd"],
          [(model.n, report.dim, report.rank, report.min_eigenvalue_estimate, report.psd)])
    return 0 if report.psd else 1


def _cmd_alpha(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    seeds = SeedPolicy(args.seed)
    rows = []
    ok = True
    for beta in _betas(args.beta):
        est = quenched_alpha(model, beta, args.samples, seeds, threads=args.threads)
        bound = jensen_bound(beta)
        margin = bound - est.value
        bounded = est.value <= bound + 3.0 * est.std_error
        ok = ok and bounded
        rows.append((model.spec_string(), model.n, beta, est.samples, est.value,
                     est.std_error, bound, margin, "BOUNDED" if bounded else "EXCEEDS"))
    _emit(args, ["model", "n", "beta", "samples", "value", "std_error", "bound",
                 "margin", "verdict"], rows)
    return 0 if ok else 1


def _cmd_superadd(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    partition = _partition_from(args, model.n)
    seeds = SeedPolicy(args.seed)
    rows = []
    ok = True
    for beta in _betas(args.beta):
        rep = superadditivity_report(model, partition, beta, args.samples, seeds,
                                     threads=args.threads)
        ok = ok and rep.satisfied
        rows.append((model.spec_string(), model.n, beta, args.samples,
                     rep.alpha_full.value, rep.combined_se, jensen_bound(beta),
                     rep.margin, rep.verdict))
    _emit(args, ["model", "n", "beta", "samples", "value", "std_error", "bound",
                 "margin", "verdict"], rows)
    return 0 if ok else 1


def _cmd_interp(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    partition = _partition_from(args, model.n)
    seeds = SeedPolicy(args.seed)
    betas = _betas(args.beta)
    if len(betas) != 1:
        raise ValidationError("interp takes a single --beta")
    scan = monotonicity_scan(model, partition, betas[0], _tgrid(args.tgrid),
                             args.samples, seeds, threads=args.threads)
    rows = [(p.t, p.estimate.value, p.estimate.std_error, p.verdict) for p in scan.points]
    _emit(args, ["t", "value", "std_error", "verdict"], rows)
    return 0 if scan.all_nonnegative else 1


def _default_split(tree: GremTree) -> tuple[int, ...]:
    split = [k // 2 for k in tree.exponents]
    if sum(split) == 0:
        for i, k in enumerate(tree.exponents):
            if k > 0:
                split[i] = 1
                break
    return tuple(split)


def _cmd_grem_verify(args: argparse.Namespace) -> int:
    tree = _load_tree(Path(args.tree), f"grem:{args.tree}")
    rows = []
    ok = True

    validate_tree(tree.exponents, tree.variances, tree.n_spins)
    rows.append(("validate_tree", tree.spec_string(), 0.0, "OK"))

    psd = validate_psd(GREMModel(tree).covariance_matrix())
    ok = ok and psd.psd
    rows.append(("psd", f"rank={psd.rank}/{psd.dim}", psd.min_eigenvalue_estimate,
                 "OK" if psd.psd else "FAILED"))

    if args.split is not None:
        split = tuple(int(tok) for tok in args.split.split(","))
    else:
        split = _default_split(tree)
    if len(split) != tree.n_layers or any(s < 0 or s > k for s, k in zip(split, tree.exponents)):
        raise ValidationError(
            f"--split must give per-layer block-1 exponents <= {tree.exponents}, got {split}"
        )
    n1 = sum(split)
    if not 1 <= n1 <= tree.n_spins - 1:
        raise ValidationError(f"--split must leave both blocks nonempty, got n1={n1}")
    split2 = tuple(k - s for k, s in zip(tree.exponents, split))
    for name, source_exponents in (("lift_c1", split), ("lift_c2", split2)):
        lift = TreeLift(GremTree(source_exponents, tree.variances), tree.exponents)
        rep = check_lift_covariance(lift)
        ok = ok and rep.ok
        rows.append((name, f"{source_exponents}->{tree.exponents}", rep.max_violation,
                     "OK" if rep.ok else "FAILED"))

    audit = check_condition(GREMModel(tree), mode=args.mode)
    ok = ok and audit.holds
    rows.append(("condition_audit", f"mode={args.mode}", audit.worst().max_gap, audit.verdict))

    _emit(args, ["check", "detail", "value", "status"], rows)
    return 0 if ok else 1


def _cmd_sample_dump(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.n)
    seeds = SeedPolicy(args.seed)
    sampler = make_sampler(model)
    label = f"{model.spec_string()}/dump"
    draws = [
        DisorderDraw(model.n, sampler.sample(rng), (label, args.seed, i))
        for i, rng in enumerate(seeds.streams("dump", range(args.samples)))
    ]
    if args.out == "-":
        write_draws(sys.stdout, draws)
    else:
        with open(args.out, "w") as fh:
            write_draws(fh, draws)
    return 0


# -- parser --------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sp: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        sp.add_argument("--model", required=True, help="model spec, e.g. sk, pspin:3, rem")
        sp.add_argument("--n", type=int, default=None, help="system size")
    sp.add_argument("--seed", type=int, default=int(os.environ.get(SEED_ENV, "0")),
                    help=f"master seed (default: ${SEED_ENV} or 0)")
    sp.add_argument("--threads", type=_positive_int, default=1,
                    help="parallel draw evaluation (at most one worker per CPU)")
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gaussem", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"gaussem {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="exhaustive covariance condition audit")
    _add_common(sp)
    sp.add_argument("--mode", choices=("canonical", "all"), default="canonical")
    sp.add_argument("--tolerance", type=float, default=None)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("psd", help="positive semidefiniteness of the covariance matrix")
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_psd)

    sp = sub.add_parser("alpha", help="quenched per-spin log partition estimate")
    _add_common(sp)
    sp.add_argument("--beta", required=True, help="inverse temperature(s), comma separated")
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(func=_cmd_alpha)

    sp = sub.add_parser("superadd", help="size-additivity margin across a coordinate split")
    _add_common(sp)
    sp.add_argument("--n1", type=int, default=None, help="canonical prefix block size")
    sp.add_argument("--mask", type=int, default=None, help="explicit block-1 bit mask")
    sp.add_argument("--beta", required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(func=_cmd_superadd)

    sp = sub.add_parser("interp", help="derivative scan of the interpolated free energy")
    _add_common(sp)
    sp.add_argument("--n1", type=int, default=None)
    sp.add_argument("--mask", type=int, default=None)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--tgrid", default="0.1:0.9:9", help="start:stop:count")
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(func=_cmd_interp)

    sp = sub.add_parser("grem-verify", help="tree validation, PSD, lifting and condition audit")
    _add_common(sp, model=False)
    sp.add_argument("--tree", required=True, help="tree file path")
    sp.add_argument("--split", default=None, help="per-layer block-1 exponents, comma separated")
    sp.add_argument("--mode", choices=("canonical", "all"), default="canonical")
    sp.set_defaults(func=_cmd_grem_verify)

    sp = sub.add_parser("sample-dump", help="write raw draws, one line per draw")
    _add_common(sp)
    sp.add_argument("--samples", type=_positive_int, default=10)
    sp.set_defaults(func=_cmd_sample_dump)

    return ap


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        status = args.func(args)
    except GaussemError as exc:
        print(f"gaussem: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gaussem: error: {exc}", file=sys.stderr)
        return 2
    # wall clock goes to stderr so output artifacts stay byte-identical across reruns
    print(f"gaussem: {args.command} finished in {time.monotonic() - started:.3f}s",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
