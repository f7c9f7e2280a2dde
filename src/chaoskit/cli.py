"""Command-line driver.

Subcommands: moment, fourth-check, index-sets, converge, simulate, verify.
Single reports print as JSON, tables as CSV (``--json`` forces JSON).
Every output embeds a run manifest; with a fixed manifest the payload rows
are reproducible (bit-for-bit in exact mode), only the timestamp differs.

Exit codes: 0 ok, 2 invalid input, 3 size budget exceeded, 4 mathematical
precondition violated, 5 verification failure.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import io
import json
import math
import platform
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from . import combinatorics as comb
from .config import set_entry_budget, set_thread_count
from .errors import (
    BudgetExceededError,
    ChaosKitError,
    InvalidInputError,
    PreconditionError,
)
from .kernels import (
    GridKernel,
    _frac_str,
    _too_many_digits,
    as_float,
    as_scalar,
    family_kernel,
    kernel_from_json,
    normalize_variance,
    symmetrize,
)
from .moments import (
    classical_fourth_identity,
    compute_moment,
    contraction_profile,
    convergence_report,
    fourth_moment_limit,
    free_fourth_identity,
    is_normalized,
    symmetrized_square_identity,
)
from .simulate import RNG_ALGORITHM, SampleConfig, mc_classical_moment, mc_free_moment
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_VERIFY = 5

def _manifest(command: str, args: argparse.Namespace, *, kernel_source=None,
              model=None, mode=None, seed=None, schema=None,
              rng: Optional[str] = None) -> dict:
    shown = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "command", "mode_fallback") and v is not None
    }
    return {
        "command": command,
        "args": shown,
        "kernel_source": kernel_source,
        "model": model,
        "mode": mode,
        "seed": seed,
        "schema": schema,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "rng_algorithm": rng,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _not_nan(value: float) -> float:
    """A float for a document; +-inf stands for a result past binary64, but
    nan has no meaning there (nor any JSON form)."""
    if math.isnan(value):
        raise BudgetExceededError(0, 0, 0, "a float result passes the binary64 range "
                                  "(nan); use exact mode")
    return value


def _jsonable(value):
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return _not_nan(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _cell(value) -> str:
    """CSV cell text: exact values as num/den, floats via repr."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, float):
        return repr(_not_nan(value))
    if isinstance(value, (tuple, list)):
        return "|".join(_cell(v) for v in value)
    try:
        return str(value)
    except ValueError as exc:  # only an int past Python's digit cap
        raise _too_many_digits("integer value") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(manifest: dict, report: dict, out: Optional[str]) -> None:
    obj = {"manifest": manifest, "report": _jsonable(report)}
    try:
        text = json.dumps(obj, indent=2)
    except ValueError as exc:  # only an int past Python's digit cap
        raise _too_many_digits("integer value") from exc
    _write(text + "\n", out)


def _emit_table(manifest: dict, header: list[str], rows: list[list],
                args: argparse.Namespace) -> None:
    if args.json:
        report = {"rows": [dict(zip(header, row)) for row in rows]}
        _emit_json(manifest, report, args.out)
        return
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest) + "\n")
    if manifest["schema"]:
        buf.write(f"# schema: {manifest['schema']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _write(buf.getvalue(), args.out)


# --- kernel resolution -------------------------------------------------------


def _load_kernel(args: argparse.Namespace) -> tuple[GridKernel, str, str]:
    """Resolve (kernel, model, source description) from a file or family.

    --mode left unset follows the kernel file's mode (or the command's
    default for family kernels)."""
    mode = args.mode
    if args.kernel:
        try:
            with open(args.kernel, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read kernel file: {exc}") from exc
        kern, file_model = kernel_from_json(text)
        requested = mode or kern.mode
        if kern.mode != requested:
            if requested == "float":
                kern = as_float(kern)
            else:
                raise InvalidInputError(
                    "kernel file is float-mode but an exact computation was "
                    "requested; re-export the kernel or pass --mode float"
                )
        if mode is None:
            args.mode = kern.mode
        model = args.model or file_model
        if model is None:
            raise InvalidInputError(
                "no model: pass --model or store one in the kernel file"
            )
        return kern, model, args.kernel
    if args.family:
        if args.model is None:
            raise InvalidInputError("--family requires --model")
        requested = mode or args.mode_fallback
        if mode is None:
            args.mode = requested
        kern = family_kernel(
            args.family, n=args.n, p=args.p,
            model=args.model, mode=requested,
        )
        label = f"{args.family}(n={args.n})" if args.n else f"{args.family}(p={args.p})"
        return kern, args.model, label
    raise InvalidInputError("provide a kernel file or --family")


# --- subcommands -------------------------------------------------------------


def cmd_moment(args: argparse.Namespace) -> int:
    kern, model, source = _load_kernel(args)
    if args.k < 1:
        raise InvalidInputError("--k must be >= 1")
    value = compute_moment(kern, args.k, model, args.path)
    target = None
    if is_normalized(kern, model):
        target = (
            comb.gaussian_moment(args.k)
            if model == "classical"
            else comb.semicircle_moment(args.k)
        )
    payload = {
        "k": args.k,
        "model": model,
        "path": args.path,
        "value": value,
        "value_float": as_scalar(value, "float"),
        "target": target,
    }
    manifest = _manifest("moment", args, kernel_source=source, model=model,
                         mode=args.mode)
    _emit_json(manifest, payload, args.out)
    return EXIT_OK


def cmd_fourth_check(args: argparse.Namespace) -> int:
    kern, model, source = _load_kernel(args)
    if args.normalize:
        kern = normalize_variance(kern, model)
    # each precondition and each self-contraction once: the identities
    # reuse the profile, and the normalization check covers them
    if model == "classical":
        kern = symmetrize(kern)
    moment = compute_moment(kern, 4, model)  # free: checks f = f*
    limit = fourth_moment_limit(kern, model)
    prof = contraction_profile(kern, model)
    if model == "classical":
        identity = classical_fourth_identity(kern, prof)
        lhs, rhs = symmetrized_square_identity(kern, prof)
        extra = {"square_identity_lhs": lhs, "square_identity_rhs": rhs}
    else:
        identity = free_fourth_identity(kern, prof)
        extra = {}
    payload = {
        "model": model,
        "moment": moment,
        "identity": identity,
        "residue": moment - identity,
        "gap": moment - limit,
        "profile_sq": list(prof.raw_sq),
        "profile_sym_sq": list(prof.sym_sq) if prof.sym_sq is not None else None,
        **extra,
    }
    manifest = _manifest("fourth-check", args, kernel_source=source, model=model,
                         mode=args.mode)
    _emit_json(manifest, payload, args.out)
    return EXIT_OK


def cmd_index_sets(args: argparse.Namespace) -> int:
    header = ["p", "k", "class", "r", "classical_coeff", "limit_weight",
              "limit_value", "dyck"]
    rows = []
    for r, coeff in comb.rank_tree(args.p, args.k, args.cls):
        t = comb.ContractionTuple(args.p, args.k, r, args.cls)
        if t.cls == "C":
            lw, lv, dy = comb.limit_weight(t), comb.limit_value(t), comb.dyck_check(t)
        else:
            lw = lv = dy = None
        rows.append([t.p, t.k, t.cls, list(t.r), coeff, lw, lv, dy])
    manifest = _manifest("index-sets", args, schema="chaoskit.index_sets.v1")
    _emit_table(manifest, header, rows, args)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x]
    except ValueError as exc:
        raise InvalidInputError(f"bad --n list: {exc}") from exc
    if not n_list:
        raise InvalidInputError("--n must list at least one size")
    rows_data = convergence_report(args.family, n_list, args.kmax, args.model,
                                   mode=args.mode)
    header = ["family", "model", "n", "k", "moment", "target", "gap",
              "ck_sum", "ek_sum", "profile_sq", "profile_sym_sq"]
    rows = [[row[h] for h in header] for row in rows_data]
    manifest = _manifest("converge", args, model=args.model, mode=args.mode,
                         schema="chaoskit.converge.v1")
    _emit_table(manifest, header, rows, args)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    kern, model, source = _load_kernel(args)
    if args.normalize:
        kern = normalize_variance(kern, model)
    cfg = SampleConfig(seed=args.seed, n_samples=args.samples,
                       matrix_dim=args.dim)
    if model == "classical":
        rep = mc_classical_moment(symmetrize(kern), args.k, cfg)
    else:
        rep = mc_free_moment(kern, args.k, cfg)
    z = None
    if rep.target is not None and rep.stderr:
        z = (float(rep.value) - float(rep.target)) / rep.stderr
    payload = {
        "k": rep.k,
        "model": model,
        "path": rep.path,
        "estimate": rep.value,
        "stderr": rep.stderr,
        "target": rep.target,
        "z_score": z,
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "matrix_dim": cfg.matrix_dim,
    }
    manifest = _manifest("simulate", args, kernel_source=source, model=model,
                         mode=args.mode, seed=args.seed, rng=RNG_ALGORITHM)
    _emit_json(manifest, payload, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all()
    passed = all(r["passed"] for r in results)
    if args.json:
        _emit_json(_manifest("verify", args),
                   {"checks": results, "passed": passed}, args.out)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            detail = f": {r['detail']}" if r["detail"] else ""
            lines.append(f"{mark} {r['name']}{detail}")
        ok = sum(r["passed"] for r in results)
        lines.append(f"{ok}/{len(results)} invariants passed")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VERIFY


# --- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, kernel: bool = False,
                table: bool = False) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help="dense-tensor entry cap (default 10^7)")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker cap (default: CHAOSKIT_THREADS or 1)")
    sub.add_argument("--out", default=None, help="write output to a file")
    if table:
        sub.add_argument("--json", action="store_true",
                         help="emit JSON instead of CSV")
    if kernel:
        sub.add_argument("kernel", nargs="?", default=None,
                         help="kernel JSON file")
        sub.add_argument("--family", choices=("pair_clt", "constant_hermite"),
                         help="use a named kernel family instead of a file")
        sub.add_argument("--n", type=int, default=None, help="family size index")
        sub.add_argument("--p", type=int, default=None, help="family order")
        sub.add_argument("--model", choices=("classical", "free"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="Exact and Monte Carlo moments of multiple Wiener-Ito "
                    "and Wigner integrals of grid step kernels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_moment = subs.add_parser("moment", help="k-th moment of one kernel")
    _add_common(p_moment, kernel=True)
    p_moment.add_argument("--k", type=int, required=True)
    p_moment.add_argument("--path", choices=("formula", "expansion", "oracle"),
                          default="formula")
    p_moment.add_argument("--mode", choices=("exact", "float"), default=None)
    p_moment.set_defaults(func=cmd_moment, mode_fallback="exact")

    p_fourth = subs.add_parser("fourth-check",
                               help="fourth moment, identity value, profile, gap")
    _add_common(p_fourth, kernel=True)
    p_fourth.add_argument("--mode", choices=("exact", "float"), default=None)
    p_fourth.add_argument("--normalize", action="store_true",
                          help="variance-normalize before checking")
    p_fourth.set_defaults(func=cmd_fourth_check, mode_fallback="exact")

    p_index = subs.add_parser("index-sets", help="enumerate A/B/C/E rank tuples")
    _add_common(p_index, table=True)
    p_index.add_argument("--p", type=int, required=True)
    p_index.add_argument("--k", type=int, required=True)
    p_index.add_argument("--class", dest="cls", choices=("A", "B", "C", "E"),
                         required=True)
    p_index.set_defaults(func=cmd_index_sets)

    p_conv = subs.add_parser("converge",
                             help="moment convergence table over a family grid")
    _add_common(p_conv, table=True)
    p_conv.add_argument("--family", choices=("pair_clt",), default="pair_clt")
    p_conv.add_argument("--n", dest="n_list", required=True,
                        help="comma-separated family sizes, e.g. 1,2,4,8")
    p_conv.add_argument("--model", choices=("classical", "free"), required=True)
    p_conv.add_argument("--kmax", type=int, default=6)
    p_conv.add_argument("--mode", choices=("exact", "float"), default="float")
    p_conv.set_defaults(func=cmd_converge)

    p_sim = subs.add_parser("simulate", help="Monte Carlo moment estimate")
    _add_common(p_sim, kernel=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--dim", type=int, default=None,
                       help="GUE matrix dimension (free model)")
    p_sim.add_argument("--normalize", action="store_true")
    p_sim.add_argument("--mode", choices=("exact", "float"), default=None)
    p_sim.set_defaults(func=cmd_simulate, mode_fallback="float")

    p_ver = subs.add_parser("verify", help="run the invariant suite")
    _add_common(p_ver, table=False)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Apply --budget and --threads, then run the command; `main` calls this
    in a copied context, so both settings end with the command."""
    if args.budget is not None:
        set_entry_budget(args.budget)
    if args.threads is not None:
        if args.threads < 1:
            raise InvalidInputError(f"--threads must be >= 1, got {args.threads}")
        set_thread_count(args.threads)
    return args.func(args)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return contextvars.copy_context().run(_run, args)
    except BudgetExceededError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error (precondition): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvalidInputError, OSError) as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChaosKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
