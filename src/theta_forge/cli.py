"""Command-line front end.

Subcommands expand series (theta, the completed combination, Eisenstein),
verify the root identity exactly, and run numeric law campaigns over the
built-in lattice catalog or Gram matrices loaded from JSON files.  Exit
codes: 0 success / all checks pass, 1 at least one check failed, 2 usage
or configuration error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .arith import GaussianRational
from .jacobi_like import completed_theta, verify_root_identity
from .lattice import (
    CATALOG,
    EnumerationBudgetError,
    InsertionVector,
    InvalidFormError,
    QuadraticForm,
    catalog_form,
    load_form,
    unit_insertion_vector,
)
from .modforms import ThetaSpec, eisenstein_e2, eisenstein_e2k, theta_expand
from .verify import LAW_IDS, run_campaign


class UsageError(Exception):
    pass


def _resolve_form(name: str) -> QuadraticForm:
    if name in CATALOG:
        return catalog_form(name)
    cat_dir = os.environ.get("THETA_FORGE_CATALOG")
    candidates = []
    if cat_dir:
        candidates.append(os.path.join(cat_dir, name + ".json"))
        candidates.append(os.path.join(cat_dir, name))
    candidates.append(name)
    for path in candidates:
        if os.path.isfile(path):
            try:
                return load_form(path)
            except (InvalidFormError, KeyError, ValueError, json.JSONDecodeError) as exc:
                raise UsageError(f"bad lattice file {path}: {exc}") from exc
    raise UsageError(
        f"unknown lattice {name!r}; built-in: {', '.join(sorted(CATALOG))}"
    )


def _parse_gaussian(text: str) -> GaussianRational:
    t = text.strip().replace(" ", "")
    if not t:
        raise UsageError("empty vector component")
    try:
        if not t.endswith("i"):
            return GaussianRational(Fraction(t))
        body = t[:-1]
        cut = None
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "+-/":
                cut = idx
                break
        if cut is None:
            imtxt = body if body not in ("", "+", "-") else body + "1"
            return GaussianRational(0, Fraction(imtxt))
        imtxt = body[cut:]
        if imtxt in ("+", "-"):
            imtxt += "1"
        return GaussianRational(Fraction(body[:cut]), Fraction(imtxt))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad Gaussian rational {text!r}") from exc


def _parse_v(spec: str, form: QuadraticForm) -> InsertionVector:
    """`"1,0 / s=1/2"` gives w = (1, 0) and s = 1/2; s defaults to 1."""
    parts = re.split(r"/\s*s\s*=", spec, maxsplit=1)
    wtxt = parts[0].strip()
    s = Fraction(1)
    if len(parts) == 2:
        try:
            s = Fraction(parts[1].strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad scale in --v: {parts[1].strip()!r}") from exc
        if s <= 0:
            raise UsageError("--v scale s must be positive")
    w = tuple(_parse_gaussian(c) for c in wtxt.split(","))
    if len(w) != form.rank:
        raise UsageError(
            f"--v has {len(w)} components; the lattice has rank {form.rank}"
        )
    return InsertionVector(w, s)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _series_text(series) -> str:
    if series.exp_denom == 1 and all(
        c.is_real and c.re.denominator == 1 for _, c in sorted(series.coeffs.items())
    ):
        vals = [series.coefficient(Fraction(n)) for n in range(series.prec)]
        return "[" + ", ".join(str(v.re) for v in vals) + "]"
    lines = []
    for e in sorted(series.coeffs):
        q = Fraction(e, series.exp_denom)
        lines.append(f"q^{q}: {series.coeffs[e]!r}")
    return "\n".join(lines) if lines else "0"


def _print_series(series, fmt: str) -> None:
    print(_dump_json(series.to_json_dict()) if fmt == "json" else _series_text(series))


def _insertion_vector(args, form: QuadraticForm) -> InsertionVector:
    return _parse_v(args.v_spec, form) if args.v_spec else unit_insertion_vector(form)


def _cmd_expand_theta(args) -> int:
    form = _resolve_form(args.lattice)
    v = _insertion_vector(args, form) if args.k > 0 or args.v_spec else None
    _print_series(theta_expand(ThetaSpec(form, v, args.k), args.prec), args.fmt)
    return 0


def _cmd_expand_psi(args) -> int:
    form = _resolve_form(args.lattice)
    if args.k < 0 or args.k % 2:
        raise UsageError("the completed series needs an even k >= 0")
    _print_series(completed_theta(form, _insertion_vector(args, form), args.k, args.prec), args.fmt)
    return 0


def _cmd_expand_eisenstein(args) -> int:
    wt = args.weight
    if wt == 2:
        series = eisenstein_e2(args.prec)
    elif wt >= 4 and wt % 2 == 0:
        series = eisenstein_e2k(wt // 2, args.prec)
    else:
        raise UsageError("--weight must be 2 or an even integer >= 4")
    _print_series(series, args.fmt)
    return 0


def _cmd_verify_identity(args) -> int:
    form = _resolve_form(args.lattice)
    # prec is inclusive here: coefficients through q^prec are certified
    ok, residual = verify_root_identity(form, args.prec + 1)
    if args.fmt == "json":
        print(
            _dump_json(
                {
                    "identity": "root",
                    "lattice": args.lattice,
                    "prec": args.prec,
                    "residual_zero": ok,
                }
            )
        )
    else:
        if ok:
            print(f"root identity residual: 0 through q^{args.prec}")
        else:
            first = residual.order()
            print(f"root identity FAILED: first nonzero coefficient at q^{first}")
    return 0 if ok else 1


def _cmd_verify_laws(args) -> int:
    form = _resolve_form(args.lattice)
    laws = LAW_IDS if args.laws == "all" else [s.strip() for s in args.laws.split(",")]
    given = {name: getattr(args, name) for name in ("tol", "k", "x_prec") if hasattr(args, name)}
    if args.v_spec:
        given["v"] = _parse_v(args.v_spec, form)
    reports, notes = run_campaign(form, laws, args.count, args.seed, **given)
    for note in notes:
        print(note, file=sys.stderr)
    if args.fmt == "json":
        print(_dump_json({"reports": [r.to_json_dict() for r in reports]}))
    else:
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.law} residual={r.residual:.3e} tol={r.tol:.1e}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_catalog(args) -> int:
    rows = []
    for name in sorted(CATALOG):
        form = catalog_form(name)
        rows.append(
            {"name": name, "rank": form.rank, "det": form.det, "level": form.level}
        )
    cat_dir = os.environ.get("THETA_FORGE_CATALOG")
    if cat_dir and os.path.isdir(cat_dir):
        for fn in sorted(os.listdir(cat_dir)):
            if fn.endswith(".json"):
                rows.append({"name": fn[:-5], "source": cat_dir})
    if args.fmt == "json":
        print(_dump_json({"lattices": rows}))
    else:
        for row in rows:
            if "source" in row:
                print(f"{row['name']} (from {row['source']})")
            else:
                print(f"{row['name']} rank={row['rank']} det={row['det']} level={row['level']}")
    return 0


_COMMANDS = {
    "expand-theta": _cmd_expand_theta,
    "expand-psi": _cmd_expand_psi,
    "expand-eisenstein": _cmd_expand_eisenstein,
    "verify-identity": _cmd_verify_identity,
    "verify-laws": _cmd_verify_laws,
    "catalog": _cmd_catalog,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-forge",
        description="Exact and numeric workbench for theta series of even positive-definite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--lattice", default="A2", help="catalog name or Gram JSON path")
    lattice.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    series = argparse.ArgumentParser(add_help=False, parents=[lattice])
    series.add_argument("--prec", type=int, default=20)

    p = sub.add_parser("expand-theta", parents=[series], help="q-expansion of a theta series")
    p.add_argument("--k", type=int, default=0, help="insertion power")
    p.add_argument("--v", dest="v_spec", default=None, help='insertion vector, e.g. "1,0 / s=1/2"')

    p = sub.add_parser("expand-psi", parents=[series], help="q-expansion of the completed combination")
    p.add_argument("--k", type=int, default=4, help="even insertion index")
    p.add_argument("--v", dest="v_spec", default=None)

    p = sub.add_parser("expand-eisenstein", parents=[series], help="q-expansion of an Eisenstein series")
    p.add_argument("--weight", type=int, default=2)

    sub.add_parser("verify-identity", parents=[series], help="exact root-lattice identity check")

    p = sub.add_parser("verify-laws", parents=[lattice], help="numeric transformation-law campaign")
    p.add_argument("--laws", default="all", help=f"comma list from: {', '.join(LAW_IDS)}; or all")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    # no defaults here: an absent flag leaves run_campaign's default in force
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS, help="insertion index for the cusp law")
    p.add_argument("--x-prec", type=int, default=argparse.SUPPRESS, dest="x_prec")
    p.add_argument("--v", dest="v_spec", default=None)

    p = sub.add_parser("catalog", help="list available lattices")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "prec", 1) < 1:
        print("error: --prec must be at least 1", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidFormError as exc:
        print(f"error: invalid Gram matrix ({exc.code}): {exc}", file=sys.stderr)
        return 2
    except (EnumerationBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
