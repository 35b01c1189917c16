"""Command-line front end: family tables, single polynomials and identity
verification.

All numeric output is exact fraction text; there is no decimal rendering
anywhere.  Exit codes: 0 success, 1 verification failure, 2 usage or
parameter error, 3 unwritable report or output path, 4 internal error.
Every integer parameter (r, k, s, m) must lie in -LIMIT..LIMIT, every
degree (n, n-max) in 0..LIMIT, and every lambda must be p/q in lowest
terms with |p| and q at most LIMIT; a value outside is a parameter error,
reported before any work starts.  No option may be abbreviated.

Only `algebra`, `series` and `families` load with this module; the
`identities` harness, `argparse`, `json` and `csv` load where used.
"""

from __future__ import annotations

import gc
import sys
from fractions import Fraction

from .algebra import Polynomial
from . import families as fam

# family -> (function in `families`, looked up when called; the flags it
# takes after n, in call order; what a row holds: one "number", a Stirling
# "triangle" row or a "poly"nomial's coefficients in ascending powers)
TABLE_FAMILIES = {
    "cauchy": ("cauchy_number", (), "number"),
    "higher-cauchy": ("higher_cauchy", ("r",), "number"),
    "poly-cauchy": ("poly_cauchy", ("k",), "poly"),
    "mixed": ("mixed_A", ("r", "k"), "poly"),
    "stirling1": ("stirling1", (), "triangle"),
    "stirling2": ("stirling2", (), "triangle"),
    "bernoulli": ("bernoulli_poly", ("s",), "poly"),
    "frobenius-euler": ("frobenius_euler", ("s", "lam"), "poly"),
    "narumi": ("narumi", ("r",), "poly"),
    "bernoulli2": ("bernoulli2", (), "poly"),
}
# the order flags are checked in, so that the first one missing, or given to a
# family that takes no such flag (a table would record it), is reported
_FLAG_ORDER = ("lam", "r", "k", "s")

# identities.IDENTITY_IDS, spelled out so the parser needs no harness (tested)
IDENTITY_IDS = (
    "THM1", "THM2", "EQ32", "EQ34", "EQ35", "EQ36", "THM3", "THM4", "THM4_VARIANT",
    "THM5", "THM5_VARIANT", "EQ52", "THM6", "THM7", "THM8", "NARUMI_BERNOULLI",
    "SHEFFER_PAIR_EQ17", "ASSOC_EQ25",
)

# identity selector aliases accepted on the command line
_ID_ALIASES = {
    "eq17": "SHEFFER_PAIR_EQ17",
    "sheffer-pair": "SHEFFER_PAIR_EQ17",
    "eq25": "ASSOC_EQ25",
    "assoc": "ASSOC_EQ25",
    "narumi-bernoulli": "NARUMI_BERNOULLI",
}


# the bound on |r|, |k|, |s|, |m|, n and n-max, and on the numerator and
# denominator of each lambda, far above the default grids (n <= 10,
# |r|, |k| <= 3, lambda in 2, -1, 1/2): it keeps a mistyped value from
# running without end, and every range a short tuple
LIMIT = 1000

# integer flags -> the attribute argparse stores them under
_INT_FLAGS = {"--n": "n", "--n-max": "n_max", "--r": "r", "--k": "k", "--s": "s"}


class UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple:
    """Inclusive 'a..b' range or a single integer, within -LIMIT..LIMIT."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad range {text!r}: expected INT or INT..INT") from None
    if hi < lo:
        raise UsageError(f"range {text!r} is empty: a..b needs a <= b")
    if max(-lo, hi) > LIMIT:
        raise UsageError(f"bad range {text!r}: values must lie in -{LIMIT}..{LIMIT}")
    return tuple(range(lo, hi + 1))


def _check_limits(args) -> None:
    """Raise UsageError for an integer flag outside -LIMIT..LIMIT, or a
    negative degree (--n, --n-max)."""
    for flag, name in _INT_FLAGS.items():
        v = getattr(args, name, None)
        if v is not None and abs(v) > LIMIT:
            raise UsageError(f"{flag} must lie in -{LIMIT}..{LIMIT}, got {v}")
        if v is not None and v < 0 and flag.startswith("--n"):
            raise UsageError(f"{flag} must be >= 0")


def _parse_lambdas(text: str) -> tuple:
    """Comma-separated exact fractions, each p/q with |p|, q <= LIMIT."""
    lams = []
    for part in text.split(","):
        # Fraction builds 10**e for an exponent e first; past the part's
        # length plus 3, e cannot leave p/q within the bound
        e = part.lower().partition("e")[2]
        try:
            lam = None if e and abs(int(e)) > len(part) + 3 else Fraction(part)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad lambda list {text!r}") from None
        if lam is None or max(abs(lam.numerator), lam.denominator) > LIMIT:
            raise UsageError(f"--lam values must be p/q with |p|, q <= {LIMIT}, got {part}")
        lams.append(lam)
    if len(set(lams)) < len(lams):
        raise UsageError(f"bad lambda list {text!r}: a value repeats")
    return tuple(lams)


def _row_function(family: str, args):
    """n -> row n of exact values of a family in TABLE_FAMILIES: one number,
    a Stirling triangle row or a polynomial's coefficients in ascending
    powers."""
    name, flags, kind = TABLE_FAMILIES[family]
    for flag in _FLAG_ORDER:
        v = getattr(args, flag)
        if (v is None) == (flag in flags):
            need = "requires" if v is None else "takes no"
            raise UsageError(f"family {family!r} {need} --{flag}")
        if flag == "lam" and v is not None and len(v) != 1:
            raise UsageError(f"{family} takes a single --lam value")
    params = [args.lam[0] if flag == "lam" else getattr(args, flag) for flag in flags]
    fn = getattr(fam, name)
    if kind == "number":
        return lambda n: [fn(n, *params)]
    if kind == "triangle":
        return lambda n: [fn(n, m) for m in range(n + 1)]
    return lambda n: list(fn(n, *params).coeffs) or [Fraction(0)]


def _emit_table(family: str, rows: list[list], fmt: str, params: dict, out) -> None:
    if fmt == "csv":
        import csv

        width = max(len(r) for r in rows)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n"] + [f"v{i}" for i in range(width)])
        for n, row in enumerate(rows):
            writer.writerow([n] + [str(v) for v in row] + [""] * (width - len(row)))
    elif fmt == "json":
        doc = {
            "family": family,
            "params": params,
            "rows": [
                {"n": n, "values": [str(v) for v in row]} for n, row in enumerate(rows)
            ],
        }
        import json

        json.dump(doc, out)
        out.write("\n")
    elif fmt == "latex":
        for n, row in enumerate(rows):
            cells = " & ".join([str(n)] + [str(v) for v in row])
            out.write(cells + r" \\" + "\n")


def _cmd_table(args) -> int:
    if args.family not in TABLE_FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; choose from {', '.join(TABLE_FAMILIES)}")
    row = _row_function(args.family, args)
    # the largest row first, so that each g series, Stirling triangle and
    # column set is built once, at n-max, instead of regrown by doubling
    last = row(args.n_max)
    rows = [row(n) for n in range(args.n_max)] + [last]
    params = {
        name: getattr(args, name)
        for name in ("r", "k", "s")
        if getattr(args, name) is not None
    }
    if args.lam is not None:
        params["lam"] = [str(v) for v in args.lam]
    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        print(f"cannot write output {args.output!r}: {exc}", file=sys.stderr)
        return 3
    try:
        _emit_table(args.family, rows, args.format, params, out)
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_poly(args) -> int:
    if args.family not in TABLE_FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    row = _row_function(args.family, args)(args.n)
    if TABLE_FAMILIES[args.family][2] != "poly":
        print(" ".join(str(v) for v in row))
    else:
        print(Polynomial(row))
    return 0


def _build_grid(identity: str, args):
    from . import identities as idn

    base = idn.default_grid(identity)
    values = {
        "n_values": tuple(range(args.n_max + 1)) if args.n_max is not None else base.n_values,
        "r_values": args.r_range or base.r_values,
        "k_values": args.k_range or base.k_values,
        "s_values": args.s_range or base.s_values,
        "m_values": args.m_range or base.m_values,
        "lambdas": args.lam or base.lambdas,
    }
    return idn.GridSpec(**values)


def _cmd_verify(args) -> int:
    from . import identities as idn

    selector = args.identity.lower()
    if selector == "all":
        names = [i for i in idn.IDENTITY_IDS]
    else:
        canonical = _ID_ALIASES.get(selector, selector.upper())
        if canonical not in idn.IDENTITY_IDS:
            raise UsageError(f"unknown identity {args.identity!r}")
        names = [canonical]
        if canonical in idn.VARIANTS:
            names.append(idn.VARIANTS[canonical])
    failed = []

    def document(name):
        doc = idn.verify(name, _build_grid(name, args), jobs=args.jobs).to_document()
        t = doc["totals"]
        print(f"{name}: pass={t['pass']} fail={t['fail']} skipped={t['skipped']}", file=sys.stderr)
        if t["fail"] and name not in idn.VARIANT_IDS:
            failed.append(name)
        return doc

    # lazy, so each identity's entries are rendered and dropped before the
    # next is verified; nothing is written until the last one is, so an
    # identity that raises leaves no partial report
    documents = map(document, names)
    if len(names) == 1:
        chunks = [idn.report_text(next(documents))]
    else:
        chunks = idn._report_chunks(documents)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"cannot write report {args.report!r}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.writelines(chunks)
    return 1 if failed else 0


def build_parser():
    import argparse

    # no option may be abbreviated: `--n` would otherwise be read as `--n-max`
    parser = argparse.ArgumentParser(
        prog="polycauchy",
        description="Exact tables and identity verification for mixed-type "
        "Cauchy / poly-Cauchy polynomial families.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--r", type=int, default=None, help="order r")
        p.add_argument("--k", type=int, default=None, help="polylog index k")
        p.add_argument("--s", type=int, default=None, help="order for Bernoulli / Frobenius-Euler")
        p.add_argument("--lam", type=_parse_lambdas, default=None,
                       help="lambda value(s), exact fractions, comma separated")

    p_table = sub.add_parser(
        "table", allow_abbrev=False,
        help="tabulate a family",
        description="Emit rows n = 0..n-max of a family. CSV columns: n, then "
        "v0..vK holding exact fraction strings (coefficients in ascending "
        "powers for polynomial families, triangle entries for Stirling "
        "families, a single value for number families); short rows are "
        "padded with empty cells.",
    )
    p_table.add_argument("--family", required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    p_table.add_argument("--output", default=None)
    add_params(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_poly = sub.add_parser("poly", allow_abbrev=False, help="print one family member exactly")
    p_poly.add_argument("--family", required=True)
    p_poly.add_argument("--n", type=int, required=True)
    add_params(p_poly)
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser(
        "verify", allow_abbrev=False,
        help="verify identities by exact polynomial equality",
        description="Identity ids: " + ", ".join(i.lower() for i in IDENTITY_IDS)
        + ", or 'all'. Ranges are inclusive a..b (single values allowed).",
    )
    p_verify.add_argument("identity")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--r", dest="r_range", type=_parse_range, default=None)
    p_verify.add_argument("--k", dest="k_range", type=_parse_range, default=None)
    p_verify.add_argument("--s", dest="s_range", type=_parse_range, default=None)
    p_verify.add_argument("--m", dest="m_range", type=_parse_range, default=None)
    p_verify.add_argument("--lam", type=_parse_lambdas, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--report", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_VALUE_FLAGS = {"--r", "--k", "--s", "--m", "--lam"}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join values like '-1..2' onto their flag so argparse does not read
    them as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    # a command makes no cyclic garbage of its own: pause the collector (README)
    enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser().parse_args(_normalize_argv(list(argv)))
        _check_limits(args)
        return args.func(args)
    except SystemExit as exc:
        # argparse already uses 2 for usage errors and 0 for --help
        return exc.code if isinstance(exc.code, int) else 2
    except (UsageError, ValueError) as exc:
        # UsageError also comes out of parse_args, from a malformed range or
        # lambda list; ValueError (SeriesError included) is a parameter
        # outside a family's or grid's domain, or --jobs below 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a defect in the engine, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
