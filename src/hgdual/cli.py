"""Command line front end: construct operators and their duals, print the
pairing and duality matrices, and run the exact verification suites.

Exit codes: 0 pass, 1 identity mismatch, 2 parse error, 3 degenerate
parameters, 4 insufficient truncation order.
"""

import argparse
import json
import random
import re
import sys
from dataclasses import fields

from . import __version__
from . import hypergeometric as hg
from . import q_hypergeometric as qhg
from .exact_algebra import Q, Polynomial, rat
from .hypergeometric import DegenerateParameters
from .skew_operators import (
    DegenerateOperator,
    InsufficientPrecision,
    check_cells,
    inverse_series,
    matrix_det,
    matrix_invert,
    minimum_order,
)

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_PRECISION = 4

# The largest r, sample count and truncation order the commands accept,
# so that every run ends in bounded time. One sample at r = 12 (seed 1,
# default order; Python 3.11, Fraction backend, one CPU of a shared host)
# takes about 0.12 s for verify --hg and 0.2 s for verify --qhg --q 2/3 when
# the pairing certificate holds and every cell passes, and 0.11 s resp.
# 0.32 s when one cell fails, which extends the head of the series of
# Psi^{-1} to z^N. With the certificate refused, the kernel forms the
# bilinear sums in one call of 2r-1 outputs, and a failing cell takes 3-5 s
# resp. 38-47 s. MAX_ORDER is the default truncation at r = MAX_R;
# verify --qhg --q 2/3 -r 2 took 87 s at order 250 forming the sums.
MAX_R = 12
MAX_SAMPLES = 100
MAX_ORDER = minimum_order(MAX_R)
# The most digits a numerator, denominator or decimal part of a literal may
# have: the interpreter's default limit on int(str), which the Fraction
# backend meets while parsing and gmpy2's mpq does not. It is checked before
# parsing, so that both backends accept the same literals.
MAX_LITERAL_DIGITS = 4300


def resolve_params(args):
    """Explicit --a/--b pin a single tuple; otherwise draw args.samples
    seeded tuples (rejection until generic)."""
    family = args.family
    if args.a:
        return [family.Params.make(*args.base, args.a, args.b)]
    rng = random.Random(args.seed)
    return [
        family.sample_params(rng, args.r, *args.base) for _ in range(args.samples)
    ]


# --------------------------------------------------------------------------
# reports: each command builds one JSON document per sample; the text form
# is rendered from the same documents


def coeff_strings(poly):
    return [str(c) for c in poly.coeffs]


def ratfunc_json(f):
    """A RationalFunction, or a Polynomial over the denominator 1."""
    if isinstance(f, Polynomial):
        return {"num": coeff_strings(f), "den": ["1"]}
    return {"num": coeff_strings(f.num), "den": coeff_strings(f.den)}


def ratfunc_text(doc):
    return "num [%s] den [%s]" % (", ".join(doc["num"]), ", ".join(doc["den"]))


def tuple_text(values):
    return "(%s)" % ", ".join(values)


def params_json(p):
    """r, a and b, then the other fields of the tuple: the base q of the q
    family."""
    doc = {"r": p.r, "a": [str(x) for x in p.a], "b": [str(x) for x in p.b]}
    names = [f.name for f in fields(p) if f.name not in doc]
    doc.update((name, str(getattr(p, name))) for name in names)
    return doc


def params_text(doc):
    return ", ".join(
        "%s = %s" % (key, tuple_text(value) if isinstance(value, list) else value)
        for key, value in doc.items()
        if key != "r"
    )


def cell_json(cell):
    out = {"cell": list(cell.cell), "pass": cell.passed}
    if cell.expected is not None:
        out["expected"] = ratfunc_json(cell.expected)
    if cell.got_prefix is not None:
        out["got"] = [str(c) for c in cell.got_prefix]
    if cell.first_diff is not None:
        out["first_diff"] = cell.first_diff
    return out


def verdict(passed):
    return "pass" if passed else "FAIL"


def all_passed(doc):
    return all(row["pass"] for row in doc["results"])


def emit(args, docs, text):
    """Print the reports of one run: in JSON a bare object for a single
    document and an array for several, in text the lines text(docs)."""
    if args.output_format == "json":
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        for line in text(docs):
            print(line)


# --------------------------------------------------------------------------
# subcommands


def cmd_dual(args):
    family = args.family
    docs = []
    for p in resolve_params(args):
        op = family.operator(p)
        doc = {
            "command": args.command,
            "params": params_json(p),
            "operator": [ratfunc_json(c) for c in op.coeffs],
            "dual_operator": [ratfunc_json(c) for c in family.dual_operator(op).coeffs],
            "dual_params": params_json(p.dual()),
            "unit": str(family.dual_unit(p)),
        }
        rho = family.argument_rescale(p)
        if rho is not None:
            doc["rho"] = str(rho)
        docs.append(doc)
    emit(args, docs, dual_text)
    return EXIT_PASS


def dual_text(docs):
    for doc in docs:
        yield "parameters: %s" % params_text(doc["params"])
        yield "operator:"
        for j, c in enumerate(doc["operator"]):
            yield "  A[%d] = %s" % (j, ratfunc_text(c))
        yield "dual operator:"
        for j, c in enumerate(doc["dual_operator"]):
            yield "  A*[%d] = %s" % (j, ratfunc_text(c))
        yield "dual parameters:"
        yield "  a' = %s" % tuple_text(doc["dual_params"]["a"])
        yield "  b' = %s" % tuple_text(doc["dual_params"]["b"])
        for key in ("unit", "rho"):
            if key in doc:
                yield "%s = %s" % (key, doc[key])


# command -> (name of the printed matrix, what its --check certifies)
MATRIX_NAMES = {"psi": ("Psi", "det"), "matrix": ("M", "inverse")}


def cmd_matrix(args):
    """psi prints the pairing matrix Psi and checks det Psi against the
    family's closed form; matrix prints M = Psi^{-1} and checks it against
    the first 2r+2 terms of the series of Psi^{-1} (check_cells, with every
    entry accepted), which decides M = Psi^{-1} exactly (verify_duality)."""
    family = args.family
    docs = []
    for p in resolve_params(args):
        op = family.operator(p)
        pairing = family.psi(op)
        mat = pairing if args.command == "psi" else matrix_invert(pairing)
        doc = {
            "command": args.command,
            "params": params_json(p),
            "entries": [[ratfunc_json(e) for e in row] for row in mat],
        }
        if args.check and args.command == "psi":
            doc["check"] = matrix_det(mat) == family.psi_det(op)
        elif args.check:
            series = inverse_series(pairing)
            doc["check"] = series is not None and check_cells(
                mat, series(2 * p.r + 1), lambda k, l, entry: True
            ).passed
        docs.append(doc)
    emit(args, docs, matrix_text)
    return EXIT_PASS if all(doc.get("check", True) for doc in docs) else EXIT_MISMATCH


def matrix_text(docs):
    for doc in docs:
        name, checked = MATRIX_NAMES[doc["command"]]
        yield "parameters: %s" % params_text(doc["params"])
        for k, row in enumerate(doc["entries"]):
            for l, e in enumerate(row):
                yield "  %s[%d][%d] = %s" % (name, k, l, ratfunc_text(e))
        if "check" in doc:
            yield "check %s: %s" % (checked, verdict(doc["check"]))


def cmd_verify(args):
    order = args.order if args.order is not None else minimum_order(args.r)
    docs = [
        {
            "command": args.command,
            "params": params_json(p),
            "order": order,
            "results": [cell_json(c) for c in args.family.verify(p, order).cells],
        }
        for p in resolve_params(args)
    ]
    emit(args, docs, verify_text)
    return EXIT_PASS if all(map(all_passed, docs)) else EXIT_MISMATCH


def verify_text(docs):
    for idx, doc in enumerate(docs):
        yield "sample %d: %s" % (idx, params_text(doc["params"]))
        for cell in doc["results"]:
            yield "  cell (%d,%d): %s" % (*cell["cell"], verdict(cell["pass"]))
            # on a line of its own: cell lines end with their verdict
            if "first_diff" in cell:
                yield "    first difference at z^%d" % cell["first_diff"]
        yield "sample %d result: %s" % (idx, verdict(all_passed(doc)))
    yield "overall: %s" % verdict(all(map(all_passed, docs)))


# Embedded generic fixtures for the regression command: (a, b_head) tuples,
# plus identity samples. Heights are small so exact runs stay fast.
THETA_R2_FIXTURES = (
    (("1/2", "1/3"), ("1/5",)),
    (("1/3", "1/7"), ("2/5",)),
    (("2/3", "1/5"), ("3/7",)),
    (("1/4", "3/5"), ("5/6",)),
    (("2/7", "5/3"), ("1/2",)),
)
THETA_R3_FIXTURES = (
    (("1/2", "1/3", "3/7"), ("1/5", "5/3")),
    (("1/3", "1/7", "2/3"), ("2/5", "3/4")),
    (("1/4", "2/5", "5/6"), ("1/3", "5/7")),
    (("2/3", "1/5", "4/7"), ("1/2", "7/5")),
    (("3/5", "2/7", "5/2"), ("1/6", "4/3")),
)
QSHIFT_R2_FIXTURES = (
    ("1/2", ("1/3", "1/7"), ("1/5",)),
    ("1/2", ("2/5", "3/7"), ("1/3",)),
    ("2/3", ("1/3", "1/7"), ("1/5",)),
    ("2/3", ("2/5", "3/7"), ("1/3",)),
    ("1/2", ("3/5", "5/7"), ("2/7",)),
)
QSHIFT_R3_FIXTURES = (
    ("1/2", ("1/3", "1/7", "2/3"), ("1/5", "3/7")),
    ("1/2", ("2/5", "3/7", "4/5"), ("1/3", "2/7")),
    ("2/3", ("1/3", "1/7", "2/5"), ("1/5", "3/5")),
    ("2/3", ("2/5", "3/5", "1/7"), ("1/2", "5/7")),
    ("1/2", ("1/5", "2/7", "3/4"), ("2/5", "5/6")),
)
EULER_FIXTURES = (
    ("1/2", "1/3", "1/5"),
    ("1/3", "1/7", "2/5"),
    ("2/3", "1/5", "3/7"),
    ("1/4", "3/5", "5/6"),
    ("2/7", "5/3", "1/2"),
)
HEINE_FIXTURES = (
    ("1/3", "1/7", "1/5", "1/2"),
    ("2/5", "3/7", "1/3", "2/3"),
    ("3/5", "5/7", "2/7", "1/2"),
    ("1/3", "1/7", "1/5", "2/3"),
    ("2/5", "5/9", "4/7", "1/2"),
)


def _matrix_cases():
    for case, family, fixtures, closed_form in (
        ("m-r2", hg, THETA_R2_FIXTURES, hg.closed_form_m_r2),
        ("m-r3", hg, THETA_R3_FIXTURES, hg.closed_form_m_r3),
        ("mq-r2", qhg, QSHIFT_R2_FIXTURES, qhg.closed_form_mq_r2),
        ("mq-r3", qhg, QSHIFT_R3_FIXTURES, qhg.closed_form_mq_r3),
    ):
        for i, fixture in enumerate(fixtures):
            p = family.Params.make(*fixture)
            yield case, i, family.duality_matrix(p), closed_form(p)


def cmd_paper_regression(args):
    order = args.order if args.order is not None else 40
    # below the least order verify certifies (r = 2) the product identities
    # would check little more than constant terms
    if order < minimum_order(2):
        raise InsufficientPrecision(order, minimum_order(2))
    results = []
    for case, i, computed, closed in _matrix_cases():
        r = len(computed)
        for k in range(r):
            for l in range(r):
                results.append(
                    {
                        "case": case,
                        "sample": i,
                        "cell": [k, l],
                        "pass": computed[k][l] == closed[k][l],
                    }
                )
    # read from the modules per call, so that wrappers rebound there see it
    for case, identity, fixtures in (
        ("euler", hg.verify_euler_identity, EULER_FIXTURES),
        ("heine", qhg.verify_heine_identity, HEINE_FIXTURES),
    ):
        for i, fixture in enumerate(fixtures):
            report = identity(*(rat(x) for x in fixture), order)
            for cell in report.cells:
                entry = {"case": case, "sample": i}
                entry.update(cell_json(cell))
                results.append(entry)
    doc = {"command": args.command, "order": order, "results": results}
    emit(args, [doc], regression_text)
    return EXIT_PASS if all_passed(doc) else EXIT_MISMATCH


def regression_text(docs):
    by_case = {}
    for row in docs[0]["results"]:
        by_case.setdefault(row["case"], []).append(row)
    for case, rows in by_case.items():
        bad = [row for row in rows if not row["pass"]]
        yield "case %s: %s (%d checks)" % (case, verdict(not bad), len(rows))
        for row in bad:
            yield "  FAIL sample %d cell %s" % (row["sample"], row["cell"])
    yield "overall: %s" % verdict(all_passed(docs[0]))


# --------------------------------------------------------------------------
# argument parsing


def _rational_arg(text):
    """A rational literal p/q or a decimal. Exponent notation is refused, so
    that the height of a literal is bounded by its length, and so is a part
    with more than MAX_LITERAL_DIGITS digits. An error echoes at most the
    first 20 characters of the literal."""
    shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
    parts = re.split(r"[/.]", text)
    if max(len(re.sub(r"\D", "", part)) for part in parts) > MAX_LITERAL_DIGITS:
        raise argparse.ArgumentTypeError(
            "more than %d digits in one part of the literal %s"
            % (MAX_LITERAL_DIGITS, shown)
        )
    if "e" not in text.lower():
        try:
            return rat(text)
        except (ValueError, ZeroDivisionError, TypeError):
            pass
    raise argparse.ArgumentTypeError("not a rational literal: %s" % shown)


def _rational_list_arg(text):
    return tuple(_rational_arg(part) for part in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgdual",
        description="Exact duality computations for generalized and basic "
        "hypergeometric operators.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="hgdual %s, backend %s" % (__version__, Q.__module__),
        help="print the version and the arithmetic backend (fractions or gmpy2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    param_commands = ("dual", "psi", "matrix", "verify")
    for name in param_commands + ("paper-regression",):
        s = sub.add_parser(name)
        if name in param_commands:
            mode = s.add_mutually_exclusive_group(required=True)
            mode.add_argument(
                "--hg", action="store_true", help="differential (theta) family"
            )
            mode.add_argument(
                "--qhg", action="store_true", help="q-shift family (needs --q)"
            )
            s.add_argument("-r", type=int, default=2, help="operator order")
            s.add_argument(
                "--a",
                type=_rational_list_arg,
                default=(),
                help="comma-separated upper parameters; write a negative "
                "first entry as --a=-1/2,1/3",
            )
            s.add_argument(
                "--b",
                type=_rational_list_arg,
                default=(),
                help="comma-separated lower parameters (last one is implied); "
                "write a negative first entry as --b=-1/5",
            )
            s.add_argument("--q", type=_rational_arg, default=None, help="base")
            s.add_argument("--samples", type=int, default=1)
            s.add_argument("--seed", type=int, default=0)
        if name in ("verify", "paper-regression"):
            s.add_argument("--order", type=int, default=None)
        s.add_argument(
            "--format",
            dest="output_format",
            choices=("text", "json"),
            default="text",
        )
        if name in MATRIX_NAMES:
            s.add_argument("--check", action="store_true")
    return parser


def complete_args(parser, args):
    """Check the parsed arguments of a parameter command and add what its
    handler reads besides them: the family module, the base arguments its
    parameter tuples take before a and b ((q,) for the q family, () for
    theta), and r, which --a fixes. r, from -r or from the length of --a,
    is at most MAX_R, --samples at most MAX_SAMPLES, and --order, where a
    command takes it, at most MAX_ORDER."""
    if getattr(args, "order", None) is not None and args.order > MAX_ORDER:
        parser.error("--order is at most %d" % MAX_ORDER)
    if args.command == "paper-regression":
        return args
    if args.qhg and args.q is None:
        parser.error("--qhg requires --q")
    if not args.qhg and args.q is not None:
        parser.error("--q requires --qhg")
    if args.a:
        args.r = len(args.a)
        if len(args.b) != args.r - 1:
            parser.error("--b must list exactly r-1 lower parameters")
    if args.b and not args.a:
        parser.error("--b requires --a")
    if args.r > MAX_R:
        parser.error("r = %d is above the largest order %d" % (args.r, MAX_R))
    if args.samples < 1:
        parser.error("--samples must be positive")
    if args.samples > MAX_SAMPLES:
        parser.error("--samples is at most %d" % MAX_SAMPLES)
    args.family, args.base = (qhg, (args.q,)) if args.qhg else (hg, ())
    return args


COMMANDS = {
    "dual": cmd_dual,
    "psi": cmd_matrix,
    "matrix": cmd_matrix,
    "verify": cmd_verify,
    "paper-regression": cmd_paper_regression,
}


def main(argv=None):
    parser = build_parser()
    args = complete_args(parser, parser.parse_args(argv))
    # The reports print numbers whose height grows with the literals' length
    # and with r; the interpreter's digit limit on str(int) would end them
    # with a traceback. It is lifted for the command only.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return COMMANDS[args.command](args)
    except (DegenerateParameters, DegenerateOperator) as exc:
        print("degenerate parameters: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except InsufficientPrecision as exc:
        print(
            "order %d is below the certified minimum; rerun with --order %d"
            % (exc.order, exc.minimum),
            file=sys.stderr,
        )
        return EXIT_PRECISION
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
