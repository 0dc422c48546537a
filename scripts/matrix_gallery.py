"""Pretty-print the pairing matrix and its inverse for one parameter tuple.

Shows Psi (entries are degree-one polynomials), the duality matrix
M = Psi^{-1} (entries are rational functions with denominator a power of
the top coefficient), and marks which entries the closed forms predict:
the zero block, the anti-diagonal or superdiagonal, and the corner.

Usage:
    python3 scripts/matrix_gallery.py --a 1/2,1/3,3/7 --b 1/5,5/3
    python3 scripts/matrix_gallery.py --qshift --q 1/2 --a 1/3,1/7 --b 1/5
"""

import argparse

import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
from hgdual.exact_algebra import rat


def poly_str(p):
    if p.is_zero:
        return "0"
    parts = []
    for j, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
        elif j == 1:
            parts.append("%s*z" % str(c))
        else:
            parts.append("%s*z^%d" % (str(c), j))
    return " + ".join(parts)


def ratfunc_str(f):
    if f.is_zero:
        return "0"
    if f.den.degree == 0:
        return poly_str(f.num)
    return "(%s) / (%s)" % (poly_str(f.num), poly_str(f.den))


def print_matrix(name, mat):
    print("%s:" % name)
    for k, row in enumerate(mat):
        for l, entry in enumerate(row):
            print("  %s[%d][%d] = %s" % (name, k, l, ratfunc_str(entry)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="comma-separated upper parameters")
    ap.add_argument("--b", required=True, help="comma-separated lower parameters")
    ap.add_argument("--qshift", action="store_true")
    ap.add_argument("--q", type=rat, default=None)
    args = ap.parse_args()

    a = [rat(x) for x in args.a.split(",")]
    b = [rat(x) for x in args.b.split(",")]
    if args.qshift and args.q is None:
        ap.error("--qshift requires --q")
    family, base = (qhg, (args.q,)) if args.qshift else (hg, ())
    p = family.Params.make(*base, a, b)
    op = family.operator(p)
    psi = family.psi(op)
    m = family.duality_matrix(p)

    print("parameters: a = (%s), b = (%s)" % (
        ", ".join(str(x) for x in p.a),
        ", ".join(str(x) for x in p.b),
    ))
    if args.qshift:
        print("base q = %s" % str(p.q))
    print("operator coefficients:")
    for j, c in enumerate(op.coeffs):
        print("  A[%d] = %s" % (j, ratfunc_str(c)))
    print_matrix("Psi", psi)
    print_matrix("M", m)
    r = p.r
    if args.qshift:
        zeros = [(k, l) for k in range(r) for l in range(r)
                 if l <= k and (k, l) != (r - 1, 0)]
        print("predicted zero cells (lower triangle less the corner): %s" % zeros)
        print("predicted corner: M[%d][0]; superdiagonal M[k][k+1] = 1/(1-q^k z)" % (r - 1))
    else:
        zeros = [(k, l) for k in range(r) for l in range(r) if k + l <= r - 2]
        print("predicted zero cells (k+l <= r-2): %s" % zeros)
        print("predicted anti-diagonal (k+l = r-1): (-1)^l / (1-z)")


if __name__ == "__main__":
    main()
