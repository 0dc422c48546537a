"""Exact arithmetic kernel: rationals, univariate polynomials in z,
rational functions as reduced values whose denominators come as factors of
degree at most 1, truncated power series kept as integer graded data, and
the bilinear-sum kernel that forms their products over integers, each term
of a sum a rational weight and an integer scale.

Everything is exact; there is no floating point anywhere in this package.
Values are immutable after construction, so all operations are pure.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is the optional extra "gmpy"
    from fractions import Fraction as Q

__all__ = [
    "Q",
    "rat",
    "is_integer",
    "Polynomial",
    "RationalFunction",
    "TruncatedSeries",
    "integer_vector",
    "bilinear_combinations",
    "integer_scale_arg",
    "integer_first_mismatch",
    "PoleAtOrigin",
]

_QZERO = Q(0)


class PoleAtOrigin(ValueError):
    """Series expansion requested for a rational function with den(0) = 0."""


def rat(x):
    """Coerce an int, string \"p/q\", or rational to the scalar type."""
    if isinstance(x, type(_QZERO)):
        return x
    if isinstance(x, (int, str)):
        return Q(x)
    raise TypeError("cannot coerce %r to a rational" % (x,))


def is_integer(x):
    return x.denominator == 1


class Polynomial:
    """Univariate polynomial over Q: coefficient n of z^n is nums[n] / den,
    in canonical form (den > 0, gcd(den, *nums) = 1, no trailing zero, and
    the zero polynomial () over 1, of degree -1), so == compares nums and
    den. Arithmetic runs on the integers and reduces each result once
    (_poly); the constructor takes rationals and coeffs gives them back.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, int) else rat(c) for c in coeffs]
        den = lcm(*(int(c.denominator) for c in cs))
        p = _poly([int(c.numerator) * (den // int(c.denominator)) for c in cs], den)
        self.nums, self.den = p.nums, p.den

    @staticmethod
    def zero():
        return Polynomial(())

    @staticmethod
    def one():
        return Polynomial((1,))

    @property
    def degree(self):
        return len(self.nums) - 1

    @property
    def is_zero(self):
        return not self.nums

    @property
    def coeffs(self):
        return tuple(Q(x, self.den) for x in self.nums)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return False
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other, sign=1):
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = [x * a for x in self.nums]
        out.extend([0] * (len(other.nums) - len(out)))
        for i, y in enumerate(other.nums):
            out[i] += y * b
        return _poly(out, den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return _poly([-x for x in self.nums], self.den)

    def __mul__(self, other):
        # schoolbook convolution; degrees stay tiny in this package
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums, i):
                    out[j] += x * y
        return _poly(out, self.den * other.den)

    def scale(self, c):
        c = c if isinstance(c, int) else rat(c)
        u, w = int(c.numerator), int(c.denominator)
        return _poly([x * u for x in self.nums], self.den * w)

    def theta(self):
        """z * d/dz: the coefficient of z^n multiplies by n."""
        return _poly([i * x for i, x in enumerate(self.nums)], self.den)

    def scale_arg(self, c):
        """p(c*z): multiply the n-th coefficient by c^n."""
        c = c if isinstance(c, int) else rat(c)
        return _poly(*integer_scale_arg(list(self.nums), self.den, c))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*z" % c)
            else:
                parts.append("%s*z^%d" % (c, i))
        return " + ".join(parts)


def _poly(nums, den):
    """The Polynomial nums / den, nums a list of ints and den > 0, in
    canonical form: trailing zeros stripped and one gcd sweep."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums) if nums else den
    p = object.__new__(Polynomial)
    p.nums = tuple(nums) if g == 1 else tuple(x // g for x in nums)
    p.den = den // g
    return p


def _divided(nums, p, q):
    """The integer quotient of nums by q z - p, by synthetic division from
    the top, or None when q z - p does not divide nums over Q. For
    gcd(p, q) = 1 it is primitive, so by Gauss's lemma it divides nums
    over Q exactly when every step divides by q and the remainder is 0."""
    quot, c = [], 0
    for x in reversed(nums[1:]):
        c, rest = divmod(x + p * c, q)
        if rest:
            return None
        quot.append(c)
    return None if nums[0] + p * c else quot[::-1]


class RationalFunction:
    """Reduced ratio num / den of two polynomials, den nonzero and made
    monic, built from num and the factors of den, each of degree 0 or 1:
    the pivots of Psi for the entries of M = Psi^{-1}, and (1 - z),
    (1 - q^k z) or another linear factor for the closed forms they are
    compared with. The package normalises each fraction it outputs once,
    here, and has no arithmetic on it.

    The factors are taken in turn. A zero factor raises ZeroDivisionError
    and one of degree above 1 raises ValueError. A factor (g / e)(q z - p),
    gcd(p, q) = 1, q > 0, is irreducible, so it divides num exactly when
    q z - p divides the numerators of num (_divided); then num becomes the
    quotient, and otherwise q z - p joins den. The scalars g / e and the
    factors of degree 0 go into num at the end. This removes each root
    min(its multiplicity in den, in num) times, which is the gcd: if
    num(p/q) != 0, then num = h (num / h) for a factor h divided out later
    gives (num / h)(p/q) != 0, so a kept factor stays coprime to num, and
    a root where num did not vanish is not tried again.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, *factors):
        nums, den = list(num.nums), [1]
        scale_num, scale_den, missed = 1, 1, set()
        for f in factors:
            if f.is_zero:
                raise ZeroDivisionError("rational function with zero denominator")
            if f.degree > 1:
                raise ValueError("denominator factor of degree above 1")
            if not nums:
                continue
            g = gcd(*f.nums) if f.nums[-1] > 0 else -gcd(*f.nums)
            scale_num, scale_den = scale_num * g, scale_den * f.den
            if f.degree == 0:
                continue
            p, q = -f.nums[0] // g, f.nums[1] // g
            if (p, q) not in missed:
                quot = _divided(nums, p, q)
                if quot is not None:
                    nums = quot
                    continue
                missed.add((p, q))
            den = [y * q - x * p for x, y in zip(den + [0], [0] + den)]
        # num / prod(factors) = (nums / num.den) / ((scale_num / scale_den) den)
        lead = scale_num * den[-1]
        if lead < 0:
            nums, lead = [-x for x in nums], -lead
        self.num = _poly([x * scale_den for x in nums], num.den * lead)
        self.den = _poly(den, den[-1])

    @staticmethod
    def zero():
        return RationalFunction(Polynomial(()))

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Polynomial.one():
            return "(%r)" % self.num
        return "(%r) / (%r)" % (self.num, self.den)


class TruncatedSeries:
    """Power series through z^order as integer graded data: coefficient n
    is nums[n] / L(n), L(n) = steps[0] ... steps[n], steps positive. L(n)
    need not be the lcm of the denominators, so == compares values. No
    arithmetic: bilinear_combinations forms products over the stored L(n),
    and integer_vector compares a series with one of them."""

    __slots__ = ("nums", "steps", "order")

    def __init__(self, nums, steps):
        self.nums, self.steps = tuple(nums), tuple(steps)
        self.order = len(self.nums) - 1
        if self.order < 0 or len(self.steps) != len(self.nums) or min(self.steps) < 1:
            raise ValueError("a series needs one positive step per numerator")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return integer_vector(self) == integer_vector(other)

    def __repr__(self):
        v, d = integer_vector(self)
        head = ", ".join(str(Q(x, d)) for x in v[:8])
        tail = ", ..." if self.order >= 8 else ""
        return "Series[%s%s; order=%d]" % (head, tail, self.order)


# Integer vectors over one common denominator. A pair (v, d) of a list of
# ints and a positive int stands for the series sum_n (v[n] / d) z^n. The
# bilinear sums run over integers: big-integer products and sums with no
# gcd per operation, and one gcd per output coefficient.


def integer_vector(s):
    """(v, d) with coefficient n of s equal to v[n] / d and d the lcm of
    the reduced denominators: the last graded lift over L(N), divided by
    its one gcd with L(N), the canonical form of any such (v, d)."""
    *_, (v, _) = _graded_lifts(s, len(s.nums))
    d = prod(s.steps)
    g = gcd(d, *v)
    return [x // g for x in v], d // g


def _graded_lifts(s, length):
    """For m = 0..length-1, yield (x, step), step = s.steps[m] and x the
    coefficients 0..m over L(m): x[n] = nums[n] steps[n+1] ... steps[m].
    From m-1 to m, x is multiplied by the step and gains nums[m]; there is
    no gcd and no division."""
    x = []
    for y, step in zip(s.nums[:length], s.steps[:length]):
        if step != 1:
            x = [z * step for z in x]
        x.append(y)
        yield x, step


def _carried(states, count):
    """For each state [((a_i, sa_i), (b_i, sb_i)), ...] of count pairs' lifts
    at m = 0, 1, ..., yield (state, D_m, c) with D_m = lcm_i(La_i(m) Lb_i(m))
    and the cross factors c_i = D_m / (La_i(m) Lb_i(m)).

    Both are carried by the steps s_i = sa_i sb_i: with g_i = gcd(c_i, s_i),
    t_i = s_i / g_i and T = lcm_i t_i, D_m = D_(m-1) T and
    c_i = (c_i / g_i) (T / t_i), so that a tall D_m or c_i meets only
    products, divisions and gcds by small numbers.
    """
    d_m, cross = 1, [1] * count
    for state in states:
        steps = [sa * sb for (_, sa), (_, sb) in state]
        if any(s != 1 for s in steps):
            shared = list(map(gcd, cross, steps))
            ts = [s // g for s, g in zip(steps, shared)]
            t = lcm(*ts)
            d_m *= t
            cross = [c // g * (t // ti) for c, g, ti in zip(cross, shared, ts)]
        yield state, d_m, cross


def bilinear_combinations(pairs, outputs):
    """Reduced integer vectors (v_j, d_j) of the sums
    sum_i w_ij (s_ij a_i) * b_i, truncated to the common order.

    pairs[i] = (a_i, b_i) holds two TruncatedSeries, and
    outputs[j][i] = (w_ij, s_ij) a rational weight and an integer scale
    vector: coefficient n of a_i is multiplied by s_ij[n]. A caller whose
    scale has a denominator folds it into the weight.

    Coefficient m of a product needs its factors only through z^m, so it
    is formed over graded denominators. Each series is lifted over its
    stored L(m) = steps[0] ... steps[m] (TruncatedSeries), not over one
    denominator of the whole series, and the lifted vector is carried from
    m to m+1 by the step steps[m+1], which is mostly 1 or small. In
    q-series the height of coefficient n grows like n^2, so the low
    coefficients stay far below the height of the last one.

    At each m the pairs meet over D_m = lcm_i(La_i(m) Lb_i(m)), by the
    cross factors D_m / (La_i(m) Lb_i(m)); both are carried from m-1 by
    the steps (_carried), with no lcm nor division of tall numbers. Each
    big product a_i[n] b_i[m-n] is formed once and serves every output.
    The weight denominators stay out of D_m, in one constant E_j per
    output, their lcm. Output coefficient m is reduced by one gcd against
    its own denominator E_j D_m, and the reduced coefficients of an output
    are put over their lcm at the end.
    """
    consts = [lcm(*(int(w.denominator) for w, _ in row)) for row in outputs]
    factors = [
        [int(w.numerator) * (e // int(w.denominator)) for w, _ in row]
        for row, e in zip(outputs, consts)
    ]
    scales = [[s for _, s in row] for row in outputs]
    length = min(len(s.nums) for pair in pairs for s in pair)
    lifts = [zip(_graded_lifts(a, length), _graded_lifts(b, length)) for a, b in pairs]
    rows = [[] for _ in consts]
    for state, d_m, cross in _carried(zip(*lifts), len(pairs)):
        sums = [0] * len(consts)
        for i, ((a, _), (b, _)) in enumerate(state):
            terms = list(map(mul, a, reversed(b)))
            for j, (srow, frow) in enumerate(zip(scales, factors)):
                sums[j] += frow[i] * cross[i] * sum(map(mul, terms, srow[i]))
        for row, acc, e in zip(rows, sums, consts):
            den = e * d_m
            g = gcd(acc, den)
            row.append((acc // g, den // g))
    result = []
    for out in rows:
        d = lcm(*(e for _, e in out))
        result.append(([x * (d // e) for x, e in out], d))
    return result


def integer_scale_arg(v, d, c):
    """v(c z) / d as an integer vector, for a rational c: entry n gains
    num(c)^n den(c)^(N-n) and the denominator gains den(c)^N."""
    if c == 1:
        return v, d
    u, w = int(c.numerator), int(c.denominator)
    ups, wps = [1], [1]
    for _ in range(len(v) - 1):
        ups.append(ups[-1] * u)
        wps.append(wps[-1] * w)
    return [x * a * b for x, a, b in zip(v, ups, reversed(wps))], d * wps[-1]


def integer_first_mismatch(v, d, f):
    """The first n at which v/d differs from the expansion of f, or None
    when they agree through z^(len(v)-1).

    Checked as den(f) v - num(f) d = 0 through that order, over the
    integers; since den(f)(0) != 0, coefficient n of that difference is the
    first nonzero one exactly when coefficient n of v/d is the first to
    differ from the expansion of f.
    """
    if not f.den.nums[0]:
        raise PoleAtOrigin("rational function has a pole at z = 0")
    e = lcm(f.num.den, f.den.den)
    num, den = ([x * (e // g.den) for x in g.nums] for g in (f.num, f.den))
    for n in range(len(v)):
        acc = sum(map(mul, den[: n + 1], v[n::-1]))
        if acc != (num[n] * d if n < len(num) else 0):
            return n
    return None
