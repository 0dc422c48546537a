"""Seeded inputs for the three benchmark workloads and the checks on what
hgdual prints for them.

Every parameter tuple is drawn here from the workload seed and handed to
the program as explicit ``--a/--b/--q`` values, so the program sees only the
generated inputs.  Numerators lie in 1..97.  The 2r-1 free parameters of a
tuple get distinct prime denominators from 13..67.  The cost of a check is
set by the height of the rationals, so this fixes the input size: with
numerators and denominators both drawn from 1..97, tuples whose
denominators happened to share factors ran up to a third faster than the
rest, and single runs of a workload spread too widely to compare.

A draw is kept only when it satisfies the genericity conditions the package
states for its parameters (checked here, independently of the package): in
theta mode no upper parameter is an integer and no two lower parameters,
including the implied b_r = 1, differ by an integer; in q mode no quotient
of two lower parameters, including the implied b_r = q, is an integral power
of q.
"""

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

ORDER = "40"
BASES = ("1/2", "2/3")
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Invocation:
    """One call of ``hgdual.cli.main``."""

    command: str
    family: tuple = ()
    a: str = ""
    b: str = ""
    r: object = None
    options: tuple = ()
    fmt: str = "json"

    @property
    def argv(self):
        out = [self.command, *self.family]
        if self.a:
            out += ["--a", self.a, "--b", self.b]
        out += list(self.options)
        if self.fmt == "json":
            out += ["--format", "json"]
        return out

    def with_command(self, command):
        """The same parameters under another subcommand, JSON, no options."""
        return Invocation(command, self.family, self.a, self.b, self.r)


PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def _draw(rng, r):
    """r upper and r-1 free lower parameters, denominators distinct primes."""
    values = []
    for den in rng.sample(PRIMES, 2 * r - 1):
        num = rng.randint(1, 97)
        while num % den == 0:
            num = rng.randint(1, 97)
        values.append(Fraction(num, den))
    return values[:r], values[r:]


def _join(values):
    return ",".join(str(x) for x in values)


def _theta_generic(a, b):
    if any(x.denominator == 1 for x in a):
        return False
    return all(
        (b[i] - b[j]).denominator != 1
        for i in range(len(b))
        for j in range(i + 1, len(b))
    )


def _is_power(ratio, q):
    """True when ratio = q^k for some integer k (k = 0 included)."""
    if ratio < 1:
        ratio = 1 / ratio
    power = Fraction(1)
    while power < ratio:
        power /= q
    return power == ratio


def _q_generic(b, q):
    return not any(
        _is_power(b[i] / b[j], q)
        for i in range(len(b))
        for j in range(i + 1, len(b))
    )


def theta_params(rng, r):
    for _ in range(MAX_DRAWS):
        a, b = _draw(rng, r)
        if _theta_generic(a, b + [Fraction(1)]):
            return _join(a), _join(b)
    raise RuntimeError("no generic theta parameters in %d draws" % MAX_DRAWS)


def q_params(rng, r, q):
    base = Fraction(q)
    for _ in range(MAX_DRAWS):
        a, b = _draw(rng, r)
        if _q_generic(b + [base], base):
            return _join(a), _join(b)
    raise RuntimeError("no generic q parameters in %d draws" % MAX_DRAWS)


def _theta_verify(rng, _index):
    # r=4 twice: with an odd count per pass the median per invocation is the
    # middle r=4 sample, not the mean of one r=3 and one r=4 time
    return [
        Invocation(
            "verify", ("--hg",), *theta_params(rng, r), r, ("--order", ORDER)
        )
        for r in (2, 3, 4, 4, 5)
    ]


def _qshift_verify(rng, _index):
    # r=3 runs twice with q=1/2 and three times with q=2/3: the median of the
    # eleven times per pass is then the middle of three (r=3, q=2/3) samples,
    # not one sample or the mean of two from different groups
    cases = [(r, q) for r in range(2, 6) for q in BASES]
    cases += [(3, BASES[0]), (3, BASES[1]), (3, BASES[1])]
    return [
        Invocation(
            "verify",
            ("--qhg", "--q", q),
            *q_params(rng, r, q),
            r,
            ("--order", ORDER),
            fmt="text",
        )
        for r, q in sorted(cases)
    ]


def _symbolic(rng, _index):
    # q and the family of the single dual alternate with r, so every pass has
    # the same mix: five invocations per r, and the median at r=7 is the
    # psi --hg time rather than the mean of two different commands
    out = []
    for r in range(3, 8):
        flip = r % 2
        q = BASES[flip]
        families = (
            (("--hg",), theta_params(rng, r)),
            (("--qhg", "--q", q), q_params(rng, r, q)),
        )
        family, params = families[flip]
        out.append(Invocation("dual", family, *params, r))
        for family, params in families:
            out.append(Invocation("psi", family, *params, r, ("--check",)))
            out.append(Invocation("matrix", family, *params, r, ("--check",)))
    out.append(Invocation("paper-regression"))
    return out


# workload name -> builder of one pass of invocations
WORKLOADS = {
    "theta-verify": _theta_verify,
    "qshift-verify": _qshift_verify,
    "symbolic": _symbolic,
}


def build_pass(workload, seed, index):
    """The invocations of pass ``index``; the same arguments give the same
    list in every process."""
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    return WORKLOADS[workload](rng, index)


def oracle_samples(invocations):
    """One parameter tuple per (family, r): the first one in the pass."""
    seen = {}
    for inv in invocations:
        if inv.a and (inv.family[0], inv.r) not in seen:
            seen[inv.family[0], inv.r] = inv
    return list(seen.values())


_CELL = re.compile(r"^  cell \((\d+),(\d+)\): (pass|FAIL)$")


def verdicts(inv, stdout):
    """The pass/fail verdicts an invocation printed, and a description of
    anything malformed in its output (``None`` when well formed)."""
    if inv.fmt == "text":
        found = [m.group(3) == "pass" for m in map(_CELL.match, stdout.splitlines()) if m]
        if len(found) != inv.r * inv.r:
            return found, "%d cell verdicts, expected %d" % (len(found), inv.r * inv.r)
        if "overall: pass" not in stdout.splitlines() and all(found):
            return found, "no overall verdict"
        return found, None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [], "output is not JSON"
    if not isinstance(doc, dict):
        return [], "expected one JSON object"
    if inv.command == "verify":
        found = [c.get("pass") is True for c in doc.get("results", ())]
        if len(found) != inv.r * inv.r:
            return found, "%d cell verdicts, expected %d" % (len(found), inv.r * inv.r)
        return found, None
    if inv.command == "paper-regression":
        found = [c.get("pass") is True for c in doc.get("results", ())]
        return found, None if found else "no regression rows"
    if inv.command == "dual":
        if len(doc.get("dual_operator", ())) != inv.r + 1:
            return [], "dual operator of wrong order"
        return [], None
    if "check" not in doc:
        return [], "no check verdict"
    if len(doc.get("entries", ())) != inv.r:
        return [doc["check"] is True], "matrix of wrong size"
    return [doc["check"] is True], None
