"""The package holds only what a command runs: every function and method
defined in src/hgdual/ is entered by some command of the command line,
run in-process under sys.setprofile in both families, on passing cells
(the pairing certificate), on failing ones (the series of Psi^{-1}) and
on failing ones with the certificate refused (the bilinear-sum kernel).
What only the tests call lives in tests/oracles.py."""

import inspect
import sys

import hgdual
import hgdual.cli
import hgdual.exact_algebra as exact_algebra
import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
import hgdual.skew_operators as skew_operators

MODULES = (hgdual, hgdual.cli, exact_algebra, hg, qhg, skew_operators)

# Value semantics the package types keep although no command needs them.
# ALLOWED names what else may stay unreached; nothing does at present.
VALUE_METHODS = ("__eq__", "__hash__", "__repr__")
ALLOWED = set()

COMMANDS = (
    "--version",
    "dual --hg -r 3 --seed 1",
    "dual --qhg --q 2/3 -r 3 --seed 1 --format json",
    "dual --hg --a 1/2,1/3 --b 1/5 --format json",
    "dual --qhg --q 1/2 --a 1/3,1/7 --b 1/5",
    "psi --hg -r 3 --seed 1 --check",
    "psi --qhg --q 1/2 -r 3 --seed 1 --check --format json",
    "matrix --hg -r 3 --seed 1 --check --format json",
    "matrix --qhg --q 1/2 -r 3 --seed 1 --check",
    # a_1 + a_2 = b_1 + b_2 - 1: M[1][1] cancels to (1/6)/(z - 1), the one
    # entry that takes the cancelling branch of RationalFunction
    "matrix --hg --a 1/2,1/3 --b 5/6 --check",
    "verify --hg -r 2 --seed 1",
    "verify --qhg --q 1/2 -r 2 --seed 1 --format json",
    "verify --hg -r 2 --order 9",
    "paper-regression",
    "paper-regression --format json",
)
# Each also once with a failing cell, which verify reads from the series of
# Psi^{-1}, and once more with checks 1 and 2 of the certificate refused
# too, which sends verify to the bilinear-sum kernel.
FAILING = ("verify --hg -r 2 --seed 1", "verify --qhg --q 1/2 -r 2 --format json")


def _defined():
    """{code object: module.qualified name} of every function and method
    written in the package's source, properties and static methods
    included."""
    found = {}
    for module in MODULES:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for name, member in members:
                func = getattr(member, "fget", None) or getattr(
                    member, "__func__", member
                )
                code = getattr(func, "__code__", None)
                # dataclass methods are compiled from a string
                if code is not None and code.co_filename == module.__file__:
                    where = module.__name__.removeprefix("hgdual.")
                    found[code] = "%s.%s" % (where, func.__qualname__)
    return found


def _run(argv):
    try:
        hgdual.cli.main(argv.split())
    except SystemExit:
        pass


def test_every_package_function_is_entered(capsys, monkeypatch):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            _run(argv)
        for family in (hg, qhg):
            with monkeypatch.context() as mp:
                # every cell but (0, 0) passes
                mp.setattr(family, "structure_ok", lambda p, k, l, e: (k, l) != (0, 0))
                _run(FAILING[family is qhg])
                mp.setattr(skew_operators, "annihilated", lambda op, entries: False)
                _run(FAILING[family is qhg])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = sorted(
        name
        for code, name in _defined().items()
        if code not in entered
        and name not in ALLOWED
        and name.rsplit(".", 1)[-1] not in VALUE_METHODS
    )
    assert unreached == []


def test_allowed_names_are_defined():
    """The allow-list names only what the package still defines, so that
    it cannot outlive the code it lets through."""
    assert ALLOWED <= set(_defined().values())
