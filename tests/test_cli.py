"""End-to-end command line tests: output contracts, exit codes, determinism."""

import hashlib
import json
import sys

import pytest

import hgdual
import hgdual.cli
import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
import hgdual.skew_operators as skew_operators
from hgdual.cli import (
    EXIT_DEGENERATE,
    EXIT_MISMATCH,
    EXIT_PASS,
    EXIT_PRECISION,
    MAX_LITERAL_DIGITS,
    MAX_ORDER,
    build_parser,
    complete_args,
    main,
)
from hgdual.exact_algebra import (
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    rat,
)
from hgdual.skew_operators import minimum_order
from oracles import ratfunc, reduced, rf_add


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDual:
    def test_theta_parameters(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--hg", "-r", "2", "--a", "1/2,1/3", "--b", "1/5"
        )
        assert code == EXIT_PASS
        assert "a' = (1/2, 2/3)" in out
        assert "b' = (9/5, 1)" in out

    def test_qshift_parameters(self, capsys):
        code, out, _ = run(
            capsys,
            "dual", "--qhg", "-r", "2", "--q", "1/2", "--a", "1/3,1/7",
            "--b", "1/5",
        )
        assert code == EXIT_PASS
        assert "a' = (3/2, 7/2)" in out
        assert "b' = (5/4, 1/2)" in out
        assert "rho = 5/21" in out

    def test_json_layout(self, capsys):
        code, out, _ = run(
            capsys,
            "dual", "--hg", "--a", "1/2,1/3", "--b", "1/5", "--format", "json",
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["command"] == "dual"
        assert doc["params"] == {"r": 2, "a": ["1/2", "1/3"], "b": ["1/5", "1"]}
        assert doc["dual_params"]["b"] == ["9/5", "1"]
        assert len(doc["operator"]) == 3


class TestParseErrors:
    def test_malformed_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--hg", "--a", "1//2", "--b", "1/5"])
        assert exc.value.code == 2

    def test_qshift_without_base(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--qhg", "--a", "1/3,1/7", "--b", "1/5"])
        assert exc.value.code == 2

    def test_wrong_lower_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--hg", "--a", "1/2,1/3", "--b", "1/5,1/7"])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    # r and --samples are bounded so that every run ends in bounded time;
    # the bound is checked before any parameter is drawn or built
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--hg", "-r", "13"),
            ("dual", "--qhg", "--q", "1/2", "-r", "13"),
            ("verify", "--hg", "--samples", "101"),
            ("matrix", "--qhg", "--q", "2/3", "--samples", "101"),
            (
                "verify", "--hg",
                "--a", ",".join("1/%d" % (2 * n + 3) for n in range(13)),
                "--b", ",".join("%d/7" % (n + 1) for n in range(12)),
            ),
        ],
        ids=["r=13", "qhg-r=13", "samples=101", "qhg-samples=101", "a-of-13"],
    )
    def test_above_the_bounds(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "largest order 12" in err or "at most 100" in err

    def test_at_the_bounds(self):
        parser = build_parser()
        argv = ["verify", "--hg", "-r", "12", "--samples", "100", "--order", "56"]
        args = complete_args(parser, parser.parse_args(argv))
        assert (args.r, args.samples, args.order) == (12, 100, 56)
        argv = ["paper-regression", "--order", "56"]
        assert complete_args(parser, parser.parse_args(argv)).order == 56

    # --order is bounded by the default order at the largest r, minimum_order(12)
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--hg", "--order", "57"),
            ("verify", "--qhg", "--q", "2/3", "-r", "2", "--order", "250"),
            ("paper-regression", "--order", "57"),
        ],
        ids=["verify", "qhg-verify", "paper-regression"],
    )
    def test_order_above_the_bound(self, capsys, argv):
        assert MAX_ORDER == 56
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--order is at most 56" in capsys.readouterr().err

    # exponent notation would let a short literal stand for a tall number
    @pytest.mark.parametrize("literal", ["1e5000", "1E3", "2.5e-1"])
    def test_exponent_notation_rejected(self, capsys, literal):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--hg", "--a", literal + ",1/3", "--b", "1/5"])
        assert exc.value.code == 2
        assert "not a rational literal" in capsys.readouterr().err


# The reports of a 3000-digit literal print numbers above the interpreter's
# 4300-digit limit on str(int)
TALL = "7" * 3000 + "/11"


class TestTallLiterals:
    def test_matrix(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--hg", "--a", TALL + ",1/3,1/7", "--b", "1/5,5/3", "--check",
        )
        assert code == EXIT_PASS
        assert "check inverse: pass" in out
        assert max(len(word) for word in out.split()) > 4300

    def test_verify(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--hg", "--a", TALL + ",1/3,1/7", "--b", "1/5,5/3"
        )
        assert code == EXIT_PASS
        assert "overall: pass" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "--hg", "--a", TALL + ",1/3", "--b", "1/5"),
            ("dual", "--hg", "--a", "1/2,1/3", "--b", "2"),
        ],
        ids=["pass", "degenerate"],
    )
    def test_digit_limit_restored(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit

    # the bound is checked before parsing, the same for every backend
    def test_literal_at_the_digit_bound(self, capsys):
        literal = "7" * MAX_LITERAL_DIGITS
        code, out, _ = run(
            capsys, "dual", "--hg", "--a", literal + ",1/3", "--b", "1/5"
        )
        assert MAX_LITERAL_DIGITS == 4300
        assert code == EXIT_PASS
        assert literal in out

    @pytest.mark.parametrize(
        "literal",
        ["7" * 4301, "1/" + "3" * 4301, "2." + "1" * 4301, "1_" * 4300 + "1"],
        ids=["numerator", "denominator", "decimal", "underscores"],
    )
    def test_literal_above_the_digit_bound(self, capsys, literal):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--hg", "--a", literal + ",1/3", "--b", "1/5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "more than 4300 digits" in err
        assert len(err) < 400

    # a malformed literal is echoed by its first 20 characters only
    @pytest.mark.parametrize(
        "argv",
        [
            ("--a", "7" * 4000 + "x,1/3", "--b", "1/5"),
            ("--a", "1/2,1/3", "--b", "1/5" + "x" * 5000),
        ],
        ids=["digits", "letters"],
    )
    def test_long_malformed_literal(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--hg", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not a rational literal" in err
        assert len(err) < 400


class TestExitCodes:
    def test_degenerate_parameters(self, capsys):
        code, _, err = run(capsys, "matrix", "--hg", "--a", "1/2,1/3", "--b", "2")
        assert code == EXIT_DEGENERATE
        assert "degenerate" in err

    def test_insufficient_order(self, capsys):
        code, _, err = run(capsys, "verify", "--hg", "-r", "3", "--order", "6")
        assert code == EXIT_PRECISION
        assert "--order 20" in err

    # Sampled parameters that cannot be generic end like the same values
    # given with --a: exit 3 with the message of the explicit path, instead
    # of a sampler that rejects and redraws forever.
    @pytest.mark.parametrize(
        "sampled, explicit",
        [
            (("verify", "--hg", "-r", "1"), ("verify", "--hg", "--a", "1/2")),
            (("verify", "--hg", "-r", "0"), ("verify", "--hg", "--a", "1/2")),
            (("verify", "--hg", "-r", "-3"), ("verify", "--hg", "--a", "1/2")),
            (("dual", "--hg", "-r", "1"), ("dual", "--hg", "--a", "1/2")),
            (
                ("verify", "--qhg", "--q", "2"),
                ("verify", "--qhg", "--q", "2", "--a", "1/3,1/7", "--b", "1/5"),
            ),
            (
                ("verify", "--qhg", "--q", "0"),
                ("verify", "--qhg", "--q", "0", "--a", "1/3,1/7", "--b", "1/5"),
            ),
        ],
    )
    def test_sampled_degenerate_parameters(self, capsys, sampled, explicit):
        code, out, err = run(capsys, *sampled)
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert (code, err) == run(capsys, *explicit)[::2]

    @pytest.mark.parametrize("order", ["-5", "0", "15"])
    def test_regression_below_certified_order(self, capsys, order):
        code, out, err = run(capsys, "paper-regression", "--order", order)
        assert code == EXIT_PRECISION
        assert out == ""
        assert "--order 16" in err

    def test_regression_at_certified_order(self, capsys):
        code, out, _ = run(capsys, "paper-regression", "--order", "16")
        assert code == EXIT_PASS
        assert "overall: pass" in out


class TestOptionScope:
    """--order is read only by verify and paper-regression, --check only by
    psi and matrix; elsewhere they are parse errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "--hg", "--order", "20"),
            ("psi", "--hg", "--order", "20"),
            ("matrix", "--hg", "--order", "20"),
            ("dual", "--hg", "--check"),
            ("verify", "--hg", "--check"),
            ("paper-regression", "--check"),
        ],
    )
    def test_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


class TestVerify:
    # argparse reads "--a -1/2,1/3" as a missing value followed by an option
    def test_negative_first_entry_in_equals_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--hg", "--a=-1/2,1/3", "--b=-1/5")
        assert code == EXIT_PASS
        assert "a = (-1/2, 1/3), b = (-1/5, 1)" in out
        assert "overall: pass" in out

    def test_explicit_parameters_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--hg", "--a", "1/2,1/3", "--b", "1/5"
        )
        assert code == EXIT_PASS
        assert out.count("pass") >= 5
        assert "overall: pass" in out

    def test_sampled_qshift(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--qhg", "-r", "2", "--q", "1/2", "--samples", "3"
        )
        assert code == EXIT_PASS
        assert out.count("result: pass") == 3

    def test_json_report_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--hg", "--a", "1/2,1/3", "--b", "1/5", "--format", "json",
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["order"] == 16
        assert len(doc["results"]) == 4
        for cell in doc["results"]:
            assert cell["pass"] is True
            assert sorted(cell["cell"]) == cell["cell"] or len(cell["cell"]) == 2


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failing_cell_names_first_difference(self, capsys, monkeypatch, fmt):
        # z^3 added to cell (0, 1) of M: its series first differs at z^3
        original = hg.duality_matrix

        def perturbed(p):
            m = original(p)
            m[0][1] = rf_add(m[0][1], ratfunc(Polynomial([0, 0, 0, 1])))
            return m

        monkeypatch.setattr(hg, "duality_matrix", perturbed)
        code, out, _ = run(
            capsys, "verify", "--hg", "--a", "1/2,1/3", "--b", "1/5", "--format", fmt
        )
        assert code == EXIT_MISMATCH
        if fmt == "json":
            cells = {tuple(c["cell"]): c for c in json.loads(out)["results"]}
            assert cells[0, 1]["first_diff"] == 3
            assert all("first_diff" not in c for c in cells.values() if c["pass"])
        else:
            assert "  cell (0,1): FAIL\n    first difference at z^3\n" in out
            assert out.count("first difference") == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out == "hgdual %s, backend %s\n" % (hgdual.__version__, Q.__module__)
    assert Q.__module__ in ("fractions", "gmpy2")


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        args = (
            "verify", "--hg", "-r", "2", "--samples", "2", "--seed", "11",
            "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_different_seed_different_params(self, capsys):
        _, first, _ = run(
            capsys, "matrix", "--hg", "-r", "2", "--seed", "1", "--format", "json"
        )
        _, second, _ = run(
            capsys, "matrix", "--hg", "-r", "2", "--seed", "2", "--format", "json"
        )
        assert json.loads(first)["params"] != json.loads(second)["params"]

    def test_json_round_trip(self, capsys):
        _, out, _ = run(
            capsys,
            "matrix", "--hg", "-r", "2", "--samples", "2", "--seed", "3",
            "--format", "json",
        )
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def ratfunc_of_json(entry):
    num = Polynomial([rat(c) for c in entry["num"]])
    den = Polynomial([rat(c) for c in entry["den"]])
    return reduced(num, den)


class TestMatrix:
    def test_qshift_r3_middle_row(self, capsys):
        code, out, _ = run(
            capsys,
            "matrix", "--qhg", "-r", "3", "--q", "1/2",
            "--a", "1/3,1/7,2/3", "--b", "1/5,3/7", "--format", "json",
        )
        assert code == EXIT_PASS
        entries = json.loads(out)["entries"]
        assert ratfunc_of_json(entries[1][0]).is_zero
        assert ratfunc_of_json(entries[1][1]).is_zero
        expected = RationalFunction(Polynomial([1]), Polynomial([1, Q(-1, 2)]))
        assert ratfunc_of_json(entries[1][2]) == expected

    def test_check_flag_passes(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--hg", "--a", "1/2,1/3", "--b", "1/5", "--check"
        )
        assert code == EXIT_PASS
        assert "check inverse: pass" in out

    def test_psi_check_flag(self, capsys):
        for mode_args in (
            ("--hg",),
            ("--qhg", "--q", "1/2"),
        ):
            code, out, _ = run(
                capsys, "psi", *mode_args, "-r", "3", "--seed", "5", "--check"
            )
            assert code == EXIT_PASS
            assert "check det: pass" in out


FAMILY_ARGS = [(hg, ("--hg",)), (qhg, ("--qhg", "--q", "2/3"))]


class TestMatrixChecks:
    """psi --check and matrix --check take the fast paths, and a wrong
    matrix or a wrong closed form still fails them."""

    def test_psi_check_takes_no_rational_theta(self, capsys, monkeypatch):
        # Psi and det Psi are polynomials: the psi path builds no
        # RationalFunction, so it takes no rational theta either
        def refuse(self, *args):
            raise AssertionError("RationalFunction on the psi path")

        monkeypatch.setattr(RationalFunction, "__init__", refuse)
        code, out, _ = run(capsys, "psi", "--hg", "-r", "5", "--check")
        assert code == EXIT_PASS
        assert "check det: pass" in out

    @pytest.mark.parametrize("family, args", FAMILY_ARGS, ids=["theta", "q"])
    def test_wrong_closed_form_fails(self, capsys, monkeypatch, family, args):
        def lead_power(op):
            # A_r^(r-1): one factor short in theta, wrong in q
            acc = Polynomial.one()
            for _ in range(op.order - 1):
                acc = acc * op.coefficient(op.order)
            return acc

        monkeypatch.setattr(family, "psi_det", lead_power)
        code, out, _ = run(capsys, "psi", *args, "-r", "4", "--check")
        assert code == EXIT_MISMATCH
        assert "check det: FAIL" in out

    @pytest.mark.parametrize("args", [a for _, a in FAMILY_ARGS], ids=["theta", "q"])
    def test_perturbed_inverse_fails(self, capsys, monkeypatch, args):
        invert = hgdual.cli.matrix_invert

        def perturbed(mat):
            out = invert(mat)
            out[1][0] = rf_add(out[1][0], ratfunc(Polynomial([0, 1])))
            return out

        monkeypatch.setattr(hgdual.cli, "matrix_invert", perturbed)
        code, out, _ = run(capsys, "matrix", *args, "-r", "4", "--check")
        assert code == EXIT_MISMATCH
        assert "check inverse: FAIL" in out


class TestPaperRegression:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run(capsys, "paper-regression")
        assert code == EXIT_PASS
        assert "overall: pass" in out

    def test_json_results(self, capsys):
        code, out, _ = run(capsys, "paper-regression", "--format", "json")
        assert code == EXIT_PASS
        doc = json.loads(out)
        cases = {r["case"] for r in doc["results"]}
        assert cases == {"m-r2", "m-r3", "mq-r2", "mq-r3", "euler", "heine"}
        assert all(r["pass"] for r in doc["results"])
        for case in cases - {"euler", "heine"}:
            samples = {r["sample"] for r in doc["results"] if r["case"] == case}
            assert len(samples) >= 5


# sha256 of stdout, recorded before the theta and q families shared one
# code path; every report stays byte for byte the same.
PINNED_STDOUT = [
    ('dual --hg -r 3 --seed 1 --format text', 'fda49d01fc7fa795e62c8db0c7d7477c3b2b251c0d9388c2d2cf7770bd8d6408'),
    ('dual --hg -r 3 --seed 1 --format json', '462a6932d0f2f20e4b1ca509d79dbbfee1438b6f541bff3dfcd30ca28439b0f3'),
    ('psi --hg -r 3 --seed 1 --check --format text', 'ce39b79c6676c2f29dcf25b3e6a5f0dc8f89fdce8635edbb70edf1abb717c836'),
    ('psi --hg -r 3 --seed 1 --check --format json', 'cba9d00ff4fd45a51c1102bbcdaa0cbbfbd96ba07c18739b429e51f9fec24018'),
    ('matrix --hg -r 3 --seed 1 --check --format text', '43f1fe6e650013ca15c3d1f092d456c87c3a9327eb2e9e2088a6806f6f4881f1'),
    ('matrix --hg -r 3 --seed 1 --check --format json', 'a5325732ad6b014fff7ab55de0773114e106724e72f4630aa6858f9ebedf5a74'),
    ('verify --hg -r 3 --seed 1 --format text', '8448d86457bfde2a56f025cbb7744ba24771e9c06cc297b247662b573ade91b1'),
    ('verify --hg -r 3 --seed 1 --format json', '50b0634cb1e258a2bd4182641a0cf5abfa5b394e109ec2fe274c7768842dc81f'),
    ('dual --qhg --q 2/3 -r 3 --seed 1 --format text', 'b690ce97f1319a8d80a11c38a75111dc28674f871bb6c6bc8e7f2c1b3b537630'),
    ('dual --qhg --q 2/3 -r 3 --seed 1 --format json', '0056131ffdd11dca7bf87578eb4f8f6e1988f505e108de19a43a3b34071adebc'),
    ('psi --qhg --q 2/3 -r 3 --seed 1 --check --format text', 'ac8c747c6d47af57eb7050bb0e4a1f98186eb32457beda28ed7cf614ca1efe8c'),
    ('psi --qhg --q 2/3 -r 3 --seed 1 --check --format json', '35b7fbf138eb3902dc1dec794b857daa8d178647c01cba852157b401a3045a7d'),
    ('matrix --qhg --q 2/3 -r 3 --seed 1 --check --format text', '3b751d5bca20e07a6b07f3d6a1091d5f07c2682ea76ad324856041db1a696319'),
    ('matrix --qhg --q 2/3 -r 3 --seed 1 --check --format json', '49f73b8d0fdcca3cb04514488b1d5b0c51c4a65b97d2250eab4688e8b6f6d8ad'),
    ('verify --qhg --q 2/3 -r 3 --seed 1 --format text', '54c2f2887f996be711ad2eb8c55ea15fa36036a8c263613c359eb94a7e01ec22'),
    ('verify --qhg --q 2/3 -r 3 --seed 1 --format json', '965dccffbc87e02143d7fe6d8a3985bf9dc82e6629eb18f148432e3ce722f2e2'),
    ('paper-regression --format text', '9eaa8f52e04102b6fa32d7b0ee76d13739295b75b170e7066ac1575504dc9a26'),
    ('paper-regression --format json', '1b3a7f2df886b739eb11b6a7e54cce0147588e93f5aa3c51986cc37d346d87e6'),
    # recorded before operators, Psi and det Psi were built on polynomials:
    # the smallest and a large order, and the base 1/2
    ('dual --hg -r 2 --seed 2 --format json', '188586545daeb1e2a0ffe0319d22c73397ba517c5e652b2603fa4117069bf6c6'),
    ('psi --hg -r 2 --seed 2 --check --format json', '5351a87c2e561fe902136a3415739436a1db1f5f164eb77a53537e169dba328d'),
    ('matrix --hg -r 2 --seed 2 --check --format json', 'e6348e1738fbb60e79878270db06080aca7f5dc0e0688cfa17b43736ad224cf1'),
    ('dual --hg -r 7 --seed 2 --format json', 'b352e27d824c63c59ed5ec6abf65ab3999439da7de59bd321252bd44caf9bdf3'),
    ('psi --hg -r 7 --seed 2 --check --format json', '91cd74adc42a2e4313f266ffa63dc0397cab520dedc97e5ab41ce00e8b4a6696'),
    ('matrix --hg -r 7 --seed 2 --check --format json', '3e8cbd63ca0873d37cf687237dbd3a601f2c696621ca513218df1b1ab63ba27b'),
    ('dual --qhg --q 1/2 -r 2 --seed 2 --format json', '939e2f7fc9a66602127a3ad8c6544be4fdb505e023c2b5f4b9b6be6f6cfa5e08'),
    ('psi --qhg --q 1/2 -r 2 --seed 2 --check --format json', '27d27297a05217cc4d0365dca7030ff5e07bb03f993fc0354fe959d62cb32f82'),
    ('matrix --qhg --q 1/2 -r 2 --seed 2 --check --format json', '0beb6388bf06f442e2f6298aef04c3df5bd428a74c6f5c2cdef41d2be04611e4'),
    ('dual --qhg --q 1/2 -r 7 --seed 2 --format json', 'bc4d85853a7d69791c2d4b6122a87f3fe6d50d82ce8381fd4cc0cb1d4ee331c3'),
    ('psi --qhg --q 1/2 -r 7 --seed 2 --check --format json', '6cadf222dc6e912df1c379bc84b0a6351419ed7da64eac5f455598495401de3f'),
    ('matrix --qhg --q 1/2 -r 7 --seed 2 --check --format json', '0fd5006a0367af3b3f53cceeeb486d95443e05fbc972c74255d0c4288d20cc20'),
    # recorded while verify still checked M Psi = 1 on cleared polynomials:
    # the smallest order and r = 5, in all three families
    ('verify --hg -r 2 --seed 1 --format json', 'd88e1781b8d13c92ed809271915e6a3e9773d31327ef9ffd4afc303145ed9d6d'),
    ('verify --hg -r 5 --seed 1 --format json', '20e0afef554e57b22a67f23d37f571540692665889642c7e289bd77e753d9706'),
    ('verify --qhg --q 1/2 -r 2 --seed 1 --format json', 'c3ee4e1422754823b3920d6041a51c763723fddbde70b4afabfc1258a77c9306'),
    ('verify --qhg --q 1/2 -r 5 --seed 1 --format json', 'ef7248ccc763f7748768fd893610d4044f16ea495290205f420f5a4aa23d6fa1'),
    ('verify --qhg --q 2/3 -r 2 --seed 1 --format json', 'e531c0fc3054cfcacd796d25fc8aba9b5c19748358860bee67223ad8df11157c'),
    ('verify --qhg --q 2/3 -r 5 --seed 1 --format json', '101001165f170477aaeb86599a504054dd494b9109c8737b567a1aec3e6a31be'),
    # recorded while RationalFunction still reduced by Euclid over Q: the
    # tallest entries of M the command line accepts, and the one entry
    # that cancels, (1/6)/(z - 1)
    ('matrix --hg -r 12 --seed 1 --check --format json', '3881fb0e924d69ae4a0dd2d7eff6fde309bf274c69285b3a20706e20ca5b658d'),
    ('matrix --qhg --q 1/2 -r 12 --seed 1 --check --format json', 'a76a20f44172972052cd35754f1eb358b660757718e466559d9d4eb4790ba7fd'),
    ('matrix --qhg --q 2/3 -r 12 --seed 1 --check --format json', 'cffb588fbc99ec12d00833f3bbc5a22ef5119c6aa6bcc2568a5c07a6a0854860'),
    ('matrix --hg --a 1/2,1/3 --b 5/6 --check --format json', '389f11ea80cc3bd1eeac135144b198e0567d46c063db837168007e503ecc236e'),
    # recorded while the bilinear-sum kernel still took a scale denominator
    # apart from the weight: the shortest and the longest series that
    # paper-regression hands it
    ('paper-regression --order 16 --format json', 'b2af62c6f4143b78795b7fcc188a4f8e734016627a089d6cdd87658b28f54f59'),
    ('paper-regression --order 56 --format json', 'd2a78e5ac86b74edcbe75122bd14a5e295d7c2dfc1b33c15c4c133c18e89438f'),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_STDOUT, ids=[argv for argv, _ in PINNED_STDOUT]
)
def test_pinned_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# verify certifies the sums from the pairing and compares M with the first
# 2r+2 terms of the series of Psi^{-1} (the head). When a cell fails there
# it extends the same terms through z^N, with no second elimination, and
# when the certificate is refused it forms the sums in the kernel. All
# three paths print the same bytes, on passing samples and on a failing
# cell. paths records each elimination ("series"), the order N of each
# table read from it, and each kernel table.
@pytest.mark.parametrize(
    "family, args",
    [(hg, ("--hg",)), (qhg, ("--qhg", "--q", "1/2")), (qhg, ("--qhg", "--q", "2/3"))],
    ids=["theta", "q=1/2", "q=2/3"],
)
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_certified_and_kernel_paths_print_the_same_bytes(
    capsys, monkeypatch, family, args, r
):
    paths = []
    inverse_series = skew_operators.inverse_series

    def series_of_inverse(psi, moved_head=False):
        paths.append("series")
        through = inverse_series(psi)

        def table(n):
            paths.append(n)
            cells = through(n)
            if moved_head and n == 2 * r + 1:
                v, d = cells[0][0]
                cells[0][0] = ([v[0] + d, *v[1:]], d)
            return cells

        return table

    def refused_head(psi):
        # a head that matches no M sends a passing sample on to the series
        return series_of_inverse(psi, moved_head=True)

    def kernel_table(*a):
        paths.append("kernel")
        return bilinear_sum_table(*a)

    bilinear_sum_table = family.bilinear_sum_table
    monkeypatch.setattr(skew_operators, "inverse_series", series_of_inverse)
    monkeypatch.setattr(family, "bilinear_sum_table", kernel_table)

    def outputs(path, **patches):
        paths.clear()
        with monkeypatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(skew_operators, name, value)
            out = [
                run(capsys, "verify", *args, "-r", str(r), "--seed", "1", "--format", f)
                for f in ("text", "json")
            ]
        assert paths == path * 2
        return out

    def refused():
        return outputs(["kernel"], pairing_certifies=lambda *args: False)

    head, whole = 2 * r + 1, minimum_order(r)
    passing = outputs(["series", head])
    assert [code for code, _, _ in passing] == [EXIT_PASS] * 2
    assert outputs(["series", head, whole], inverse_series=refused_head) == passing
    assert refused() == passing
    # every cell but (0, 0) passes
    monkeypatch.setattr(family, "structure_ok", lambda p, k, l, e: (k, l) != (0, 0))
    failing = outputs(["series", head, whole])
    assert [code for code, _, _ in failing] == [EXIT_MISMATCH] * 2
    assert refused() == failing


# Every series product a command forms runs in the integer kernel
# (exact_algebra.bilinear_combinations); the Fraction product of
# TruncatedSeries is the tests' direct definition only.
KERNEL_ONLY = (
    "paper-regression --format text",
    "paper-regression --format json",
    "verify --hg -r 3 --seed 1 --format text",
    "verify --qhg --q 2/3 -r 3 --seed 1 --format text",
)


@pytest.mark.parametrize("argv", KERNEL_ONLY)
def test_commands_multiply_no_truncated_series(capsys, monkeypatch, argv):
    def refuse(self, other):
        raise AssertionError("TruncatedSeries product on a command path")

    # TruncatedSeries has no product; this keeps one added later off these paths
    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse, raising=False)
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == dict(PINNED_STDOUT)[argv]


# The names skew_operators.verify_duality and the command line read from a
# family module.
FAMILY_SURFACE = (
    "Params",
    "operator",
    "dual_operator",
    "dual_unit",
    "argument_rescale",
    "psi",
    "psi_det",
    "sample_params",
    "solution_basis",
    "c_constants",
    "duality_matrix",
    "bilinear_sum_table",
    "structure_ok",
    "verify",
)


@pytest.mark.parametrize("family", [hg, qhg], ids=["theta", "q"])
@pytest.mark.parametrize("name", FAMILY_SURFACE)
def test_family_surface(family, name):
    assert callable(getattr(family, name))
