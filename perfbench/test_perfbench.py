"""Tests of the benchmark's own machinery: tracer, input generation, output
checks, failure accounting and the sympy oracle.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hgdual.cli  # noqa: E402
import hgdual.exact_algebra  # noqa: E402
import hgdual.hypergeometric  # noqa: E402
import hgdual.q_hypergeometric  # noqa: E402
import hgdual.skew_operators  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer, find_wrappers, self_times, summarize  # noqa: E402

SMALL_VERIFY = ["verify", "--hg", "--a", "1/2,1/3", "--b", "1/5", "--order", "16"]


def _quiet_main(argv):
    with open(os.devnull, "w") as sink:
        old, sys.stdout = sys.stdout, sink
        try:
            return hgdual.cli.main(argv)
        finally:
            sys.stdout = old


def test_self_time_on_synthetic_span_tree():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap counts once
        (3, "leaf", 2.0, 3.0, 1, 0),
        (4, "late", 9.0, 12.0, 0, 0),  # ends after its parent: clipped
        (5, "a", 20.0, 21.0, None, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 5 - 1)
    assert selfs[1] == pytest.approx(2)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(3)
    calls, self_s = summarize(spans)
    assert calls == {"root": 1, "a": 2, "b": 1, "leaf": 1, "late": 1}
    assert self_s["a"] == pytest.approx(3)


def test_removed_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(hgdual.hypergeometric, "bilinear_sum")
    extra = (
        Target("gone", "hgdual.no_such_module", ("f",)),
        Target("gone", "hgdual.exact_algebra", ("NoSuchClass.method",)),
    )
    with Tracer(layers.TARGETS + extra, "hgdual") as tracer:
        assert _quiet_main(["dual", "--hg", "--a", "1/2,1/3", "--b", "1/5"]) == 0
    assert tracer.absent == [
        "hgdual.hypergeometric.bilinear_sum",
        "hgdual.no_such_module.f",
        "hgdual.exact_algebra.NoSuchClass.method",
    ]
    assert summarize(tracer.spans)[0]["skew_operators.dual_operator"] == 1
    assert find_wrappers("hgdual") == []


def test_every_binding_is_wrapped_then_restored():
    originals = {
        "sk": hgdual.skew_operators.matrix_invert,
        "hg": hgdual.hypergeometric.matrix_invert,
        "mul": hgdual.exact_algebra.TruncatedSeries.__dict__["__mul__"],
        "main": hgdual.cli.main,
    }
    with Tracer(layers.TARGETS, "hgdual") as tracer:
        assert hgdual.hypergeometric.matrix_invert is hgdual.skew_operators.matrix_invert
        assert hgdual.hypergeometric.matrix_invert is not originals["hg"]
        assert hgdual.q_hypergeometric.matrix_invert is not originals["hg"]
        assert find_wrappers("hgdual")
        tracer.invocation = 7
        assert _quiet_main(SMALL_VERIFY) == 0
    assert find_wrappers("hgdual") == []
    assert hgdual.skew_operators.matrix_invert is originals["sk"]
    assert hgdual.hypergeometric.matrix_invert is originals["hg"]
    assert hgdual.exact_algebra.TruncatedSeries.__dict__["__mul__"] is originals["mul"]
    assert hgdual.cli.main is originals["main"]
    calls, _ = summarize(tracer.spans)
    assert calls["skew_operators.pair_product"] == 2**3
    assert calls["skew_operators.matrix_invert"] == 1
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["cli"]
    assert {s[5] for s in tracer.spans} == {7}
    ids = {s[0] for s in tracer.spans}
    assert all(s[4] in ids for s in tracer.spans if s[4] is not None)


def test_exact_counts_repeat():
    seen = []
    for _ in range(2):
        with Tracer(layers.TARGETS, "hgdual") as tracer:
            _quiet_main(SMALL_VERIFY)
        metrics = layers.per_layer(tracer, 0, 1.0, 1.0)
        seen.append(
            {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bits")}
        )
    assert seen[0] == seen[1]
    assert seen[0]["exact_algebra.series_mul.coeff_ops"] > 0


def test_inputs_are_seeded_and_generic():
    for name in workloads.WORKLOADS:
        assert workloads.build_pass(name, 3, 1) == workloads.build_pass(name, 3, 1)
        assert workloads.build_pass(name, 3, 1) != workloads.build_pass(name, 4, 1)
    for index in range(8):
        for inv in workloads.build_pass("symbolic", 5, index):
            if not inv.a:
                continue
            a, b = inv.a.split(","), inv.b.split(",")
            if inv.family[0] == "--hg":
                hgdual.hypergeometric.HGParams.make(a, b)
            else:
                hgdual.q_hypergeometric.QHGParams.make(inv.family[2], a, b)


def test_verdict_parsing_flags_failures():
    inv = workloads.Invocation("verify", ("--qhg", "--q", "1/2"), "1/3,1/7", "1/5", 2, fmt="text")
    cells = ["  cell (%d,%d): pass" % (k, l) for k in range(2) for l in range(2)]
    good = "\n".join(["sample 0: x"] + cells + ["overall: pass"])
    assert workloads.verdicts(inv, good) == ([True] * 4, None)
    found, problem = workloads.verdicts(inv, good.replace("(1,1): pass", "(1,1): FAIL"))
    assert found == [True, True, True, False]
    assert workloads.verdicts(inv, "\n".join(cells[:3]))[1] is not None
    check = workloads.Invocation("matrix", ("--hg",), "1/2,1/3", "1/5", 2, ("--check",))
    assert workloads.verdicts(check, "not json")[1] == "output is not JSON"


class _BrokenCli:
    """Stands in for hgdual.cli: raises, exits or fails on chosen commands."""

    @staticmethod
    def main(argv):
        if argv[0] == "dual":
            raise RuntimeError("boom")
        if argv[0] == "psi":
            raise SystemExit(2)
        print(json.dumps({"check": False, "entries": [[0, 0], [0, 0]]}))
        return 1


def test_failures_are_counted_and_the_run_continues():
    watchdog = run.Watchdog(60)
    try:
        invocations = [
            workloads.Invocation(c, ("--hg",), "1/2,1/3", "1/5", 2, o)
            for c, o in (("dual", ()), ("psi", ("--check",)), ("matrix", ("--check",)))
        ]
        results, _ = run.run_pass(_BrokenCli, invocations, watchdog)
    finally:
        watchdog.cancel()
    assert [r[0] for r in results] == ["raised", 2, 1]
    assert "boom" in results[0][2]
    tally = run.Tally()
    for inv, result in zip(invocations, results):
        tally.invocation(inv, result)
    assert tally.failed == 4  # three exit codes and one FAIL verdict
    assert tally.attempted == 4


def test_oracle_accepts_the_inverse_and_rejects_a_changed_entry():
    import oracle

    args = ["--hg", "--a", "1/2,1/3,3/7", "--b", "1/5,5/3", "--format", "json"]
    docs = {}
    for command in ("psi", "matrix"):
        watchdog = run.Watchdog(60)
        try:
            code, stdout, _, _ = run.invoke(hgdual.cli, [command] + args, watchdog)
        finally:
            watchdog.cancel()
        assert code == 0
        docs[command] = json.loads(stdout)
    assert oracle.inverse_matches(docs["psi"], docs["matrix"])
    docs["matrix"]["entries"][2][2]["num"][0] += "1"
    assert not oracle.inverse_matches(docs["psi"], docs["matrix"])


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()
    values = run.end_to_end(0.1, [1.0], [(2, 0.5), (3, 0.5)], 4, 20.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in values.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
