"""The hgdual functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layer names are the package's module names.  ``calls``, ``coeff_ops``,
``max_bits``, ``failed`` and ``report_bytes`` are exact counts for a given
workload and seed; ``self_s`` and the ``trace.*`` figures are timings.
"""

from tracer import Target, summarize


def bits(x):
    """Bit length of a rational: the larger of numerator and denominator."""
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


def max_bits(values):
    return max((bits(v) for v in values), default=0)


def _series_mul(args, result):
    # ``series * scalar`` also lands in __mul__; only series products count
    if len(args) < 2 or type(args[1]) is not type(args[0]):
        return None
    n = len(result.coeffs) - 1
    return {"coeff_ops": (n + 1) * (n + 2) // 2}, {"max_bits": max_bits(result.coeffs)}


def _series_bits(args, result):
    return None, {"max_bits": max_bits(result.coeffs)}


def _basis_bits(args, result):
    return None, {"max_bits": max(max_bits(e.body.coeffs) for e in result.entries)}


EA, SK = "hgdual.exact_algebra", "hgdual.skew_operators"
HG, QHG = "hgdual.hypergeometric", "hgdual.q_hypergeometric"

TARGETS = (
    Target("cli", "hgdual.cli", ("main",)),
    Target("exact_algebra.series_mul", EA, ("TruncatedSeries.__mul__",), _series_mul),
    Target("exact_algebra.series_invert", EA, ("series_invert",)),
    Target("exact_algebra.series_of_ratfunc", EA, ("series_of_ratfunc",), _series_bits),
    Target("exact_algebra.rational_reconstruct", EA, ("rational_reconstruct",)),
    Target("exact_algebra.poly_gcd", EA, ("poly_gcd",)),
    Target("skew_operators.psi", SK, ("psi_matrix", "psi_q_matrix")),
    Target("skew_operators.matrix_invert", SK, ("matrix_invert",)),
    Target("skew_operators.matrix_det", SK, ("matrix_det",)),
    Target("skew_operators.matrix_mul", SK, ("matrix_mul",)),
    Target("skew_operators.dual_operator", SK, ("dual_operator", "q_dual_operator")),
    Target("skew_operators.advance", SK, ("TaggedSeries.advance",)),
    Target("skew_operators.pair_product", SK, ("TaggedSeries.pair_product",)),
    Target("hypergeometric.basis", HG, ("solution_basis",), _basis_bits),
    Target("hypergeometric.bilinear_sum", HG, ("bilinear_sum",)),
    Target("hypergeometric.verify", HG, ("verify_theorem1", "verify_euler_identity")),
    Target("q_hypergeometric.basis", QHG, ("q_solution_basis",), _basis_bits),
    Target("q_hypergeometric.bilinear_sum", QHG, ("q_bilinear_sum",)),
    Target("q_hypergeometric.verify", QHG, ("verify_theorem2", "verify_heine_identity")),
)

RECONSTRUCT = "exact_algebra.rational_reconstruct"
CERTIFY = "exact_algebra.series_of_ratfunc"

# Extra per-layer figures beyond ``<span>.calls`` and ``<span>.self_s``.
EXTRA = (
    ("exact_algebra.series_mul.coeff_ops", "count"),
    ("exact_algebra.series_mul.max_bits", "bits"),
    (RECONSTRUCT + ".failed", "count"),
    (RECONSTRUCT + ".certify_ratio", "ratio"),
    ("hypergeometric.basis.max_bits", "bits"),
    ("q_hypergeometric.basis.max_bits", "bits"),
    ("cli.report_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for target in TARGETS:
        if target.name != "cli":
            out[target.name + ".calls"] = "count"
        out[target.name + ".self_s"] = "s"
    out.update(EXTRA)
    return out


def per_layer(tracer, report_bytes, traced_wall, untraced_wall):
    """Per-layer metric values from one traced pass."""
    calls, self_s = summarize(tracer.spans)
    values = {}
    for target in TARGETS:
        values[target.name + ".calls"] = calls.get(target.name, 0)
        values[target.name + ".self_s"] = self_s.get(target.name, 0.0)
    coeff_ops = "exact_algebra.series_mul.coeff_ops"
    values[coeff_ops] = tracer.counts.get(coeff_ops, 0)
    for name in (
        "exact_algebra.series_mul.max_bits",
        "hypergeometric.basis.max_bits",
        "q_hypergeometric.basis.max_bits",
    ):
        values[name] = tracer.maxima.get(name, 0)
    failed = tracer.counts.get(RECONSTRUCT + ".raised", 0)
    reconstruct_ids = {s[0] for s in tracer.spans if s[1] == RECONSTRUCT}
    certified = sum(
        1 for s in tracer.spans if s[1] == CERTIFY and s[4] in reconstruct_ids
    )
    values[RECONSTRUCT + ".failed"] = failed
    returned = calls.get(RECONSTRUCT, 0) - failed
    values[RECONSTRUCT + ".certify_ratio"] = returned / certified if certified else 0.0
    values["cli.report_bytes"] = report_bytes
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    units = metric_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
