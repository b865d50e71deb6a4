"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import degamma  # noqa: E402
import degamma.cli  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs(name, seed, tmp_path):
    return workloads.make(name, degamma, tmp_path).inputs(seed)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = repr(_inputs(name, 7, tmp_path))
    assert repr(_inputs(name, 7, tmp_path)) == first
    assert repr(_inputs(name, 8, tmp_path)) != first


def test_point_eval_pool_has_the_documented_region_shares(tmp_path):
    items = _inputs("point-eval", 3, tmp_path)
    assert len(items) == workloads.POINT_POOL
    for region, share, _ in workloads.POINT_REGIONS:
        count = sum(call.region == region for call in items)
        assert count == round(share * workloads.POINT_POOL)


def test_exact_counts_sum_and_proportions():
    assert workloads.exact_counts(10, [0.5, 0.3, 0.2]) == [5, 3, 2]
    assert workloads.exact_counts(7, [0.6, 0.3, 0.1]) == [4, 2, 1]
    assert sum(workloads.exact_counts(157, [0.4, 0.3, 0.15, 0.15])) == 157


def test_raw_value_error_on_nan_is_a_failure_domain_error_is_not():
    nan = complex(math.nan, 0.0)
    p = degamma.DegenerateParameter(0.3)
    try:
        outcome = degamma.degenerate_gamma(nan, p)
    except Exception as exc:  # the library raises here today
        outcome = exc
    assert workloads.is_failure(degamma, ValueError("NaN"), "DomainError")
    assert workloads.is_failure(degamma, OverflowError("inf"), "DomainError")
    assert not workloads.is_failure(degamma, degamma.DomainError("NaN"), "DomainError")
    # whichever it is today, the live outcome is classified consistently
    expected = not isinstance(outcome, degamma.DomainError)
    assert workloads.is_failure(degamma, outcome, "DomainError") == expected


def test_failure_rules_for_results():
    p = degamma.DegenerateParameter(0.3)
    assert not workloads.is_failure(degamma, degamma.degenerate_gamma(0.5, p), None)
    # a pole result is flagged, so its NaN value is not a failure
    assert not workloads.is_failure(degamma, degamma.degenerate_gamma(-1.0, p), None)
    nan_regular = degamma.EvalResult(
        value=complex(math.nan, math.nan), abs_error_estimate=math.nan,
        method=degamma.EvalMethod.CLOSED_FORM, status=degamma.EvalStatus.REGULAR,
    )
    assert workloads.is_failure(degamma, nan_regular, None)
    # an undocumented library error is a failure; a documented one is not
    assert workloads.is_failure(degamma, degamma.PoleError("x"), None)
    assert not workloads.is_failure(degamma, degamma.PoleError("x"), "PoleError")


def test_self_time_on_a_synthetic_span_tree():
    t = tracing.Tracer()
    root = t.add_span("cli.main", 0.0, 10.0)
    a = t.add_span("core.degenerate_gamma", 1.0, 4.0, parent=root)
    t.add_span("classical.log_gamma", 1.5, 2.0, parent=a)
    t.add_span("classical.log_gamma", 2.5, 3.5, parent=a)
    b = t.add_span("core.degenerate_gamma", 5.0, 9.0, parent=root, error=True)
    t.add_span("classical.log_gamma", 6.0, 7.0, parent=b)
    assert tracing.self_times(t).tolist() == [3.0, 1.5, 0.5, 1.0, 3.0, 1.0]
    m = tracing.layer_metrics(t, ops=2, rows=4)
    assert m["classical.log_gamma.calls_per_op"] == 1.5
    assert m["classical.log_gamma.self_us"] == pytest.approx(2.5e6 / 3)
    assert m["core.degenerate_gamma.self_us"] == pytest.approx(2.25e6)
    assert m["classical.self_share"] == pytest.approx(0.25)
    assert m["core.self_share"] == pytest.approx(0.45)
    assert m["cli.self_share"] == pytest.approx(0.30)
    assert m["cli.self_us_per_row"] == pytest.approx(0.75e6)
    assert m["core.errors_per_op"] == 0.5


def test_tracer_wraps_module_attributes_and_restores_them():
    original = degamma.core.degenerate_gamma
    t = tracing.Tracer()
    t.install(degamma)
    try:
        degamma.core.degenerate_gamma(0.5 + 1j, degamma.DegenerateParameter(0.3))
    finally:
        t.uninstall()
    assert degamma.core.degenerate_gamma is original
    names = [t.names[i] for i in t.name_id]
    # core calls nearest_pole by its bare name and log_gamma through classical
    assert names[0] == "core.degenerate_gamma"
    assert "core.nearest_pole" in names
    assert names.count("classical.log_gamma") == 3
    assert all(t.parent[i] >= 0 for i in range(1, len(names)))


def test_tracer_counts_product_terms_and_quadrature_nodes():
    t = tracing.Tracer()
    t.install(degamma)
    try:
        p = degamma.DegenerateParameter(0.5)
        degamma.representations.sine_product(0.3, 1000)
        degamma.representations.weierstrass_gamma(
            0.4, p, degamma.representations.ProductSpec(n_terms=2000))
        degamma.representations.euler_limit_gamma(0.4, p)
        degamma.quadrature.direct_integral_gamma(0.5, p)
    finally:
        t.uninstall()
    assert t.product_terms == 1000 + 2000 + degamma.ProductSpec().n_terms
    assert t.quadrature_nodes > 0


def test_deterministic_metrics_repeat_exactly(tmp_path, monkeypatch):
    """failed_ratio, bad_estimate_ratio, digits_median and the per-op counts."""
    monkeypatch.setattr(workloads, "POINT_POOL", 200)
    wl = workloads.make("point-eval", degamma, tmp_path)
    items = wl.inputs(5)
    refs = oracle.references([c.ref for c in items], tmp_path, "pe", run.SRC)
    first, _ = wl.check(items, refs)
    second, _ = wl.check(items, refs)
    assert first.quality == second.quality

    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install(degamma)
        try:
            stats = workloads.PassStats()
            wl.run_pass(items, stats, [None] * len(items), t)
        finally:
            t.uninstall()
        m = tracing.layer_metrics(t, stats.ops, stats.rows)
        counts.append(({k: v for k, v in m.items() if k.endswith("_per_op")},
                       stats.failed / stats.ops))
    assert counts[0] == counts[1]


def test_scaling_divides_out_the_host_speed():
    """The same work measured on a host at half, equal and twice the
    reference speed scales to one figure."""
    ref = hostspeed.REFERENCE_SPEED
    stats = workloads.PassStats()
    for factor in (0.5, 1.0, 2.0):
        stats.pass_rates.append(1000.0 * factor)
        stats.pass_p50_s.append(1e-3 / factor)
        stats.pass_speed.append(ref * factor)
    out = run.scaled(stats)
    assert out["ops_per_s"] == pytest.approx(1000.0)
    assert out["op_p50_us"] == pytest.approx(1000.0)
    assert "op_p99_us" not in out
    assert hostspeed.normalise(0.2, ref / 2) == pytest.approx(0.1)


def test_table_rows_round_trip(tmp_path):
    wl = workloads.make("table-sweep", degamma, tmp_path)
    items = wl.inputs(2)[:2]
    check, _ = wl.check(items, None)
    assert check.quality["check_failed_ratio"] == 0.0
