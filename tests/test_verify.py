"""Identity verifiers: pass cases at moderate bounds, fault-injection
sensitivity (corrupt inputs must yield failing reports with witnesses),
and the regression pinning the third-sum factorial-weight discrepancy."""

from fractions import Fraction

import pytest

from degenbern import (
    CoeffTable,
    EvaluatedDomain,
    HigherOrderContext,
    LambdaPoly,
    SYMBOLIC,
    coeff_triangle,
    verify_all,
    verify_classical_derivative,
    verify_convolution,
    verify_higher_order,
    verify_ode,
    verify_route_agreement_a,
    verify_route_agreement_b,
    verify_route_agreement_bell,
    verify_route_agreement_stirling,
    verify_singular,
    verify_stirling_limit,
)
from degenbern import bernoulli
from degenbern import verify as verify_module


def corrupted_triangle(n_max, domain, i, N, delta=1):
    base = coeff_triangle(n_max, domain)
    rows = [list(r) for r in base.rows]
    rows[N][i] = rows[N][i] + delta
    return CoeffTable(domain=domain, rows=tuple(tuple(r) for r in rows))


def test_ode_passes_and_reports_window():
    r = verify_ode(3, 14)
    assert r.verdict
    assert r.identity == "ode_family"
    assert r.parameters == {"N": 3, "order": 14, "lambda": "sym"}
    assert r.compared["exponent_low"] == -4
    assert r.compared["exponent_high"] > 0
    assert r.witness is None


def test_ode_passes_evaluated_domain():
    dom = EvaluatedDomain(Fraction(2, 3))
    for N in (1, 2, 4):
        assert verify_ode(N, 12, dom).verdict


def test_ode_fault_injection():
    bad = corrupted_triangle(2, SYMBOLIC, 1, 2)
    r = verify_ode(2, 10, SYMBOLIC, bad)
    assert not r.verdict
    assert r.witness is not None
    assert "exponent" in r.witness
    assert r.witness["lhs"] != r.witness["rhs"]


def test_ode_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_ode(0, 10)
    with pytest.raises(ValueError):
        verify_ode(2, 1)


def test_convolution_passes():
    for n in range(1, 9):
        r = verify_convolution(n)
        assert r.verdict
        assert r.identity == "cor_3_4"
        assert r.compared == {"j_low": 1, "j_high": n}


def test_convolution_fault_injection():
    bad = corrupted_triangle(5, SYMBOLIC, 2, 4)
    r = verify_convolution(5, SYMBOLIC, bad)
    assert not r.verdict
    assert r.witness["j"] >= 1
    assert r.witness["lhs"] != r.witness["rhs"]


@pytest.mark.parametrize("n", range(2, 7))
def test_convolution_window(n):
    seen = [(i, n) for i in range(1, n)] + [(i, n - 1) for i in range(n)]
    for i, N in seen:
        bad = corrupted_triangle(n, SYMBOLIC, i, N)
        assert not verify_convolution(n, SYMBOLIC, bad).verdict
    # the documented blind spot: (0, n) cancels and (n, n) is never read
    for i in (0, n):
        blind = corrupted_triangle(n, SYMBOLIC, i, n)
        assert verify_convolution(n, SYMBOLIC, blind).verdict


def test_classical_derivative_passes():
    for N in range(1, 7):
        assert verify_classical_derivative(N, 14, "eq41").verdict
        assert verify_classical_derivative(N, 14, "eq42").verdict
    r = verify_classical_derivative(2, 14, "eq41")
    assert r.identity == "eq_41"
    assert r.parameters["lambda"] == "0"


def test_classical_derivative_rejects_unknown():
    with pytest.raises(ValueError):
        verify_classical_derivative(2, 10, "eq99")


def test_higher_order_reconstruction_grid():
    ctx = HigherOrderContext(SYMBOLIC, 4, 9)
    for N in range(1, 5):
        for j in range(6):
            r = verify_higher_order(j, N, SYMBOLIC, ctx)
            assert r.verdict, (j, N)
            assert r.details["third_sum_weight"] == "j!/(l+i)!"


def test_printed_weight_variant_regression():
    # the printed statement's third-sum weight only coincides at two
    # small grid points; (j, N) = (1, 1) is the first counterexample
    ctx = HigherOrderContext(SYMBOLIC, 2, 6)
    assert verify_higher_order(0, 1, SYMBOLIC, ctx).details[
        "printed_weight_variant_matches"
    ]
    assert verify_higher_order(0, 2, SYMBOLIC, ctx).details[
        "printed_weight_variant_matches"
    ]
    for j, N in ((1, 1), (2, 1), (1, 2), (3, 2)):
        r = verify_higher_order(j, N, SYMBOLIC, ctx)
        assert r.verdict
        assert not r.details["printed_weight_variant_matches"], (j, N)


def test_higher_order_fault_injection():
    ctx = HigherOrderContext(SYMBOLIC, 2, 5)
    row = list(ctx._rows[2])
    row[3] = row[3] + 1
    ctx._rows[2] = tuple(row)
    r = verify_higher_order(2, 2, SYMBOLIC, ctx)
    assert not r.verdict
    assert r.witness["index"] == 4


def test_higher_order_context_validation():
    ctx = HigherOrderContext(SYMBOLIC, 2, 4)
    with pytest.raises(ValueError):
        verify_higher_order(5, 2, SYMBOLIC, ctx)
    with pytest.raises(ValueError):
        verify_higher_order(1, 1, EvaluatedDomain(Fraction(1, 2)), ctx)
    with pytest.raises(ValueError):
        verify_higher_order(-1, 1)
    with pytest.raises(ValueError):
        HigherOrderContext(SYMBOLIC, 3, 4, coeffs=coeff_triangle(2, SYMBOLIC))
    with pytest.raises(ValueError):
        HigherOrderContext(SYMBOLIC, 2, 4, coeffs=coeff_triangle(2, EvaluatedDomain(2)))
    shared = coeff_triangle(3, SYMBOLIC)
    assert HigherOrderContext(SYMBOLIC, 2, 4, coeffs=shared).coeffs is shared


def test_route_reports_take_a_given_triangle():
    dom = EvaluatedDomain(Fraction(-2, 3))
    with pytest.raises(ValueError):
        verify_route_agreement_a(3, dom, coeffs=coeff_triangle(2, dom))
    with pytest.raises(ValueError):
        verify_stirling_limit(3, coeffs=coeff_triangle(2, SYMBOLIC))
    with pytest.raises(ValueError):
        verify_route_agreement_a(3, dom, coeffs=coeff_triangle(3, SYMBOLIC))
    with pytest.raises(ValueError):
        verify_stirling_limit(3, coeffs=coeff_triangle(3, dom))
    assert verify_route_agreement_a(3, dom, coeffs=coeff_triangle(5, dom)).verdict
    assert verify_stirling_limit(3, coeffs=coeff_triangle(5, SYMBOLIC)).verdict
    # the given table is the reference: a corrupted entry fails the report
    for domain, report in (
        (dom, lambda t: verify_route_agreement_a(3, dom, coeffs=t)),
        (SYMBOLIC, lambda t: verify_stirling_limit(3, coeffs=t)),
    ):
        rows = [list(row) for row in coeff_triangle(3, domain).rows]
        rows[2][1] = rows[2][1] + 1
        bad = CoeffTable(domain, tuple(tuple(row) for row in rows))
        assert not report(bad).verdict


def test_singular_part_vanishes():
    ctx = HigherOrderContext(SYMBOLIC, 5, 4)
    for N in range(2, 6):
        for j in range(-(N - 1), 0):
            r = verify_singular(j, N, SYMBOLIC, ctx)
            assert r.verdict, (j, N)
            assert r.identity == "cor_4_2"


def test_singular_band_validation():
    with pytest.raises(ValueError):
        verify_singular(0, 2)
    with pytest.raises(ValueError):
        verify_singular(-2, 2)
    with pytest.raises(ValueError):
        verify_singular(-1, 1)


def test_singular_fault_injection():
    # b^(2)_1 enters the (j, N) = (-1, 2) cancellation exactly once
    ctx = HigherOrderContext(SYMBOLIC, 3, 2)
    row = list(ctx._rows[2])
    row[1] = row[1] + LambdaPoly((0, 1))
    ctx._rows[2] = tuple(row)
    r = verify_singular(-1, 2, SYMBOLIC, ctx)
    assert not r.verdict
    assert r.witness["value"] != ["0"]


def test_route_agreement_suites_pass():
    assert verify_route_agreement_a(6).verdict
    assert verify_route_agreement_b(8).verdict
    assert verify_route_agreement_bell(7).verdict
    assert verify_route_agreement_stirling(7).verdict
    assert verify_stirling_limit(8).verdict


def test_route_agreement_at_lambda_zero_skips_falling():
    dom = EvaluatedDomain(Fraction(0))
    r = verify_route_agreement_a(5, dom)
    assert r.verdict
    assert r.details == {"skipped_routes": ["falling"]}


def test_route_agreement_fault_injection(monkeypatch):
    real = bernoulli.row_via_multinomial

    def tampered(n_max, domain):
        row = real(n_max, domain)
        values = list(row.values)
        values[4] = values[4] + 1
        return bernoulli.BernoulliRow(domain, 1, "multinomial", tuple(values))

    monkeypatch.setattr(bernoulli, "row_via_multinomial", tampered)
    r = verify_route_agreement_b(6)
    assert not r.verdict
    assert r.witness["route"] == "multinomial"
    assert r.witness["n"] == 4


def test_verify_all_small():
    reports = verify_all(N_max=3, n_max=4, order=12, max_j=2)
    assert all(r.verdict for r in reports)
    idents = [r.identity for r in reports]
    assert idents.count("ode_family") == 3
    assert idents.count("cor_3_4") == 4
    assert idents.count("eq_41") == 3
    assert idents.count("eq_42") == 4
    assert idents.count("thm_4_1") == 9
    assert idents.count("cor_4_2") == 1 + 2
    for token in ("a_routes", "b_routes", "bell_routes", "stirling_routes", "stirling_limit"):
        assert idents.count(token) == 1
    # deterministic ordering: families appear as contiguous blocks
    assert idents == sorted(idents, key=idents.index)


def test_verify_all_shares_the_suite_triangle_with_the_context(monkeypatch):
    real = verify_module.coeff_triangle
    calls = []

    def logged(n_max, domain):
        calls.append(n_max)
        return real(n_max, domain)

    monkeypatch.setattr(verify_module, "coeff_triangle", logged)
    reports = verify_all(4, 4, order=14, max_j=2)
    assert all(r.verdict for r in reports)
    # one triangle for the ode/cor34 suites, the reconstruction context,
    # the a-route agreement and the (symbolic) Stirling limit
    assert calls == [4]


def test_report_json_shape():
    r = verify_ode(2, 10)
    d = r.to_json_dict()
    assert list(d.keys()) == [
        "identity",
        "parameters",
        "verdict",
        "compared",
        "witness",
        "details",
    ]
    assert d["verdict"] == "pass"
    bad = verify_ode(2, 10, SYMBOLIC, corrupted_triangle(2, SYMBOLIC, 0, 2))
    d2 = bad.to_json_dict()
    assert d2["verdict"] == "fail"
    assert isinstance(d2["witness"]["exponent"], int)
