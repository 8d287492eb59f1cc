"""Tests for the parameter types and the demand/supply/payoff curves."""

import dataclasses

import numpy as np
import pytest

from tsm.core import (
    DomainError,
    MarketParams,
    ParamTable,
    check_domain,
    check_feasibility,
    cloud_payoff,
    consumer_demand_primitive,
    demand_reduced,
    derive_coefficients,
    provider_payoff,
    supply_primitive,
    supply_reduced,
)
from tsm.equilibrium import _share_equation_columns


def make_params(**kw):
    base = dict(alpha=0.38, beta=1.5, gamma=0.2, psi=0.05, phi=1.5, k1=0.5, f_c=1.122)
    base.update(kw)
    return MarketParams(**base)


def sample_params(rng, n):
    out = []
    while len(out) < n:
        alpha = rng.uniform(0.1, 0.7)
        beta = rng.uniform(1e-6, 1.0) / alpha
        if alpha * beta > 0.998:
            continue
        out.append(MarketParams(
            alpha=alpha, beta=beta, gamma=rng.uniform(0.0, 0.35),
            psi=rng.uniform(0.0, 0.35), phi=rng.uniform(0.0, 5.0),
            k1=rng.uniform(0.1, 0.9), f_c=rng.uniform(0.1, 2.2),
        ))
    return out


class TestValidation:
    def test_accepts_table_range_values(self):
        make_params()

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.2),
        ("beta", 0.0), ("beta", -1.0),
        ("gamma", -0.01), ("psi", -0.01), ("phi", -0.5),
        ("k1", 0.0), ("k2", 0.0), ("f_c", -0.1), ("f_s", -0.1), ("p_s", 0.0),
        ("k1", float("nan")), ("beta", float("inf")), ("gamma", float("inf")),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(DomainError) as scalar:
            make_params(**{field: value})
        # a table breaking the rule in one row fails with the same message
        good = dataclasses.asdict(make_params())
        with pytest.raises(DomainError) as column:
            check_domain(ParamTable.from_columns(
                **{**good, field: [good[field], value, good[field]]}))
        assert str(column.value) == str(scalar.value)

    def test_rejects_externality_product_near_one(self):
        with pytest.raises(DomainError):
            make_params(alpha=0.5, beta=1.999)
        with pytest.raises(DomainError):
            check_domain(ParamTable.from_columns(
                **{**dataclasses.asdict(make_params()), "alpha": 0.5,
                   "beta": [1.99, 1.999]}))
        # just inside the cap is fine
        make_params(alpha=0.5, beta=1.99)
        check_domain(ParamTable.from_params([make_params(alpha=0.5, beta=1.99)] * 2))


class TestCoefficients:
    def test_direct_substitution(self):
        c = derive_coefficients(make_params(alpha=0.5, beta=1.0, gamma=0.3,
                                            psi=0.1, phi=2.0))
        assert c.a1 == pytest.approx(0.25, abs=1e-15)
        assert c.a2 == pytest.approx(0.5, abs=1e-15)
        assert c.a3 == pytest.approx(-0.2, abs=1e-15)
        assert c.a4 == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_externality_limit(self):
        # beta -> 0 collapses a2 to 1
        c = derive_coefficients(make_params(beta=1e-300))
        assert c.a2 == 1.0

    def test_hand_calculator_oracle(self):
        # frozen from a 50-digit independent evaluation
        p = make_params(alpha=0.38, beta=1.5, gamma=0.2, psi=0.05, phi=1.5)
        c = derive_coefficients(p)
        assert c.a1 == pytest.approx(0.181, rel=1e-14)
        assert c.a2 == pytest.approx(0.43, rel=1e-14)
        assert c.a3 == pytest.approx(-0.25, rel=1e-14)
        assert c.a4 == pytest.approx(0.57, rel=1e-14)
        # the share equation's exponents, which only its solver reads
        exp_a, exp_b, _ = _share_equation_columns(p, c)
        assert exp_a == pytest.approx(-1.1627906976744186, rel=1e-14)
        assert exp_b == pytest.approx(-1.1604651162790698, rel=1e-14)

    def test_pure_function(self):
        p = make_params()
        assert derive_coefficients(p) == derive_coefficients(p)

    def test_a2_in_unit_interval_for_valid_params(self):
        rng = np.random.default_rng(3)
        for p in sample_params(rng, 200):
            assert 0.0 < derive_coefficients(p).a2 < 1.0


class TestPrimitives:
    def test_demand_price_term_vanishes(self):
        p = make_params(alpha=0.5, gamma=0.0, k1=0.5)
        assert consumer_demand_primitive(2.0, 4.0, p) == pytest.approx(1.0, rel=1e-15)

    def test_demand_identity_case(self):
        p = make_params(k1=1.0)
        assert consumer_demand_primitive(1.0, 1.0, p) == pytest.approx(1.0, rel=1e-15)

    def test_demand_midpoint_high_precision_oracle(self):
        # frozen from a 50-digit evaluation of 0.5 * 1.7^-0.2 * 32^0.38
        p = make_params(k1=0.5, gamma=0.2, alpha=0.38)
        assert consumer_demand_primitive(1.7, 32.0, p) == pytest.approx(
            1.6781748638362497, rel=1e-13)

    def test_demand_domain_errors(self):
        p = make_params()
        with pytest.raises(DomainError):
            consumer_demand_primitive(0.0, 1.0, p)
        with pytest.raises(DomainError):
            consumer_demand_primitive(1.0, -1.0, p)

    def test_supply_exponents_collapse(self):
        p = make_params(k2=1.0, phi=1.0, psi=0.0, beta=1.2)
        assert supply_primitive(0.5, 2.0, 1.0, p) == pytest.approx(0.5, rel=1e-15)

    def test_supply_share_boundary_excluded(self):
        p = make_params()
        with pytest.raises(DomainError):
            supply_primitive(1.0, 2.0, 1.0, p)

    def test_supply_log_space_oracle(self):
        rng = np.random.default_rng(11)
        for p in sample_params(rng, 50):
            share = rng.uniform(0.05, 0.95)
            price = rng.uniform(0.2, 3.2)
            demand = rng.uniform(0.1, 40.0)
            direct = p.k2 * share**p.phi * price**p.psi * demand**p.beta
            assert supply_primitive(share, price, demand, p) == pytest.approx(
                direct, rel=1e-12)


class TestReducedForms:
    def test_share_term_vanishes_when_phi_zero(self):
        p = make_params(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=0.0,
                        k1=1.0, k2=1.0)
        c = derive_coefficients(p)
        for price in (0.5, 1.0, 2.0):
            assert demand_reduced(price, 0.3, p) == pytest.approx(
                price ** (-c.a1 / c.a2), rel=1e-13)

    def test_supply_collapses_when_phi_and_beta_vanish(self):
        # beta -> 0, phi = 0: supply = (k2 * price^psi)^(1/a2) with a2 -> 1
        p = make_params(beta=1e-300, phi=0.0, psi=0.2, k2=1.0)
        assert supply_reduced(2.0, 0.4, p) == pytest.approx(2.0**0.2, rel=1e-13)

    def test_fixed_point_consistency(self):
        # reduced forms must jointly satisfy both primitive curves
        rng = np.random.default_rng(7)
        for p in sample_params(rng, 300):
            price = rng.uniform(0.2, 3.2)
            share = rng.uniform(0.001, 0.999)
            dc = demand_reduced(price, share, p)
            ds = supply_reduced(price, share, p)
            if not (1e-150 < dc < 1e150 and 1e-150 < ds < 1e150):
                # representable-range extremes are covered by the log-space
                # consistency check below
                continue
            assert consumer_demand_primitive(price, ds, p) == pytest.approx(
                dc, rel=1e-9)
            assert supply_primitive(share, price, dc, p) == pytest.approx(
                ds, rel=1e-9)

    def test_fixed_point_consistency_log_space(self):
        # same consistency statement, in log space, valid at any magnitude
        # (|log difference| is the relative error to first order)
        from tsm.core import (_log_demand_primitive, _log_demand_reduced,
                              _log_supply_primitive, _log_supply_reduced)
        rng = np.random.default_rng(8)
        for p in sample_params(rng, 300):
            price = rng.uniform(0.2, 3.2)
            share = rng.uniform(0.001, 0.999)
            c = derive_coefficients(p)
            log_dc = _log_demand_reduced(np.log(price), np.log(share), p, c)
            log_ds = _log_supply_reduced(np.log(price), np.log(share), p, c)
            assert abs(float(_log_demand_primitive(np.log(price), log_ds, p)
                             - log_dc)) <= 1e-9
            assert abs(float(_log_supply_primitive(np.log(share), np.log(price),
                                                   log_dc, p) - log_ds)) <= 1e-9

    def test_linear_solve_oracle(self):
        # independent route: solve the 2x2 log-linear system of the primitives
        rng = np.random.default_rng(13)
        for p in sample_params(rng, 60):
            price = rng.uniform(0.2, 3.2)
            share = rng.uniform(0.01, 0.99)
            mat = np.array([[1.0, -p.alpha], [-p.beta, 1.0]])
            rhs = np.array([
                np.log(p.k1) - p.gamma * np.log(price),
                np.log(p.k2) + p.phi * np.log(share) + p.psi * np.log(price),
            ])
            log_dc, log_ds = np.linalg.solve(mat, rhs)
            assert demand_reduced(price, share, p) == pytest.approx(
                float(np.exp(log_dc)), rel=1e-10)
            assert supply_reduced(price, share, p) == pytest.approx(
                float(np.exp(log_ds)), rel=1e-10)

    def test_demand_monotone_in_price_when_a1_positive(self):
        rng = np.random.default_rng(17)
        for p in sample_params(rng, 100):
            if derive_coefficients(p).a1 <= 0.0:
                continue
            share = rng.uniform(0.05, 0.95)
            lo, hi = sorted(rng.uniform(0.2, 3.2, size=2))
            if lo == hi:
                continue
            assert demand_reduced(hi, share, p) < demand_reduced(lo, share, p)

    def test_supply_monotone_in_share_when_phi_positive(self):
        rng = np.random.default_rng(19)
        for p in sample_params(rng, 100):
            if p.phi <= 0.0:
                continue
            price = rng.uniform(0.2, 3.2)
            lo, hi = sorted(rng.uniform(0.01, 0.99, size=2))
            if lo == hi:
                continue
            assert supply_reduced(price, hi, p) > supply_reduced(price, lo, p)

    def test_purity(self):
        p = make_params()
        assert demand_reduced(1.7, 0.4, p) == demand_reduced(1.7, 0.4, p)
        assert supply_reduced(1.7, 0.4, p) == supply_reduced(1.7, 0.4, p)


class TestPayoffs:
    def test_provider_break_even(self):
        p = make_params(f_c=1.0)
        share = 0.5
        price = p.f_c / (1.0 - share)
        assert provider_payoff(price, share, p) == 0.0

    def test_provider_zero_cost_share_limit(self):
        p = make_params(f_c=0.0)
        val = provider_payoff(1.7, 1.0 - 1e-9, p)
        assert 0.0 < val < 1e-6

    def test_provider_composition_oracle(self):
        rng = np.random.default_rng(23)
        for p in sample_params(rng, 60):
            price = rng.uniform(0.2, 3.2)
            share = rng.uniform(0.01, 0.99)
            c = derive_coefficients(p)
            dc = (p.k1 * p.k2**p.alpha * price**(-c.a1) * share**c.a4) ** (1.0 / c.a2)
            expected = (price * (1.0 - share) - p.f_c) * dc
            assert provider_payoff(price, share, p) == pytest.approx(
                expected, rel=1e-10, abs=1e-300)

    def test_cloud_zero_cost_case(self):
        p = make_params(f_s=0.0)
        price, share = 1.7, 0.4
        expected = price * share * demand_reduced(price, share, p)
        assert cloud_payoff(price, share, p) == pytest.approx(expected, rel=1e-12)
        assert cloud_payoff(price, share, p) >= 0.0

    def test_cloud_vanishes_as_share_to_zero(self):
        p = make_params(phi=1.5)
        assert abs(cloud_payoff(1.7, 1e-12, p)) < 1e-9

    def test_cloud_expanded_form_equivalence(self):
        # compact form equals the fully substituted expansion
        rng = np.random.default_rng(29)
        for p in sample_params(rng, 1000):
            price = rng.uniform(0.2, 3.2)
            share = rng.uniform(0.01, 0.99)
            c = derive_coefficients(p)
            expanded = (
                (p.k1 * p.k2**p.alpha) ** (1.0 / c.a2)
                * price ** (1.0 - c.a1 / c.a2) * share ** (c.a4 / c.a2 + 1.0)
                - p.f_s * (p.k2 * p.k1**p.beta) ** (1.0 / c.a2)
                * price ** (c.a3 / c.a2) * share ** (p.phi / c.a2)
            )
            assert cloud_payoff(price, share, p) == pytest.approx(
                expanded, rel=1e-9, abs=1e-280)

    def test_negative_payoffs_not_clamped(self):
        p = make_params(f_c=2.0)
        assert provider_payoff(1.0, 0.5, p) < 0.0


class TestFeasibility:
    def test_f2_fails_when_a1_below_a2(self):
        rep = check_feasibility(make_params(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1))
        assert not rep.f2_price_max          # a1/a2 = 0.5
        assert not rep.all_ok

    def test_strong_externality_passes_price_conditions(self):
        rep = check_feasibility(make_params(alpha=0.5, beta=1.8, gamma=0.3, psi=0.1))
        # a1 = 0.25, a2 = 0.1
        assert rep.f1_price_positive
        assert rep.f2_price_max

    def test_f3_direct_condition(self):
        rep = check_feasibility(make_params(alpha=0.38, beta=1.0, phi=5.0))
        # 1.9 + 0.62 - 5 < 0
        assert rep.f3_share_max

    def test_all_ok_is_conjunction(self):
        rng = np.random.default_rng(31)
        for p in sample_params(rng, 100):
            rep = check_feasibility(p)
            assert rep.all_ok == (rep.f1_price_positive and rep.f2_price_max
                                  and rep.f3_share_max)


# Each public curve or payoff function, with its point arguments in call order.
CURVES = {
    consumer_demand_primitive: ("price", "supply"),
    supply_primitive: ("share", "price", "demand"),
    demand_reduced: ("price", "share"),
    supply_reduced: ("price", "share"),
    provider_payoff: ("price", "share"),
    cloud_payoff: ("price", "share"),
}
GOOD_POINT = {"price": 1.7, "share": 0.4, "supply": 3.0, "demand": 0.8}
BAD_POINT = {"price": (0.0, -1.0, float("nan")), "share": (0.0, 1.0, -0.1, float("nan")),
             "supply": (0.0, -3.0), "demand": (0.0, float("nan"))}


class TestPointCheck:
    @pytest.mark.parametrize("f,name,bad", [
        (f, name, bad) for f, names in CURVES.items() for name in names for bad in BAD_POINT[name]
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_column_names_the_value_a_scalar_call_names(self, f, name, bad):
        names, p = CURVES[f], make_params()
        with pytest.raises(DomainError, match=rf"^{name} must ") as scalar:
            f(*(bad if n == name else GOOD_POINT[n] for n in names), p)
        # a column breaking the rule in one row fails with the same message
        with pytest.raises(DomainError) as column:
            f(*(np.array([GOOD_POINT[n], bad if n == name else GOOD_POINT[n], GOOD_POINT[n]])
                for n in names), ParamTable.from_params([p] * 3))
        assert str(column.value) == str(scalar.value)

    @pytest.mark.parametrize("f", CURVES, ids=lambda f: f.__name__)
    def test_rows_equal_batches_of_one(self, f):
        rng = np.random.default_rng(41)
        table = ParamTable.from_params(sample_params(rng, 60))
        n = len(table)
        point = {"price": rng.uniform(0.2, 3.2, n), "share": rng.uniform(0.01, 0.99, n),
                 "supply": rng.uniform(0.1, 40.0, n), "demand": rng.uniform(0.1, 40.0, n)}
        column = f(*(point[k] for k in CURVES[f]), table)
        for i, p in enumerate(table.rows()):
            one = f(*(point[k][i].item() for k in CURVES[f]), p)
            assert type(one) is np.float64
            assert one.tobytes() == column[i].tobytes(), (f.__name__, i)
