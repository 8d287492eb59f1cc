"""Best responses and equilibrium of the leader-follower pricing game.

The platform announces a revenue share chi, each provider answers with a
price. Backward induction gives the provider's price response in closed form
and reduces the platform's problem to a scalar equation in chi,

    chi^A * (1 - chi)^B = C,

whose exponents and constant come from the derived coefficients. The solver
brackets each root analytically on either side of the log form's minimum and
bisects all rows of a ParamTable at once; when the equation admits two roots
(both are genuine mutual best responses) the platform-payoff-maximizing one
is reported. The scalar entry points are validated batches of one.

`oracle_equilibrium` is an independent check: it knows nothing about the
closed forms and locates equilibria purely by grid/golden-section argmax of
the two payoff surfaces, searching for fixed points of the best-response
maps. Closed-form results are validated against it in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    Coefficients,
    DomainError,
    FeasibilityReport,
    InfeasibilityError,
    MarketParams,
    MarketState,
    ParamTable,
    _cloud_payoff_arr,
    _provider_payoff_arr,
    check_feasibility,
    cloud_payoff,
    demand_reduced,
    derive_coefficients,
    provider_payoff,
    supply_reduced,
)

SHARE_EPS = 1e-9     # roots are sought on [SHARE_EPS, 1 - SHARE_EPS]
HALVINGS = 44        # shrinks a unit bracket below 1e-13, inside the 1e-10 contract
NEWTON_STEPS = 3


@dataclass(frozen=True)
class ShareEquation:
    """The platform's reduced stationarity condition chi^A (1-chi)^B = C.

    `rhs_c` is the constant evaluated directly; `log_rhs_c` is the same
    constant kept in log space, which is what the solver actually uses
    (C under/overflows for extreme exponents long before the model breaks).
    """

    exp_a: float
    exp_b: float
    rhs_c: float
    log_rhs_c: float


@dataclass(frozen=True)
class ShareSolution:
    """All share-equation roots found, plus the payoff-maximizing selection."""

    share_star: float | None
    roots: tuple[float, ...]
    residual: float | None

    @property
    def n_roots(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of one leader-follower game.

    Infeasibility (failed existence conditions, or no share-equation root)
    is data, not an exception: `feasible` is False and the equilibrium
    fields are None, so population sweeps can skip and count such draws.
    """

    feasible: bool
    feasibility: FeasibilityReport
    share_roots_found: int
    price_star: float | None = None
    share_star: float | None = None
    demand: float | None = None
    supply: float | None = None
    provider_payoff: float | None = None
    cloud_payoff: float | None = None
    residual: float | None = None


@dataclass(frozen=True)
class OracleEquilibrium:
    """Brute-force equilibrium estimate, independent of the closed forms."""

    price: float
    share: float
    cloud_payoff: float
    n_candidates: int


@dataclass(frozen=True)
class SecondOrderReport:
    """Numeric vs analytic second-order (maximum) conditions at a point."""

    provider_soc_negative: bool
    cloud_soc_negative: bool
    provider_soc_analytic: bool
    cloud_soc_analytic: bool
    provider_agreement: bool
    cloud_agreement: bool
    d2_provider: float
    d2_cloud: float


def _best_price_unchecked(share, c: Coefficients, f_c):
    return c.a1 * f_c / ((c.a1 - c.a2) * (1.0 - share))


def provider_best_price(share: float, params: MarketParams) -> float:
    """The provider's optimal price a1*f_c / ((a1-a2)*(1-share)).

    Valid only where the price is positive (f1) and the stationary point is
    a maximum (f2); strictly increasing in share.
    """
    if share >= 1.0:
        raise DomainError(f"share must be < 1, got {share}")
    if share <= 0.0:
        raise DomainError(f"share must be > 0, got {share}")
    report = check_feasibility(params)
    if not report.f1_price_positive:
        raise InfeasibilityError("price positivity condition a1/(a1-a2) > 0 fails")
    if not report.f2_price_max:
        raise InfeasibilityError("price second-order condition a1/a2 > 1 fails")
    return _best_price_unchecked(share, derive_coefficients(params), params.f_c)


def _share_equation_columns(params: MarketParams | ParamTable, c: Coefficients):
    """(exp_a, exp_b, log_rhs_c) of the share equation, elementwise; log_rhs_c
    is meaningful only under f1 and is -inf where phi, f_s or f_c is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rhs_c = (
            np.log(params.f_s)
            + np.log(params.phi / (c.a4 + c.a2))
            + ((1.0 - params.alpha) * np.log(params.k2)
               + (params.beta - 1.0) * np.log(params.k1)) / c.a2
            + c.share_exp_b * np.log(c.a1 * params.f_c / (c.a1 - c.a2))
        )
    degenerate = (params.phi == 0.0) | (params.f_s == 0.0) | (params.f_c == 0.0)
    return c.share_exp_a, c.share_exp_b, np.where(degenerate, -np.inf, log_rhs_c)


def _share_gap(chi, exp_a, exp_b, log_c):
    """The share equation in log form, A ln chi + B ln(1-chi) - ln C."""
    return exp_a * np.log(chi) + exp_b * np.log1p(-chi) - log_c


def _share_roots(exp_a, exp_b, log_c) -> np.ndarray:
    """The share equation's roots on [SHARE_EPS, 1 - SHARE_EPS] as a (2, n)
    array: per row the root where the log form falls, then where it rises,
    NaN where there is none. With A < 0 it falls up to m = A/(A+B), its only
    minimum, when B < 0, and everywhere (m = 1 - SHARE_EPS) otherwise, so
    [SHARE_EPS, m] and [m, 1 - SHARE_EPS] hold at most one root each; only
    brackets whose ends differ in sign are halved and polished.
    """
    exp_a, exp_b, log_c = (np.atleast_1d(v) for v in (exp_a, exp_b, log_c))
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(exp_b < 0.0, np.clip(exp_a / (exp_a + exp_b), SHARE_EPS,
                                          1.0 - SHARE_EPS), 1.0 - SHARE_EPS)
    lo = np.concatenate([np.full_like(m, SHARE_EPS), m])
    hi = np.concatenate([m, np.full_like(m, 1.0 - SHARE_EPS)])
    a, b, lc = (np.tile(v, 2) for v in (exp_a, exp_b, log_c))
    gap_lo = _share_gap(lo, a, b, lc)
    # A non-finite constant makes both gaps +inf or NaN: no sign change.
    live = np.nonzero((a < 0.0) & (gap_lo * _share_gap(hi, a, b, lc) < 0.0))[0]
    lo, hi, a, b, lc = (v[live] for v in (lo, hi, a, b, lc))
    lo_negative = gap_lo[live] < 0.0
    for _ in range(HALVINGS):
        mid = 0.5 * (lo + hi)
        to_lo = (_share_gap(mid, a, b, lc) < 0.0) == lo_negative
        lo = np.where(to_lo, mid, lo)
        hi = np.where(to_lo, hi, mid)
    root = 0.5 * (lo + hi)
    # Newton steps on the same log form, kept inside the final bracket.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            cand = root - _share_gap(root, a, b, lc) / (a / root - b / (1.0 - root))
            root = np.where((lo < cand) & (cand < hi), cand, root)
    # At the rounding floor Newton can hop over the float nearest the root;
    # keep whichever of the root and its two neighbours has the smallest gap.
    near = np.stack([root, np.nextafter(root, 0.0), np.nextafter(root, 1.0)])
    roots = np.full(2 * m.size, np.nan)
    roots[live] = near[np.argmin(np.abs(_share_gap(near, a, b, lc)), axis=0),
                       np.arange(root.size)]
    return roots.reshape(2, -1)


def _solve_shares(exp_a, exp_b, log_c, t: ParamTable):
    """Per row of `t`: the roots, the share (of two roots, the one with the
    higher platform payoff at the provider's best price; the lower on a tie;
    NaN without a root) and its residual |chi^A (1-chi)^B - C|."""
    roots = _share_roots(exp_a, exp_b, log_c)
    share = np.where(np.isnan(roots[0]), roots[1], roots[0])
    two = np.nonzero(~np.isnan(roots).any(axis=0))[0]
    if two.size:
        both, sub = roots[:, two], t.take(two)
        c = derive_coefficients(sub)
        pay = _cloud_payoff_arr(_best_price_unchecked(both, c, sub.f_c), both, sub, c)
        share[two] = both[np.argmax(pay, axis=0), np.arange(two.size)]
    # C * |expm1(gap)| in log space, because C alone can overflow.
    with np.errstate(divide="ignore", over="ignore"):
        gap = _share_gap(share, exp_a, exp_b, log_c)
        return roots, share, np.exp(log_c + np.log(np.abs(np.expm1(gap))))


def _equilibrium_shares(t: ParamTable) -> np.ndarray:
    """Rows (number of share roots, selected share, residual), one column per
    row of `t`. Only rows passing f1-f3 are solved; the others have no root,
    and share and residual are NaN wherever no equilibrium is reported."""
    rows = np.nonzero(check_feasibility(t).all_ok)[0]
    solved = t.take(rows)
    roots, share, residual = _solve_shares(
        *_share_equation_columns(solved, derive_coefficients(solved)), solved)
    columns = np.full((3, len(t)), np.nan)
    columns[0] = 0.0
    columns[:, rows] = (~np.isnan(roots)).sum(axis=0), share, residual
    return columns


def _reported_rows(t: ParamTable) -> list[tuple[MarketParams, EquilibriumResult]]:
    """Validated parameters and reported equilibrium of every row of `t` that
    has one, in row order."""
    n_roots, shares, residuals = _equilibrium_shares(t)
    cases = []
    for i in np.nonzero(~np.isnan(shares))[0]:
        params = MarketParams(*(getattr(t, f.name)[i].item() for f in fields(t)))
        share = shares[i].item()
        price = provider_best_price(share, params)
        cases.append((params, EquilibriumResult(
            feasible=True,
            feasibility=check_feasibility(params),
            share_roots_found=int(n_roots[i]),
            price_star=price,
            share_star=share,
            demand=demand_reduced(price, share, params),
            supply=supply_reduced(price, share, params),
            provider_payoff=provider_payoff(price, share, params),
            cloud_payoff=cloud_payoff(price, share, params),
            residual=residuals[i].item(),
        )))
    return cases


def build_share_equation(params: MarketParams) -> ShareEquation:
    """Assemble the platform's share equation from the model constants."""
    if not check_feasibility(params).f1_price_positive:
        raise InfeasibilityError("price positivity condition a1/(a1-a2) > 0 fails")
    exp_a, exp_b, log_rhs_c = _share_equation_columns(params, derive_coefficients(params))
    with np.errstate(over="ignore"):   # C may overflow; the solver uses log_rhs_c
        return ShareEquation(exp_a=exp_a, exp_b=exp_b, rhs_c=float(np.exp(log_rhs_c)),
                             log_rhs_c=float(log_rhs_c))


def solve_share(eq: ShareEquation, params: MarketParams) -> ShareSolution:
    """Find all roots of the share equation on [eps, 1-eps].

    Analytic brackets on either side of the log form's minimum, bisection
    and a Newton polish. With two roots, the one maximizing the platform's
    payoff at (best_price(chi), chi) is selected. No root is a valid outcome
    (share_star None), not an error.
    """
    if eq.exp_a >= 0.0:
        raise InfeasibilityError(
            f"share equation requires exp_a < 0 (phi > a4 + a2), got {eq.exp_a}"
        )
    roots, share, residual = _solve_shares(eq.exp_a, eq.exp_b, eq.log_rhs_c,
                                           ParamTable.from_params([params]))
    if np.isnan(share[0]):
        return ShareSolution(share_star=None, roots=(), residual=None)
    return ShareSolution(share_star=share.item(), residual=residual.item(),
                         roots=tuple(roots[~np.isnan(roots)].tolist()))


def stackelberg_solve(params: MarketParams) -> EquilibriumResult:
    """Solve one game by backward induction.

    Any failed existence condition, or a rootless share equation, yields a
    result flagged infeasible with no equilibrium values.
    """
    reported = _reported_rows(ParamTable.from_params([params]))
    if reported:
        return reported[0][1]
    return EquilibriumResult(feasible=False, feasibility=check_feasibility(params),
                             share_roots_found=0)


# ---------------------------------------------------------------------------
# Brute-force oracle. Only payoff evaluations; no closed forms.
# ---------------------------------------------------------------------------


def _golden_max(f, lo, hi, iters):
    """Vectorized golden-section maximization of f over [lo, hi] (elementwise)."""
    invphi = 0.6180339887498949
    invphi2 = 0.3819660112501051
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        h = b - a
        c = a + invphi2 * h
        d = a + invphi * h
        keep_low = f(c) >= f(d)
        b = np.where(keep_low, d, b)
        a = np.where(keep_low, a, c)
    return 0.5 * (a + b)


# Price search domain, as multiples r of the break-even price f_c/(1-chi):
# payoff is zero at r = 1 and single-peaked above it.
_R_GRID = 1.0 + np.geomspace(1e-9, 1e8, 1024)
_LOG_R_GRID = np.log(_R_GRID)


def _follower_price_response(share, params: MarketParams, c: Coefficients,
                             refine_iters: int = 48):
    """Grid argmax of the provider payoff over price, golden-refined.

    In units of the break-even price, the payoff at every share is a
    positive multiple of the same grid profile (r-1) * r^(-a1/a2), so the
    coarse scan ranks one profile; the refinement then maximizes the true
    payoff per share inside the bracketing cells.
    """
    share = np.atleast_1d(np.asarray(share, dtype=float))
    breakeven = params.f_c / (1.0 - share)
    profile = (_R_GRID - 1.0) * np.exp((-c.a1 / c.a2) * _LOG_R_GRID)
    j = int(np.argmax(profile))
    lo = _R_GRID[max(j - 1, 0)]
    hi = _R_GRID[min(j + 1, _R_GRID.size - 1)]

    def payoff_of_logr(u):
        return _provider_payoff_arr(breakeven * (1.0 + np.exp(u)), share, params, c)

    lo_u = np.full(share.shape, math.log(lo - 1.0))
    hi_u = np.full(share.shape, math.log(hi - 1.0))
    u = _golden_max(payoff_of_logr, lo_u, hi_u, refine_iters)
    return breakeven * (1.0 + np.exp(u))


def _platform_share_response(price, share_grid, params: MarketParams, c: Coefficients,
                             refine_iters: int = 48):
    """Grid argmax of the platform payoff over share, golden-refined.

    The payoff matrix over (price, share) is a difference of two outer
    products, revenue(P) * share^e1 - cost(P) * share^e2. Each row is
    rescaled by its largest factor before ranking, which cannot change the
    argmax but keeps rows finite for extreme reduced-form exponents.
    """
    price = np.atleast_1d(np.asarray(price, dtype=float))
    log_price = np.log(price)
    e1 = c.a4 / c.a2 + 1.0
    e2 = params.phi / c.a2
    log_rev = (math.log(params.k1) + params.alpha * math.log(params.k2)
               - c.a1 * log_price) / c.a2 + log_price
    if params.f_s > 0.0:
        log_cost = (math.log(params.f_s)
                    + (math.log(params.k2) + params.beta * math.log(params.k1)
                       + c.a3 * log_price) / c.a2)
    else:
        log_cost = np.full(price.shape, -np.inf)
    scale = np.maximum(log_rev, log_cost)
    log_share = np.log(share_grid)
    pay = (np.exp(log_rev - scale)[:, None] * np.exp(e1 * log_share)[None, :]
           - np.exp(log_cost - scale)[:, None] * np.exp(e2 * log_share)[None, :])
    j = np.argmax(pay, axis=1)
    lo = share_grid[np.maximum(j - 1, 0)]
    hi = share_grid[np.minimum(j + 1, share_grid.size - 1)]

    def payoff_of_share(s):
        return _cloud_payoff_arr(price, s, params, c)

    return _golden_max(payoff_of_share, lo, hi, refine_iters)


_INVPHI = 0.6180339887498949
_INVPHI2 = 0.3819660112501051


def _scalar_best_price(chi: float, params: MarketParams, c: Coefficients,
                       iters: int = 60) -> float:
    """Numeric follower price response at one share, in scalar math.

    Golden-section over u = log(price/breakeven - 1); the payoff is zero at
    the break-even price and single-peaked above it.
    """
    breakeven = params.f_c / (1.0 - chi)
    base = (math.log(params.k1) + params.alpha * math.log(params.k2)
            - c.a1 * math.log(breakeven) + c.a4 * math.log(chi)) / c.a2
    slope = -c.a1 / c.a2

    def pay(u):
        rm1 = math.exp(u)
        return rm1 * math.exp(base + slope * math.log1p(rm1))

    lo, hi = math.log(1e-9), math.log(1e8)
    for _ in range(iters):
        h = hi - lo
        cu = lo + _INVPHI2 * h
        du = lo + _INVPHI * h
        if pay(cu) >= pay(du):
            hi = du
        else:
            lo = cu
    return breakeven * (1.0 + math.exp(0.5 * (lo + hi)))


def _scalar_best_share(price: float, params: MarketParams, c: Coefficients,
                       lo: float, hi: float, iters: int = 60) -> float:
    """Numeric platform share response at one price over [lo, hi].

    A 24-point scan brackets the maximum first (the slice is single-peaked,
    monotone, or dips to a single interior minimum), then golden-section
    refines inside the bracketing cells.
    """
    e1 = c.a4 / c.a2 + 1.0
    e2 = params.phi / c.a2
    log_price = math.log(price)
    log_rev = (math.log(params.k1) + params.alpha * math.log(params.k2)
               - c.a1 * log_price) / c.a2 + log_price
    if params.f_s > 0.0:
        log_cost = (math.log(params.f_s)
                    + (math.log(params.k2) + params.beta * math.log(params.k1)
                       + c.a3 * log_price) / c.a2)
    else:
        log_cost = -math.inf
    scale = max(log_rev, log_cost)

    def pay(s):
        ls = math.log(s)
        rev = math.exp(log_rev - scale + e1 * ls)
        if log_cost == -math.inf:
            return rev
        return rev - math.exp(log_cost - scale + e2 * ls)

    n_scan = 24
    step = (hi - lo) / (n_scan - 1)
    best_j = max(range(n_scan), key=lambda j: pay(lo + j * step))
    a = max(lo, lo + (best_j - 1) * step)
    b = min(hi, lo + (best_j + 1) * step)
    for _ in range(iters):
        h = b - a
        cu = a + _INVPHI2 * h
        du = a + _INVPHI * h
        if pay(cu) >= pay(du):
            b = du
        else:
            a = cu
    return 0.5 * (a + b)


def oracle_equilibrium(params: MarketParams, grid_n: int = 2000) -> OracleEquilibrium:
    """Locate an equilibrium by brute force on a grid_n-point share grid.

    For every share on the grid the follower's best price is found by grid
    argmax of the provider payoff; the platform's best share against that
    price is found the same way. Grid cells where the two responses close a
    loop (the best-response defect changes sign) are bisected to a fixed
    point, and the platform-payoff-maximizing fixed point is returned. When
    no interior fixed point exists, the share maximizing the platform payoff
    along the follower-response curve is returned (this is the boundary cell
    for degenerate inputs, e.g. f_s = 0).
    """
    if grid_n < 100:
        raise DomainError(f"grid_n must be >= 100, got {grid_n}")
    if params.f_c <= 0.0:
        raise DomainError("oracle requires f_c > 0 (price response degenerates)")
    c = derive_coefficients(params)
    share_grid = np.linspace(0.01, 0.99, grid_n)
    step = share_grid[1] - share_grid[0]

    # The best-response defect is smooth, so fixed points are bracketed on a
    # strided probe of the grid and then bisected on the exact maps.
    stride = max(1, grid_n // 384)
    idx = np.arange(0, grid_n, stride)
    if idx[-1] != grid_n - 1:
        idx = np.append(idx, grid_n - 1)
    probes = share_grid[idx]

    probe_price = _follower_price_response(probes, params, c, refine_iters=20)
    response = _platform_share_response(probe_price, share_grid, params, c,
                                        refine_iters=0)
    defect = response - probes

    chi_lo, chi_hi = float(share_grid[0]), float(share_grid[-1])
    spacing = float(probes[1] - probes[0])

    def defect_at(chi):
        price = _scalar_best_price(chi, params, c)
        return _scalar_best_share(price, params, c, chi_lo, chi_hi) - chi

    # Sign changes of the defect bracket fixed points even where the
    # response clamps to the domain bounds; clamping only fabricates
    # crossings at the domain edges, which are filtered out after
    # refinement below.
    flips = np.nonzero(np.sign(defect[:-1]) * np.sign(defect[1:]) <= 0)[0]
    candidates = []
    for i in flips:
        # The probe-phase defect is grid-quantized, so re-locate the sign
        # change with the exact maps over the neighboring probes first.
        span = [float(probes[j]) for j in range(max(i - 1, 0),
                                                min(i + 3, probes.size))]
        values = [defect_at(x) for x in span]
        bracket = None
        for (x0, d0), (x1, d1) in zip(zip(span, values), zip(span[1:], values[1:])):
            if (d0 < 0.0) != (d1 < 0.0) or d0 == 0.0:
                bracket = (x0, d0, x1)
                break
        if bracket is None:
            continue
        lo, dlo, hi = bracket
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            dmid = defect_at(mid)
            if (dmid < 0.0) == (dlo < 0.0):
                lo, dlo = mid, dmid
            else:
                hi = mid
        chi = 0.5 * (lo + hi)
        if not chi_lo + spacing < chi < chi_hi - spacing:
            continue
        price = _scalar_best_price(chi, params, c)
        candidates.append((chi, price,
                           float(_cloud_payoff_arr(price, chi, params, c))))
    if candidates:
        chi, price, pay = max(candidates, key=lambda t: t[2])
        return OracleEquilibrium(price=price, share=chi, cloud_payoff=pay,
                                 n_candidates=len(candidates))

    full_price = _follower_price_response(share_grid, params, c)
    along_curve = _cloud_payoff_arr(full_price, share_grid, params, c)
    i = int(np.argmax(along_curve))
    return OracleEquilibrium(price=float(full_price[i]), share=float(share_grid[i]),
                             cloud_payoff=float(along_curve[i]), n_candidates=0)


# ---------------------------------------------------------------------------
# Numerical derivative checks.
# ---------------------------------------------------------------------------

FOC_REL_STEP = 1e-6
SOC_REL_STEP = 1e-4


def first_order_residuals(params: MarketParams, at: MarketState) -> tuple[float, float]:
    """Scale-free first-order conditions at a candidate equilibrium.

    Returns (|d pi_i / d ln price| / |pi_i|, |d pi / d ln share| / |pi|) via
    central differences with relative step 1e-6. Both are ~0 at a true
    stationary point.
    """
    hp = FOC_REL_STEP * at.price
    d_provider = (provider_payoff(at.price + hp, at.share, params)
                  - provider_payoff(at.price - hp, at.share, params)) / (2.0 * hp)
    hs = FOC_REL_STEP * at.share
    d_cloud = (cloud_payoff(at.price, at.share + hs, params)
               - cloud_payoff(at.price, at.share - hs, params)) / (2.0 * hs)
    provider_scale = max(abs(provider_payoff(at.price, at.share, params)), 1e-300)
    cloud_scale = max(abs(cloud_payoff(at.price, at.share, params)), 1e-300)
    return (abs(d_provider) * at.price / provider_scale,
            abs(d_cloud) * at.share / cloud_scale)


def second_order_check(params: MarketParams, at: MarketState) -> SecondOrderReport:
    """Second-derivative tests at a candidate optimum.

    Central second differences (relative step 1e-4) of the provider payoff
    in price and the platform payoff in share, compared against the analytic
    sign conditions (1 - a1/a2) < 0 and a4 + a2 - phi < 0.
    """
    report = check_feasibility(params)
    hp = SOC_REL_STEP * at.price
    d2p = (provider_payoff(at.price + hp, at.share, params)
           - 2.0 * provider_payoff(at.price, at.share, params)
           + provider_payoff(at.price - hp, at.share, params)) / hp**2
    hs = min(SOC_REL_STEP * at.share, 0.5 * (1.0 - at.share))
    d2c = (cloud_payoff(at.price, at.share + hs, params)
           - 2.0 * cloud_payoff(at.price, at.share, params)
           + cloud_payoff(at.price, at.share - hs, params)) / hs**2
    return SecondOrderReport(
        provider_soc_negative=bool(d2p < 0.0),
        cloud_soc_negative=bool(d2c < 0.0),
        provider_soc_analytic=report.f2_price_max,
        cloud_soc_analytic=report.f3_share_max,
        provider_agreement=bool((d2p < 0.0) == report.f2_price_max),
        cloud_agreement=bool((d2c < 0.0) == report.f3_share_max),
        d2_provider=float(d2p),
        d2_cloud=float(d2c),
    )
