"""Best responses and equilibrium of the leader-follower pricing game.

The platform announces a revenue share chi, each provider answers with a
price. Backward induction gives the provider's price response in closed form
and reduces the platform's problem to a scalar equation in chi,

    chi^A * (1 - chi)^B = C,

whose exponents and constant come from the derived coefficients. The solver
brackets each root analytically on either side of the log form's minimum and
bisects all rows of a ParamTable at once; when the equation admits two roots
(both are genuine mutual best responses) the platform-payoff-maximizing one
is reported. `solve_share` is that solver; `stackelberg_solve` runs it and
the equilibrium scenario kernel on a batch of one.

`oracle_equilibrium` is an independent check: it knows nothing about the
closed forms. It reads each best response from the forward-mode slope (exact,
in real arithmetic) of a payoff slice, the payoff with the other player's move
fixed and its fixed terms computed once (R*s^e1 - K*s^e2 in share, the log
payoff above break-even in price), and finds the equilibria as fixed points of
the two best-response maps. The share moves the price slice by a constant
only, so the best price's markup over break-even is bisected once a game; the
share slope changes sign at most once, so its signs at chi and at the window's
ends place the best share on one side of chi. Closed forms are checked against
it in the tests and in `tsm verify`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    Coefficients,
    DomainError,
    FeasibilityReport,
    MarketParams,
    ParamTable,
    _cloud_payoff_arr,
    _cloud_share_slice,
    _log_demand_reduced,
    _provider_payoff_arr,
    check_feasibility,
    check_point,
    derive_coefficients,
)

SHARE_EPS = 1e-9     # roots are sought on [SHARE_EPS, 1 - SHARE_EPS]
_END_LOGS = [(np.log(chi), np.log1p(-chi)) for chi in np.float64([SHARE_EPS, 1.0 - SHARE_EPS])]
HALVINGS = 44        # shrinks a unit bracket below 1e-13, inside the 1e-10 contract
NEWTON_STEPS = 3


class EquilibriumResult(NamedTuple):
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


class OracleEquilibrium(NamedTuple):
    """Brute-force equilibrium estimate, independent of the closed forms, one
    entry per row of a ParamTable. n_candidates counts the interior fixed points."""

    price: np.ndarray
    share: np.ndarray
    cloud_payoff: np.ndarray
    n_candidates: np.ndarray


class SecondOrderReport(NamedTuple):
    """Numeric vs analytic second-order (maximum) conditions at a point, elementwise."""

    provider_soc_negative: np.ndarray
    cloud_soc_negative: np.ndarray
    provider_soc_analytic: np.ndarray
    cloud_soc_analytic: np.ndarray
    provider_agreement: np.ndarray
    cloud_agreement: np.ndarray
    d2_provider: np.ndarray
    d2_cloud: np.ndarray


def _best_price_unchecked(share, c: Coefficients, f_c):
    return c.a1 * f_c / ((c.a1 - c.a2) * (1.0 - share))


def _share_equation_columns(params: MarketParams | ParamTable, c: Coefficients):
    """(exp_a, exp_b, log_rhs_c) of the share equation, elementwise: (a4 - phi)/a2 + 1,
    (a1 + a3)/a2 - 1 and log C, meaningful only under f1 and -inf where phi, f_s or f_c is 0."""
    exp_b = (c.a1 + c.a3) / c.a2 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rhs_c = (
            np.log(params.f_s)
            + np.log(params.phi / (c.a4 + c.a2))
            + ((1.0 - params.alpha) * np.log(params.k2)
               + (params.beta - 1.0) * np.log(params.k1)) / c.a2
            + exp_b * np.log(c.a1 * params.f_c / (c.a1 - c.a2))
        )
    degenerate = (params.phi == 0.0) | (params.f_s == 0.0) | (params.f_c == 0.0)
    return (c.a4 - params.phi) / c.a2 + 1.0, exp_b, np.where(degenerate, -np.inf, log_rhs_c)


def _share_gap(chi, exp_a, exp_b, log_c):
    """The share equation in log form, A ln chi + B ln(1-chi) - ln C."""
    return exp_a * np.log(chi) + exp_b * np.log1p(-chi) - log_c


def _share_brackets(exp_a, exp_b, log_c):
    """The log form's minimum m, its gaps at SHARE_EPS, m and 1 - SHARE_EPS
    (logs only at m), (3, n), and whether each bracket between them changes
    sign, (2, n). With A < 0 the form falls up to m = A/(A+B), its only minimum,
    when B < 0, and everywhere (m = 1 - SHARE_EPS) otherwise: one root per bracket at most."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(exp_b < 0.0, np.clip(exp_a / (exp_a + exp_b), SHARE_EPS,
                                          1.0 - SHARE_EPS), 1.0 - SHARE_EPS)
    at_lo, at_hi = (exp_a * log_chi + exp_b * log_1m - log_c for log_chi, log_1m in _END_LOGS)
    gap = np.stack([at_lo, _share_gap(m, exp_a, exp_b, log_c), at_hi])
    # A non-finite constant makes both gaps +inf or NaN: no sign change. Signs
    # are compared, not multiplied: a product of huge gaps overflows, and one
    # of tiny gaps underflows to 0 and hides the change.
    lo, hi = gap[:-1], gap[1:]
    return m, gap, (exp_a < 0.0) & (((lo < 0.0) & (hi > 0.0)) | ((lo > 0.0) & (hi < 0.0)))


def _share_roots(exp_a, exp_b, log_c) -> np.ndarray:
    """The share equation's roots on [SHARE_EPS, 1 - SHARE_EPS] as a (2, n)
    array: per row the root where the log form falls, then where it rises,
    NaN where there is none. Only brackets (`_share_brackets`) whose ends
    differ in sign are halved and polished.
    """
    exp_a, exp_b, log_c = (np.atleast_1d(v) for v in (exp_a, exp_b, log_c))
    m, gap, change = _share_brackets(exp_a, exp_b, log_c)
    ends = np.stack([np.full_like(m, SHARE_EPS), m, np.full_like(m, 1.0 - SHARE_EPS)])
    live = np.nonzero(change.ravel())[0]
    lo, hi, gap_lo = ends[:-1].ravel()[live], ends[1:].ravel()[live], gap[:-1].ravel()[live]
    a, b, lc = (np.tile(v, 2)[live] for v in (exp_a, exp_b, log_c))
    lo_negative = gap_lo < 0.0
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
    roots = np.full(2 * exp_a.size, np.nan)
    roots[live] = near[np.argmin(np.abs(_share_gap(near, a, b, lc)), axis=0),
                       np.arange(root.size)]
    return roots.reshape(2, -1)


def has_share_root(t: ParamTable) -> np.ndarray:
    """Per row of `t`, whether `solve_share` reports an equilibrium: f1-f3 hold and
    a bracket changes sign. Three gaps a row, logs at one, and no gather or bisection."""
    with np.errstate(all="ignore"):   # the equation is meaningless off f1-f3
        change = _share_brackets(*_share_equation_columns(t, c := derive_coefficients(t)))[2]
    return check_feasibility(t, c).all_ok & change.any(axis=0)


def solve_share(t: ParamTable) -> np.ndarray:
    """Rows (number of share roots, selected share, residual), one column per
    row of `t`. Only rows passing f1-f3 are solved; the others have no root.
    Of two roots the share is the one with the higher platform payoff at the
    provider's best price (the lower on a tie). The residual is
    |chi^A (1-chi)^B - C|; share and residual are NaN wherever no
    equilibrium is reported, which `has_share_root` tells without solving."""
    rows = np.nonzero(check_feasibility(t).all_ok)[0]
    solved = t.take(rows)
    exp_a, exp_b, log_c = _share_equation_columns(solved, derive_coefficients(solved))
    roots = _share_roots(exp_a, exp_b, log_c)
    share = np.where(np.isnan(roots[0]), roots[1], roots[0])
    two = np.nonzero(~np.isnan(roots).any(axis=0))[0]
    if two.size:
        both, sub = roots[:, two], solved.take(two)
        c = derive_coefficients(sub)
        pay = _cloud_payoff_arr(_best_price_unchecked(both, c, sub.f_c), both, sub, c)
        share[two] = both[np.argmax(pay, axis=0), np.arange(two.size)]
    # C * |expm1(gap)| in log space, because C alone can overflow.
    with np.errstate(divide="ignore", over="ignore"):
        gap = _share_gap(share, exp_a, exp_b, log_c)
        residual = np.exp(log_c + np.log(np.abs(np.expm1(gap))))
    columns = np.full((3, len(t)), np.nan)
    columns[0] = 0.0
    columns[:, rows] = (~np.isnan(roots)).sum(axis=0), share, residual
    return columns


def stackelberg_solve(params: MarketParams) -> EquilibriumResult:
    """Solve one game by backward induction, as Python values: the share
    solver's root count and residual and the equilibrium scenario kernel's
    price, share, demand, supply and payoffs, each over a batch of one. Any
    failed existence condition, or a rootless share equation, yields a result
    flagged infeasible with no equilibrium values."""
    from .scenarios import MODE_EQUILIBRIUM, TWO_SIDED, scenario_columns   # imports this module
    table = ParamTable.from_params([params])
    n_roots, _, residual = solve_share(table)[:, 0].tolist()
    report = FeasibilityReport(*map(bool, check_feasibility(params)))
    if not n_roots:
        return EquilibriumResult(feasible=False, feasibility=report, share_roots_found=0)
    out = scenario_columns(TWO_SIDED, table, None, MODE_EQUILIBRIUM)
    return EquilibriumResult(True, report, int(n_roots), *(v.item() for v in out[2:]), residual)


# ---------------------------------------------------------------------------
# Brute-force oracle. Only payoff evaluations; no closed forms.
# ---------------------------------------------------------------------------

ORACLE_BLOCK_ROWS = 1 << 15   # (game, share) pairs searched at once; bounds memory
PEAK_HALVINGS = 60            # to the float nearest a peak
ROOT_HALVINGS = 30            # fixed points: a probe spacing down to about 1e-12
ORACLE_MIN_GRID_N = 100


class _Slope:
    """A value v and its derivative d, v + d*eps with eps^2 = 0: forward-mode
    differentiation in real arithmetic. The payoffs' numpy expressions run on
    it unchanged through the arithmetic operators and np.exp/log/log1p."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, other):
        if isinstance(other, _Slope):
            return _Slope(self.v + other.v, self.d + other.d)
        return _Slope(self.v + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Slope):
            return _Slope(self.v - other.v, self.d - other.d)
        return _Slope(self.v - other, self.d)

    def __rsub__(self, other):
        return _Slope(other - self.v, -self.d)

    def __mul__(self, other):
        if isinstance(other, _Slope):
            return _Slope(self.v * other.v, self.d * other.v + self.v * other.d)
        return _Slope(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Slope):
            q = self.v / other.v
            return _Slope(q, (self.d - q * other.d) / other.v)
        return _Slope(self.v / other, self.d / other)

    def __rtruediv__(self, other):
        q = other / self.v
        return _Slope(q, -q * self.d / self.v)

    def __neg__(self):
        return _Slope(-self.v, -self.d)

    def _exp(self):
        e = np.exp(self.v)
        return _Slope(e, e * self.d)

    def _log(self):
        return _Slope(np.log(self.v), self.d / self.v)

    def _log1p(self):
        return _Slope(np.log1p(self.v), self.d / (1.0 + self.v))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _SLOPE_UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        if op is None:
            return NotImplemented
        # An array on the left of a binary operation takes the reflected one.
        return op[0](*inputs) if inputs[0] is self else op[1](self, inputs[0])


_SLOPE_UFUNCS = {
    np.exp: (_Slope._exp,), np.log: (_Slope._log,), np.log1p: (_Slope._log1p,),
    np.negative: (_Slope.__neg__,),
    np.add: (_Slope.__add__, _Slope.__radd__),
    np.subtract: (_Slope.__sub__, _Slope.__rsub__),
    np.multiply: (_Slope.__mul__, _Slope.__rmul__),
    np.true_divide: (_Slope.__truediv__, _Slope.__rtruediv__),
}


def _bisect_peak(f, lo, hi):
    """Elementwise argmax over [lo, hi] of a smooth f that rises then falls
    (or is monotone there): bisection on the sign of its forward-mode slope,
    which has no cancellation error, so the peak is placed to rounding rather
    than to the square root of it."""
    for _ in range(PEAK_HALVINGS):
        mid = 0.5 * (lo + hi)
        rising = f(_Slope(mid, 1.0)).d > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    return 0.5 * (lo + hi)


def _price_slice(chi, t: ParamTable, c: Coefficients):
    """(breakeven, f) at share chi. The provider payoff is zero at breakeven = f_c/(1-chi)
    and single-peaked above; f(u) = u + D0 + k*log1p(e^u) is its log less log f_c at
    breakeven*(1 + e^u), with D0 the log demand at breakeven and k its slope in log price."""
    breakeven = t.f_c / (1.0 - chi)
    demand = _log_demand_reduced(_Slope(np.log(breakeven), 1.0), np.log(chi), t, c)
    return breakeven, lambda u: u + demand.v + demand.d * np.log1p(np.exp(u))


def _price_markup(t: ParamTable, c: Coefficients):
    """The provider's best price over break-even, 1 + e^u at `_price_slice`'s peak. The
    slope 1 + k*e^u/(1 + e^u) holds no chi (chi moves f only through D0), so the peak
    found at one share is the peak at every share of the game."""
    return 1.0 + np.exp(_bisect_peak(_price_slice(0.5, t, c)[1], math.log(1e-9), math.log(1e8)))


def _response_below(chi, price, t: ParamTable, c: Coefficients, window) -> np.ndarray:
    """Whether the platform's best share in `window` at `price` lies below chi. The
    payoff R*s^e1 - K*s^e2 in share has the slope s^(e1-1) * (e1*R - e2*K*s^(e2-e1)),
    whose sign changes at most once. Where it dips (falls at the window's lower end and
    rises at its upper end), the better end is the best share; elsewhere the best share
    lies on the side of chi that the exact slope at chi points to."""
    payoff = _cloud_share_slice(price, t, c)[1]
    lower, upper, at = (payoff(_Slope(s, 1.0)) for s in (*window, chi))
    return np.where((lower.d < 0.0) & (upper.d > 0.0), lower.v > upper.v, at.d < 0.0)


def _blocks(n: int, width: int) -> list[slice]:
    """Slices over n games (or brackets), each holding at most
    ORACLE_BLOCK_ROWS games times `width` shares (but at least one game)."""
    step = max(1, ORACLE_BLOCK_ROWS // width)
    return [slice(i, i + step) for i in range(0, n, step)]


def _as_column(t: ParamTable) -> ParamTable:
    """`t` with (n, 1) columns, which broadcast against a row of shares."""
    return t.take(np.arange(len(t))[:, None])


def _fixed_points(t: ParamTable, probes: np.ndarray, window):
    """Rows (price, share, platform payoff, fixed points found) per game of
    `t`, for its highest-payoff interior fixed point, NaN without one.

    Every sign change of the defect (`_response_below` finds only its sign)
    between neighbouring probes becomes one bracket. The probes run in
    blocks of games, then all brackets are bisected together, in blocks of
    brackets. Clamping the response to the window only fabricates crossings
    at its edges, which the interior filter drops. Where the platform payoff
    underflows, its slope's sign can be lost and the defect can change sign
    where no fixed point is; such a candidate's payoff is below the smallest
    normal float, far below any true root's, and is dropped too.
    """
    found = [(np.empty(0, int), np.empty(0, int), np.empty(0, bool))]
    markup = np.empty(len(t))
    for rows in _blocks(len(t), probes.size):
        c = derive_coefficients(col := _as_column(t.take(rows)))
        markup[rows] = _price_markup(col, c)[:, 0]
        price = col.f_c / (1.0 - probes) * markup[rows, None]
        negative = _response_below(probes, price, col, c, window)
        case, j = np.nonzero(negative[:, :-1] != negative[:, 1:])
        found.append((case + rows.start, j, negative[case, j]))
    case, j, lo_negative = (np.concatenate(v) for v in zip(*found))
    chi, price, pay = np.empty((3, case.size))
    for b in _blocks(case.size, 1):
        c = derive_coefficients(sub := t.take(case[b]))
        sub_markup, lo, hi = markup[case[b]], probes[j[b]], probes[j[b] + 1]
        for _ in range(ROOT_HALVINGS):
            mid = 0.5 * (lo + hi)
            price_mid = sub.f_c / (1.0 - mid) * sub_markup
            to_lo = _response_below(mid, price_mid, sub, c, window) == lo_negative[b]
            lo, hi = np.where(to_lo, mid, lo), np.where(to_lo, hi, mid)
        chi[b] = 0.5 * (lo + hi)
        price[b] = sub.f_c / (1.0 - chi[b]) * sub_markup
        pay[b] = _cloud_payoff_arr(price[b], chi[b], sub, c)
    spacing = probes[1] - probes[0]
    inside = ((window[0] + spacing < chi) & (chi < window[1] - spacing)
              & (np.abs(pay) >= np.finfo(float).tiny))
    case, chi, price, pay = (v[inside] for v in (case, chi, price, pay))
    out = np.full((4, len(t)), np.nan)
    out[3] = np.bincount(case, minlength=len(t))
    # Per game the first of its candidates by descending payoff, then share.
    order = np.lexsort((-pay, case))
    first = order[np.unique(case[order], return_index=True)[1]]
    out[:3, case[first]] = price[first], chi[first], pay[first]
    return out


def oracle_equilibrium(t: ParamTable, grid_n: int = 2000) -> OracleEquilibrium:
    """Locate equilibria by brute force on a grid_n-point share grid over
    [0.01, 0.99], elementwise over a ParamTable (columns of OracleEquilibrium;
    `ParamTable.from_params([p])` is one game).

    The sign of the best-response defect (the platform's best share against
    the provider's best price at chi, break-even times a markup bisected once
    per game, less chi) is found at about 385 probes of the grid from the
    share slope's sign (`_response_below`); its sign changes are bisected to
    fixed points, and the platform-payoff-maximizing interior fixed point is
    returned. A game without one (n_candidates 0) gets NaN price, share and
    cloud_payoff, as the closed form reports no equilibrium. Games run in
    blocks, so memory does not grow with them.
    """
    if not isinstance(t, ParamTable):
        raise TypeError(f"oracle_equilibrium takes a ParamTable, got {type(t).__name__};"
                        " ParamTable.from_params([p]) is one game")
    if grid_n < ORACLE_MIN_GRID_N:
        raise DomainError(f"grid_n must be >= {ORACLE_MIN_GRID_N}, got {grid_n}")
    if np.any(t.f_c <= 0.0):
        raise DomainError("oracle requires f_c > 0 (price response degenerates)")
    share_grid = np.linspace(0.01, 0.99, grid_n)
    window = (share_grid[0], share_grid[-1])
    idx = np.arange(0, grid_n, max(1, grid_n // 384))
    if idx[-1] != grid_n - 1:
        idx = np.append(idx, grid_n - 1)
    # Near the alpha*beta cap the payoffs' 1/a2 exponents overflow far from
    # any peak; inf ranks in order there, and NaN (inf - inf) compares false.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _fixed_points(t, share_grid[idx], window)
    return OracleEquilibrium(*out[:3], n_candidates=out[3].astype(int))


# ---------------------------------------------------------------------------
# Numerical derivative checks.
# ---------------------------------------------------------------------------

FOC_REL_STEP = 1e-6


def _payoff_slices(params: MarketParams | ParamTable, price, share):
    """The provider payoff as a function of price at `share`, and the platform
    payoff as a function of share at `price`, elementwise over a ParamTable."""
    check_point(price=price, share=share)
    c = derive_coefficients(params)
    return (lambda p: _provider_payoff_arr(p, share, params, c),
            lambda s: _cloud_payoff_arr(price, s, params, c))


def first_order_residuals(params: MarketParams | ParamTable, price, share):
    """Scale-free first-order conditions at a candidate equilibrium,
    elementwise over a ParamTable or a MarketParams.

    Returns (|d pi_i / d ln price| / |pi_i|, |d pi / d ln share| / |pi|) via
    central differences with relative step 1e-6. Both are ~0 at a true
    stationary point.
    """
    provider, cloud = _payoff_slices(params, price, share)
    hp = FOC_REL_STEP * price
    d_provider = (provider(price + hp) - provider(price - hp)) / (2.0 * hp)
    hs = FOC_REL_STEP * share
    d_cloud = (cloud(share + hs) - cloud(share - hs)) / (2.0 * hs)
    return (np.abs(d_provider) * price / np.maximum(np.abs(provider(price)), 1e-300),
            np.abs(d_cloud) * share / np.maximum(np.abs(cloud(share)), 1e-300))


def second_order_check(params: MarketParams | ParamTable, price, share) -> SecondOrderReport:
    """Second-derivative tests at a candidate optimum, elementwise over a
    ParamTable or a MarketParams.

    Exact second derivatives of the provider payoff in price and the platform
    payoff in share, by nested forward mode: f(x + eps1 + eps2) with
    eps1^2 = eps2^2 = 0 carries f''(x) in its eps1*eps2 term. They are
    compared against the analytic sign conditions (1 - a1/a2) < 0 and
    a4 + a2 - phi < 0.
    """
    report = check_feasibility(params)
    provider, cloud = _payoff_slices(params, price, share)
    d2p, d2c = (f(_Slope(_Slope(x, 1.0), _Slope(1.0, 0.0))).d.d
                for f, x in ((provider, price), (cloud, share)))
    return SecondOrderReport(
        d2p < 0.0, d2c < 0.0, report.f2_price_max, report.f3_share_max,
        (d2p < 0.0) == report.f2_price_max, (d2c < 0.0) == report.f3_share_max, d2p, d2c)
