"""Monomial-counting combinatorics and running-time exponents.

The central quantity is the number of monomials in n variables with
per-variable degree below q and total degree exactly D ("extended
binomial coefficient"), computed exactly by dynamic programming.  On top
of it sit the entropy-style bound H(q, alpha), the gap function
I(q-1, alpha) = (1 - H(q, alpha)) * ln(q), and the solver exponent

    zeta_{q,d} = inf over kappa in (0, 1/(2d-1)) of
                 max(1 - kappa,  sup_{0 <= delta <= kappa}
                                 H(q, delta*(d-1)/(1-delta)) * (1 - delta)).

Each of H, I's q -> infinity limit and zeta comes from the root of one
monotone function (a stationarity condition), found by bisection down to
adjacent 64-bit floats; there is no grid and no tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .field import _factor_prime_power
from .errors import InvalidParamsError, NotPrimePowerError

# The most (q, d) cells an exponent table may span: (qmax - 1) * dmax
# bounds its rows, and a row (one zeta) takes a few milliseconds.
CELL_LIMIT = 4096

# ---------------------------------------------------------------------------
# extended binomial coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _ext_binom_row(n: int, q: int) -> tuple[int, ...]:
    """Counts of degree-D monomials for D = 0..n(q-1), exact integers.

    Each variable convolves the row with q ones, so entry s of the next
    row is a window sum row[s-q+1 .. s], read off a prefix-sum list.
    """
    row = [1]
    for _ in range(n):
        pre = [0, *itertools.accumulate(row)]
        size = len(row)
        row = [pre[min(s + 1, size)] - pre[max(0, s - q + 1)]
               for s in range(size + q - 1)]
    return tuple(row)


def ext_binom(n: int, delta: int, q: int) -> int:
    """Number of monomials in n variables, per-variable degree <= q-1,
    with total degree exactly delta."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if not 0 <= delta <= n * (q - 1):
        raise ValueError(f"delta must lie in 0..{n * (q - 1)}")
    return _ext_binom_row(n, q)[delta]


def ext_binom_cum(n: int, delta: int, q: int) -> int:
    """Number of monomials with total degree at most delta (delta may
    exceed n(q-1); the count then saturates at q^n)."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if delta < 0:
        return 0
    row = _ext_binom_row(n, q)
    return sum(row[: delta + 1])


# ---------------------------------------------------------------------------
# entropy bound H(q, alpha) and the gap function I
# ---------------------------------------------------------------------------

def _bisect(fn, lo: float, hi: float) -> float:
    """Sign change of the increasing fn on [lo, hi], to the last float:
    halves until no float is left between lo (fn < 0) and hi (fn >= 0),
    then returns lo.  fn is never called at the endpoints."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _theta_H(q: int, alpha: float) -> tuple[float, float]:
    """The minimising theta and the value H of the H objective.

    With u = theta*ln(q)/(q-1) < 0 the objective is
    (ln sum_{i<q} e^(u*i) - alpha*(q-1)*u) / ln(q), and the sum equals
    expm1(q*u)/expm1(u).  It is stationary where the mean of i under the
    weights e^(u*i), q*e^(q*u)/expm1(q*u) - e^u/expm1(u), equals
    alpha*(q-1).  That mean grows with u, from 0 towards (q-1)/2 at u = 0,
    so the bracket on u doubles downwards until it holds the root.
    """
    target = alpha * (q - 1)

    def excess(u: float) -> float:
        return (q * math.exp(q * u) / math.expm1(q * u)
                - math.exp(u) / math.expm1(u) - target)

    lo = -1.0
    while excess(lo) >= 0.0:
        lo *= 2.0
    u = _bisect(excess, lo, 0.0)
    logq = math.log(q)
    h = (math.log(math.expm1(q * u) / math.expm1(u)) - target * u) / logq
    return u * (q - 1) / logq, h


def entropy_H(q: int, alpha: float) -> float:
    """inf over theta < 0 of the exponential-moment objective; the value
    satisfies ext_binom_cum(n, alpha*(q-1)*n, q) <= q^(H*n)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    return min(_theta_H(q, alpha)[1], 1.0)


def gap_I(q_minus_1: int, alpha: float) -> float:
    """I(q-1, alpha) = (1 - H(q, alpha)) * ln(q) for field order q."""
    q = q_minus_1 + 1
    return (1.0 - entropy_H(q, alpha)) * math.log(q)


def gap_I_limit(alpha: float) -> float:
    """sup over theta < 0 of alpha*theta - ln((e^theta - 1)/theta), the
    limit of I as q grows.  The sup sits where the mean of the tilted
    uniform law on [0, 1], e^theta/(e^theta - 1) - 1/theta, equals alpha;
    that mean grows with theta from 0 towards 1/2."""
    def excess(theta: float) -> float:
        return math.exp(theta) / math.expm1(theta) - 1.0 / theta - alpha

    lo = -1.0
    while excess(lo) >= 0.0:
        lo *= 2.0
    theta = _bisect(excess, lo, 0.0)
    return alpha * theta - math.log(math.expm1(theta) / theta)


# ---------------------------------------------------------------------------
# the solver exponent zeta_{q,d}
# ---------------------------------------------------------------------------

@dataclass
class ExponentReport:
    q: int
    d: int
    kappa_star: float
    zeta: float
    theorem1_bound: float


def zeta(q: int, d: int) -> ExponentReport:
    """zeta_{q,d} = inf over kappa in (0, 1/(2d-1)) of max(1-kappa, S(kappa)),
    S(kappa) = sup_{delta <= kappa} g(delta) with
    g(delta) = H(q, delta(d-1)/(1-delta)) * (1-delta).

    kappa_star is the smallest minimiser, and zeta = 1 - kappa_star.  For
    d >= 2, g rises to its maximum g* at delta* (the root of
    g' = -theta*(d-1)/(1-delta) - H, since H'(alpha) = -theta*) and then
    falls, so S(kappa) = g(min(kappa, delta*)) and kappa_star is the root
    of the increasing g(min(kappa, delta*)) - (1-kappa), which exists
    because g falls to g(kmax) = 1 - kmax; it is 1 - g* whenever
    delta* <= 1 - g*.  For d = 1, g vanishes and the infimum 0
    is not attained: kappa_star is reported 1e-5 below 1.
    """
    _factor_prime_power(q)  # raises NotPrimePowerError otherwise
    if d < 1:
        raise ValueError("d must be at least 1")
    bound = 1.0 - min(1.0 / (8.0 * math.log(q)), 1.0 / (4.0 * d))
    kmax = 1.0 / (2 * d - 1)
    if d == 1:
        # g vanishes (alpha = 0), so the objective is 1 - kappa
        kappa_star = kmax - 1e-5
        return ExponentReport(q, d, kappa_star, 1.0 - kappa_star, bound)

    def theta_H(delta: float) -> tuple[float, float]:
        return _theta_H(q, delta * (d - 1) / (1.0 - delta))

    def g(delta: float) -> float:
        return theta_H(delta)[1] * (1.0 - delta)

    def neg_slope(delta: float) -> float:  # -g'(delta)
        theta, h = theta_H(delta)
        return theta * (d - 1) / (1.0 - delta) + h

    delta_star = _bisect(neg_slope, 0.0, kmax)
    g_star = g(delta_star)

    def excess(kappa: float) -> float:
        # g(min(kappa, delta*)) - (1 - kappa), summed so that 1 - kappa is
        # never rounded: for large d the root sits within 1e-12 of kmax
        return (g_star if kappa >= delta_star else g(kappa)) - 1.0 + kappa

    kappa_star = _bisect(excess, 0.0, kmax)
    return ExponentReport(q, d, kappa_star, 1.0 - kappa_star, bound)


def prime_powers(limit: int) -> list[int]:
    """All prime powers in 2..limit, ascending."""
    out = []
    for q in range(2, limit + 1):
        try:
            _factor_prime_power(q)
        except NotPrimePowerError:
            continue
        out.append(q)
    return out


def exponent_table(qmax: int, dmax: int) -> list[ExponentReport]:
    """Exponent reports for every prime power q <= qmax and d = 1..dmax;
    refuses negative bounds and (qmax - 1) * dmax above CELL_LIMIT."""
    if qmax < 0 or dmax < 0:
        raise InvalidParamsError("qmax and dmax must be non-negative")
    cells = max(qmax - 1, 0) * dmax
    if cells > CELL_LIMIT:
        raise InvalidParamsError(f"exponent table spans (qmax-1)*dmax = "
                                 f"{cells} cells, more than {CELL_LIMIT}")
    if not cells:  # prime_powers would still factor every q <= qmax
        return []
    return [zeta(q, d) for q in prime_powers(qmax) for d in range(1, dmax + 1)]


def format_exponent_csv(reports: list[ExponentReport]) -> str:
    lines = ["q,d,kappa_star,zeta,theorem1_bound"]
    for r in reports:
        lines.append(f"{r.q},{r.d},{r.kappa_star:.6f},{r.zeta:.6f},"
                     f"{r.theorem1_bound:.6f}")
    return "\n".join(lines) + "\n"
