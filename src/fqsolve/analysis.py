"""Monomial-counting combinatorics and running-time exponents.

The central quantity is the number of monomials in n variables with
per-variable degree below q and total degree exactly D ("extended
binomial coefficient"), computed exactly by dynamic programming.  On top
of it sit the entropy-style bound H(q, alpha), the gap function
I(q-1, alpha) = (1 - H(q, alpha)) * ln(q), and the solver exponent

    zeta_{q,d} = inf over kappa in (0, 1/(2d-1)) of
                 max(1 - kappa,  sup_{0 <= delta <= kappa}
                                 H(q, delta*(d-1)/(1-delta)) * (1 - delta)),

all evaluated numerically in 64-bit floats with explicit tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import _factor_prime_power
from .errors import NotPrimePowerError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


@dataclass
class ExtBinomTable:
    """One DP row: monomial counts of every total degree for fixed (n, q)."""

    n: int
    q: int
    row: tuple[int, ...]

    @classmethod
    def build(cls, n: int, q: int) -> "ExtBinomTable":
        return cls(n, q, _ext_binom_row(n, q))


# ---------------------------------------------------------------------------
# entropy bound H(q, alpha) and the gap function I
# ---------------------------------------------------------------------------

def _h_objective(q: int, alpha: float, theta: float) -> float:
    """-alpha*theta + log_q((1 - q^(theta*q/(q-1))) / (1 - q^(theta/(q-1)))).

    Stable form: with v = theta * ln(q) / (q-1) < 0 the ratio equals
    expm1(q*v) / expm1(v).
    """
    v = theta * math.log(q) / (q - 1)
    ratio = math.expm1(q * v) / math.expm1(v)
    return -alpha * theta + math.log(ratio) / math.log(q)


_THETA_GRID = -np.logspace(math.log10(1e-12), math.log10(50.0), 600)[::-1]


def _golden_min(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal fn on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def _refine_min(fn, grid, values, tol: float) -> tuple[float, float]:
    """Golden-section minimum of fn between the neighbours of the grid
    point with the smallest values[i], fn(grid[i]) or a stand-in for it."""
    i = int(np.argmin(values))
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    return _golden_min(fn, lo, hi, tol)


def entropy_H(q: int, alpha: float) -> float:
    """inf over theta < 0 of the exponential-moment objective; the value
    satisfies ext_binom_cum(n, alpha*(q-1)*n, q) <= q^(H*n)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    _, h = _refine_min(lambda t: _h_objective(q, alpha, t), _THETA_GRID,
                       -alpha * _THETA_GRID + _g_grid(q), 1e-10)
    return min(h, 1.0)


def gap_I(q_minus_1: int, alpha: float) -> float:
    """I(q-1, alpha) = (1 - H(q, alpha)) * ln(q) for field order q."""
    q = q_minus_1 + 1
    return (1.0 - entropy_H(q, alpha)) * math.log(q)


def gap_I_limit(alpha: float) -> float:
    """sup over theta < 0 of alpha*theta - ln((e^theta - 1)/theta)."""
    def neg(theta: float) -> float:
        return -(alpha * theta - math.log(math.expm1(theta) / theta))

    _, v = _refine_min(neg, _THETA_GRID, [neg(t) for t in _THETA_GRID],
                       1e-12)
    return -v


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


@lru_cache(maxsize=64)
def _g_grid(q: int) -> np.ndarray:
    """The alpha-independent part of the H objective on the theta grid."""
    logq = math.log(q)
    v = _THETA_GRID * logq / (q - 1)
    return np.log(np.expm1(q * v) / np.expm1(v)) / logq


def _entropy_grid(q: int, alphas: np.ndarray) -> np.ndarray:
    """Grid-scan approximation of H for a vector of alphas (upper bound on
    the true infimum; refined by entropy_H where precision matters)."""
    vals = -np.outer(alphas, _THETA_GRID) + _g_grid(q)[None, :]
    return np.minimum(vals.min(axis=1), 1.0)


def _sup_term(q: int, d: int, kappa: float) -> float:
    """sup over delta in [0, kappa] of H(q, delta(d-1)/(1-delta))*(1-delta)."""
    if d == 1 or kappa <= 0.0:
        return 0.0
    deltas = np.linspace(0.0, kappa, 257)[1:]
    alphas = deltas * (d - 1) / (1.0 - deltas)
    terms = _entropy_grid(q, alphas) * (1.0 - deltas)

    def neg(delta: float) -> float:
        if delta <= 0.0:
            return 0.0
        a = delta * (d - 1) / (1.0 - delta)
        return -entropy_H(q, a) * (1.0 - delta)

    _, v = _refine_min(neg, deltas, -terms, max(kappa * 1e-9, 1e-16))
    return max(-v, 0.0)


def zeta(q: int, d: int) -> ExponentReport:
    """Minimise max(1-kappa, sup-term) over kappa in (0, 1/(2d-1))."""
    _factor_prime_power(q)  # raises NotPrimePowerError otherwise
    if d < 1:
        raise ValueError("d must be at least 1")
    bound = 1.0 - min(1.0 / (8.0 * math.log(q)), 1.0 / (4.0 * d))
    kmax = 1.0 / (2 * d - 1)
    if d == 1:
        # the sup branch vanishes (alpha = 0), so zeta(kappa) = 1 - kappa
        kappa_star = kmax - 1e-5
        return ExponentReport(q, d, kappa_star, 1.0 - kappa_star, bound)

    def f(kappa: float) -> float:
        return max(1.0 - kappa, _sup_term(q, d, kappa))

    lo = kmax * 1e-9
    hi = kmax * (1.0 - 1e-9)
    # coarse bracket first: f is a max of a decreasing and a nondecreasing
    # function of kappa, hence quasiconvex
    grid = np.linspace(lo, hi, 33)
    # resolution: 1e-5 absolute, but relative for huge d where the whole
    # kappa range is smaller than that
    kappa_star, z = _refine_min(f, grid, [f(x) for x in grid],
                                min(1e-5, kmax * 1e-7))
    return ExponentReport(q, d, kappa_star, z, bound)


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
    """Exponent reports for every prime power q <= qmax and d = 1..dmax."""
    return [zeta(q, d) for q in prime_powers(qmax) for d in range(1, dmax + 1)]


def format_exponent_csv(reports: list[ExponentReport]) -> str:
    lines = ["q,d,kappa_star,zeta,theorem1_bound"]
    for r in reports:
        lines.append(f"{r.q},{r.d},{r.kappa_star:.6f},{r.zeta:.6f},"
                     f"{r.theorem1_bound:.6f}")
    return "\n".join(lines) + "\n"
