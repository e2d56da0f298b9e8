"""The randomized full/partial-sum solver.

Deciding whether a system has a common root reduces to computing the
field sum Z of the indicator prod(1 - P_i^(q-1)) over the full grid:
random affine equations isolate a single solution with probability
Omega(1/n), in which case Z = 1.  Z itself is computed through partial
sum polynomials: Z_beta sums the indicator over the last beta variables
and has total degree at most (min(m*d, n) - beta)*(q-1), so it is
recoverable from its values on a trimmed point set.  The recursion
shrinks beta by ceil(lambda*n) per level, replaces the system by
beta'+2 random combinations per repetition, corrects the per-point
errors with plurality votes over t = ceil(96*n*ln q) repetitions, sums
over the freed suffix grid and re-evaluates.  When m*d >= n, delta0 =
(n-beta)*(q-1), so the top set T(n-beta, delta0) is the whole grid and
the full sum is the field sum of the voted top values.

The recursion runs on value vectors, not polynomials.  Random
combinations are linear, so every level's system is a coefficient
matrix over the m input polynomials, its draws times its parent's
matrix, and only the leaf needs values: the inputs are evaluated once,
on the point set of the deepest level.  A point's leaf indicator depends
only on its column of m input values, so the rows are split once (row
by row) into their C <= min(q^m, |leaf|) distinct columns and each
point's column index, and their one map is compiled once per sum.  The
level next to the leaf applies it to a chunk's coefficients, tests the
combinations for zero on the C columns and gathers the (repetition,
column) root table onto the leaf points before the suffix sum.
Repetitions are processed VOTE_CHUNK at a time as (repetition, point)
arrays, and each chunk is re-evaluated by one call of its level's
compiled map.  Leaf sums stay narrow, uint8 or the smallest unsigned
type of 0..p-1, and so do the gathers and fresh-point maps that
re-evaluate them.  Votes are counted per chunk, through one cell buffer
per vote, and voting stops once no point's leader can be overtaken by
the repetitions left.  Every repetition draws from its own
counter-based stream, so a vote draws the coefficients of every chunk
before the first one where it can stop in one Philox pass, and each
later chunk in one more; the repetitions drawn or skipped past the stop
change nothing and the output equals that of voting over all t.
Isolation trials stack the values of their affine equations, one
point-matrix product, under the system's, which solve_pes evaluates
once per leaf set.

When m*d < n the full sum is 0 and no recursion runs, in full_sum and in
each isolation trial (whose m counts its affine equations).  The
recursion would end in the same 0: Z_beta has total degree at most
delta0 = (min(m*d, n) - beta)*(q-1) < (n-beta)*(q-1), so each of its
monomials has some exponent below q-1 in one of the n-beta summed
variables, and sum_{x in GF(q)} x^e = 0 for 0 <= e < q-1.  This is the
Chevalley-Warning theorem; it holds for any values the votes agree on.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

import numpy as np

from .errors import InvalidParamsError
from .field import FieldSpec, check_entries
from .mpoly import (Polynomial, PolySystem, TrimmedPointSet, check_key_width,
                    point_matrix)
from .randomized import RngStream, rs_draw, vv_coefficients
from .transform import (TrimmedEvaluation, compile_reevaluation,
                        evaluate_values, interpolate_trimmed)

# Repetitions per batch.  Chunks bound the working arrays: on the C3
# shapes all t repetitions at once peak at 39.7 MB RSS, chunks of 64 at
# 38.0 MB, from 36.5 MB before the first call.
VOTE_CHUNK = 64


@dataclass
class SolverParams:
    """Tunables of the sum algorithms.

    kappa fixes the initial split beta = floor(kappa*n) and lambda the
    per-level decrement ceil(lambda*n); both are exact rationals with
    0 < lambda <= kappa < 1/(2d-1).  Left unset they default to
    kappa = 0.9/(2d-1) and lambda = kappa/2.  t_override replaces the
    default repetition count t = ceil(96*n*ln q); outer_reps defaults to
    ceil(9*n) isolation trials.
    """

    kappa: Fraction | None = None
    lam: Fraction | None = None
    t_override: int | None = None
    outer_reps: int | None = None
    seed: int = 0

    def resolve(self, n: int, d: int) -> tuple[Fraction, Fraction]:
        if d < 1 or n < 1:
            raise InvalidParamsError("need n >= 1 and d >= 1")
        limit = Fraction(1, 2 * d - 1)
        kappa = self.kappa if self.kappa is not None else Fraction(9, 10) * limit
        lam = self.lam if self.lam is not None else kappa / 2
        if not 0 < lam <= kappa < limit:
            raise InvalidParamsError(
                f"need 0 < lambda <= kappa < 1/(2d-1); got lambda={lam}, "
                f"kappa={kappa}, d={d}")
        if self.t_override is not None and self.t_override < 1:
            raise InvalidParamsError("t_override must be positive")
        if self.outer_reps is not None and self.outer_reps < 1:
            raise InvalidParamsError("outer_reps must be positive")
        return kappa, lam

    def repetitions(self, n: int, q: int) -> int:
        if self.t_override is not None:
            return self.t_override
        return math.ceil(96 * n * math.log(q))


def zdegree(m: int, beta: int, n: int, d: int, q: int) -> int:
    """Degree bound (min(m*d, n) - beta) * (q - 1) on the partial-sum
    polynomial of an m-polynomial degree-d system."""
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if not 0 <= beta <= n:
        raise ValueError("need 0 <= beta <= n")
    return (min(m * d, n) - beta) * (q - 1)


def streamed_plurality(chunks: Iterable[np.ndarray], q: int,
                       t: int) -> np.ndarray:
    """Column-wise plurality of a (t, N) vote matrix over GF(q), given as
    blocks of at most VOTE_CHUNK rows of any integer type; ties go to the
    smallest value.  Every block's cells go through one intp buffer.

    Stops taking blocks once, in every column, the leader's count exceeds
    the runner-up's by more than the rows still to come, so the result is
    the plurality of all t rows.
    """
    counts = None
    seen = 0
    for votes in chunks:
        npts = votes.shape[1]
        if counts is None:
            counts = np.zeros((q, npts), dtype=np.int64)
            buf = np.empty((min(t, VOTE_CHUNK), npts), dtype=np.intp)
        cells = buf[:len(votes)]
        np.multiply(votes, np.intp(npts), out=cells)
        cells += np.arange(npts)
        counts += np.bincount(cells.ravel(),
                              minlength=q * npts).reshape(q, npts)
        seen += len(votes)
        top = np.partition(counts, q - 2, axis=0)
        if np.all(top[q - 1] > top[q - 2] + (t - seen)):
            break
    return np.argmax(counts, axis=0)


def _levels(m: int, beta: int, n: int, d: int, q: int,
            lam_step: int) -> list[tuple[int, int, int]]:
    """(beta, delta, number of polynomials) of each recursion level, top
    first; the last level is the leaf."""
    levels = []
    while True:
        levels.append((beta, max(0, zdegree(m, beta, n, d, q)), m))
        if beta < lam_step or n <= 3:
            return levels
        beta -= lam_step
        m = beta + 2


def _leaf_sums(field: FieldSpec, values: np.ndarray, cls: np.ndarray | slice,
               b: int) -> np.ndarray:
    """Indicator sums over the grid suffix of b variables: `values` holds
    (system, polynomial, column) values on the distinct value columns of
    T(n-b, delta) x GF(q)^b, and cls the column of each point, an index
    array or, when the columns are the points, slice(None)."""
    roots = np.all(values == 0, axis=1)[:, cls]
    if not b:  # each sum is its one root, 0 or 1
        return roots.view(np.uint8)
    sums = roots.reshape(len(roots), -1, field.q ** b).sum(
        axis=2, dtype=np.min_scalar_type(field.q ** b)) % field.p
    return sums.astype(np.min_scalar_type(field.p - 1), copy=False)


def _first_pass(t: int) -> int:
    """The repetitions a vote over t draws in its first pass: the stop of
    streamed_plurality cannot fire before floor(t/2) + 1 rows, so every
    chunk up to that row."""
    return min(t, -(-(t // 2 + 1) // VOTE_CHUNK) * VOTE_CHUNK)


def _rs_chunks(q: int, mu: int, m: int, rng: RngStream, t: int):
    """(j, rho): the (repetitions, mu, m) RS coefficients of a vote's
    repetitions j, j+1, ..., VOTE_CHUNK at a time; repetition j draws from
    rng.child(2*j).  The first _first_pass(t) are drawn in one pass, the
    rest one chunk per pass, when the vote asks for them."""
    first = _first_pass(t)
    start = 0
    while start < t:
        end = first if start == 0 else min(start + VOTE_CHUNK, t)
        rho = rs_draw(q, mu, m, rng.child_keys(range(2 * start, 2 * end, 2)))
        for i in range(0, end - start, VOTE_CHUNK):
            yield start + i, rho[i:i + VOTE_CHUNK]
        start = end


def _vote(field: FieldSpec, levels, i: int, coeffs: np.ndarray | None,
          leaf, rng: RngStream, t: int, n: int) -> np.ndarray:
    """Values of level i's partial sum on T(n - beta_i, delta_i), for the
    system whose coefficients over the m input polynomials are the rows
    of `coeffs` (None at level 0, whose system is the input); `leaf` maps
    a chunk's (repetition, mu, m) coefficients to its leaf sums."""
    q = field.q
    beta, delta, m_i = levels[i]
    beta_c, delta_c, mu = levels[i + 1]
    suffix = beta - beta_c
    reevaluate = compile_reevaluation(field, n - beta_c, delta_c, delta,
                                      suffix)

    def chunks():
        for start, rho in _rs_chunks(q, mu, m_i, rng, t):
            if coeffs is not None:
                rho = field.matmul(rho, coeffs)
            if i + 2 == len(levels):
                sub = leaf(rho)
            else:
                sub = np.stack([_vote(field, levels, i + 1, r, leaf,
                                      rng.child(2 * j + 1), t, n)
                                for j, r in enumerate(rho, start)])
            yield reevaluate(sub)

    agreed = streamed_plurality(chunks(), q, t)
    return field.vsum_axis(agreed.reshape(-1, q ** suffix), 1)


def _array_sizes(field: FieldSpec, n: int, levels,
                 t: int) -> dict[tuple[str, int], tuple[int, str]]:
    """The most entries each kind of the recursion's arrays reaches, keyed
    by (kind, vote level), with a description.  Counted are the input
    rows on the leaf set and the one compiled map of their C <= min(q^m,
    |leaf|) distinct columns (k^2 entries per row entry over GF(p^k));
    per vote level, its first RS pass's 32-bit draws (see _rs_chunks),
    below the top a chunk's draws composed over the m inputs, and a
    chunk's values on the set it re-evaluates through (the child's set
    and the target); and next to the leaf a chunk's combinations on the C
    columns and their root table on the leaf points.  Float products
    (float32 or float64, see field.py) are k digits wide, so their counts
    carry k.  Entries are counted whatever their type; a vote's cell
    buffer lies within its re-evaluation count.  Not counted: rs_draw's
    temporaries, three to four times the draws, a composition's m_i x m
    map and _distinct_columns' point-length vectors."""
    q, k = field.q, field.k
    beta_leaf, delta_leaf, _ = levels[-1]
    leaf = TrimmedPointSet(q, n, delta_leaf, beta_leaf).size()
    chunk, m = min(t, VOTE_CHUNK), levels[0][2]
    first = _first_pass(t)
    cols = min(q ** m, leaf)
    on_cols = f"at most {cols} distinct columns over GF({q})"
    sizes = {("rows", 0): (m * leaf, f"{m} rows on {leaf} leaf points"),
             ("compiled", 0): (cols * m * k * k,
                               f"the map of {m} rows on {on_cols}")}
    for i, ((beta, delta, m_i), (beta_c, delta_c, mu)) in enumerate(
            zip(levels, levels[1:])):
        work = TrimmedPointSet(q, n - beta_c, max(delta, delta_c),
                               beta - beta_c).size()
        sizes["draws", i] = (first * 8 * -(-mu * m_i // 8), f"the draws of "
                             f"{first} repetitions of {mu}x{m_i} "
                             f"coefficients")
        if i:
            sizes["coefficients", i] = (
                chunk * mu * m * k, f"{chunk} repetitions of {mu}x{m} "
                f"composed coefficients")
        if i + 2 == len(levels):
            sizes["combinations", i] = (
                chunk * mu * cols * k, f"{chunk} repetitions of {mu} "
                f"combinations on {on_cols}")
            sizes["roots", i] = (chunk * leaf, f"the roots of {chunk} "
                                 f"repetitions on {leaf} leaf points")
        sizes["re-evaluation", i] = (
            chunk * work * k,
            f"{chunk} repetitions on {work} points over GF({q})")
    return sizes


def _distinct_columns(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(base, axis=1, return_inverse=True) for rows of field
    elements: the distinct columns in lexicographic order and each
    column's index among them.  Ranks the columns one row at a time, so
    each key stays below base.shape[1] * q and the split holds a few
    point-length vectors, not copies of the rows."""
    cls = np.zeros(base.shape[1], dtype=np.int64)
    for row in base:
        cls = np.unique(cls * (row.max() + 1) + row, return_inverse=True)[1]
    # equal columns share a class, so any point of a class stands for it
    rep = np.empty(cls.max() + 1, dtype=np.int64)
    rep[cls] = np.arange(len(cls))
    return base[:, rep], cls


def _check_sizes(field: FieldSpec, n: int, levels, t: int) -> None:
    """Refuse, through check_entries, a recursion one of whose arrays
    would hold too many entries (see _array_sizes)."""
    for entries, what in _array_sizes(field, n, levels, t).values():
        check_entries(entries, f"{what} in the recursion")


def _voted_sum(field: FieldSpec, n: int, d: int, m: int, beta: int,
               params: SolverParams, rng: RngStream,
               values_at) -> TrimmedEvaluation:
    """Values of the partial sum over the first n - beta variables on its
    trimmed set, for the m-polynomial degree-d system whose values on
    T(n-b, delta) x GF(q)^b are the rows of values_at(delta, b)."""
    q = field.q
    _, lam = params.resolve(n, d)
    if m == 0:
        # empty product: indicator is constantly 1, partial sums are q^beta
        return TrimmedEvaluation(field, TrimmedPointSet(q, n - beta, 0, 0),
                                 np.array([q ** beta % field.p]))
    levels = _levels(m, beta, n, d, q, math.ceil(lam * n))
    t = params.repetitions(n, q)
    _check_sizes(field, n, levels, t)
    beta_leaf, delta_leaf, _ = levels[-1]
    base = values_at(delta_leaf, beta_leaf)
    if len(levels) == 1:
        zvals = _leaf_sums(field, base[None], slice(None), beta)[0]
    else:
        cols, cls = _distinct_columns(base)
        combine = field.compile_matrix(cols.T)

        def leaf(rho):
            sums = combine(rho.reshape(-1, m)).reshape(*rho.shape[:2], -1)
            return _leaf_sums(field, sums, cls, beta_leaf)
        zvals = _vote(field, levels, 0, None, leaf, rng, t, n)
    top = TrimmedPointSet(q, n - beta, levels[0][1], 0)
    return TrimmedEvaluation(field, top, zvals)


def _indicator_sum(field: FieldSpec, n: int, d: int, m: int, beta: int,
                   params: SolverParams, rng: RngStream, values_at) -> int:
    """Field sum over the whole grid of the indicator of the m-polynomial
    degree-d system of _voted_sum; 0 without a recursion when m*d < n
    (Chevalley-Warning).  Otherwise the top set T(n-beta, (n-beta)(q-1))
    is the whole grid GF(q)^(n-beta), so the sum is the field sum of the
    voted values."""
    if m * d < n:
        return 0
    return field.vsum(_voted_sum(field, n, d, m, beta, params, rng,
                                 values_at).values)


def partial_sum(system: PolySystem, beta: int, params: SolverParams,
                rng: RngStream) -> Polynomial:
    """The partial-sum polynomial over the first n - beta variables;
    equals the exact one except with probability at most q^-n."""
    n = system.n
    if not 0 <= beta <= n:
        raise InvalidParamsError(f"beta {beta} out of range 0..{n}")
    return interpolate_trimmed(_voted_sum(
        system.field, n, system.d, len(system.polys), beta, params, rng,
        partial(evaluate_values, system.field, n, system.polys)))


def full_sum(system: PolySystem, params: SolverParams, rng: RngStream) -> int:
    """The field sum of the indicator over the whole grid, correct except
    with probability at most q^-n."""
    field, n, d = system.field, system.n, system.d
    beta = math.floor(params.resolve(n, d)[0] * n)
    return _indicator_sum(field, n, d, len(system.polys), beta, params,
                          rng.child(0),
                          partial(evaluate_values, field, n, system.polys))


def solve_pes(system: PolySystem, params: SolverParams) -> bool:
    """True iff the system has a common root (bounded-error randomized).

    Runs outer_reps independent trials, each appending the value rows of
    random affine equations to the system's, evaluated once per leaf set,
    and computing the full sum; answers SAT iff some trial's sum is
    nonzero.  Unsatisfiable systems stay unsatisfiable under appended
    equations, so a false SAT requires a partial-sum failure.
    """
    field, n, d = system.field, system.n, system.d
    check_key_width(field.q, n)  # before the trials build point matrices
    beta = math.floor(params.resolve(n, d)[0] * n)
    reps = params.outer_reps if params.outer_reps is not None else math.ceil(9 * n)
    system_values = cache(partial(evaluate_values, field, n, system.polys))
    root = RngStream(params.seed)
    for r in range(reps):
        trial = root.child(r)
        coeffs = vv_coefficients(field.q, n, trial.child(0))

        def values_at(delta, b):
            affine = field.matmul(point_matrix(field.q, n, delta, b),
                                  coeffs[:, :n].T).T
            return np.concatenate([system_values(delta, b),
                                   field.vadd(affine, coeffs[:, n:])])

        if _indicator_sum(field, n, d, len(system.polys) + len(coeffs), beta,
                          params, trial.child(1).child(0), values_at):
            return True
    return False
