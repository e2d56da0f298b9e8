"""Brute-force ground truth by exhaustive evaluation.

Everything here evaluates polynomials over the full grid GF(q)^n with its
own dense tensor code (scatter coefficients into a cube with one plane per
exponent 0..top_a on each axis a, then apply the univariate value map
x^e, built by columns, along every axis).  The univariate inverse is in
closed form, from the power table; the trimmed one comes from a
Gauss-Jordan routine, _solve, in elementwise field arithmetic.  No code is
shared with the solver or the trimmed transform beyond field arithmetic,
so these functions serve as independent witnesses in every equivalence
test, the CNF reduction's included: its witness interpolates each
polynomial's values on the whole grid with grid_interpolate.  plurality
is the scalar witness for the solver's column-wise vote,
core.streamed_plurality.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidParamsError, TooLargeError
from .field import FieldSpec, check_entries
from .mpoly import Polynomial, PolySystem

# most exponent planes x q^n of the dense walks in one call: the full walk
# of GF(1021)^2, 2 * 1021^3 ~ 2.13e9 products, takes about 30 s on a
# 2-core Xeon
WALK_LIMIT = 2 ** 31


def _check_walk(planes: int, q: int, n: int) -> None:
    """Refuse, before any allocation, dense walks of planes exponent
    planes in total over GF(q)^n: each plane costs up to q^n products."""
    if planes * q ** n > WALK_LIMIT:
        raise TooLargeError(f"{planes} exponent planes over a grid of "
                            f"{q}^{n} points pass {WALK_LIMIT} products")


@cache
def _pow_matrix(field: FieldSpec) -> np.ndarray:
    """pw[x, e] = x^e, the univariate coefficient-to-values map."""
    q = field.q
    check_entries(q * q, f"the power table of GF({q})")
    idx = np.arange(q, dtype=np.int64)
    mat = np.ones((q, q), dtype=np.int64)
    for e in range(1, q):
        mat[:, e] = field.vmul(mat[:, e - 1], idx)
    mat.setflags(write=False)  # cached: shared by every caller
    return mat


def _solve(field: FieldSpec, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with a @ x = rhs, for a square invertible a and a vector or matrix
    rhs, by Gauss-Jordan elimination with elementwise field arithmetic."""
    a = np.array(a, dtype=np.int64)
    x = np.array(rhs, dtype=np.int64).reshape(len(a), -1)
    for col in range(len(a)):
        piv = col + int(np.flatnonzero(a[col:, col])[0])
        a[[col, piv]] = a[[piv, col]]
        x[[col, piv]] = x[[piv, col]]
        c = field.inv(int(a[col, col]))
        a[col] = field.vmul(c, a[col])
        x[col] = field.vmul(c, x[col])
        rows = np.flatnonzero(a[:, col])
        rows = rows[rows != col]
        f = a[rows, col, None]
        a[rows] = field.vsub(a[rows], field.vmul(f, a[col]))
        x[rows] = field.vsub(x[rows], field.vmul(f, x[col]))
    return x.reshape(np.shape(rhs))


@cache
def _pow_inverse(field: FieldSpec) -> np.ndarray:
    """Inverse of the coefficient-to-values map, in closed form: the
    coefficient of x^0 is the value at 0, and for e >= 1 that of x^e is
    -sum_a f(a) a^(q-1-e) (with 0^0 = 1), since sum_a a^j is -1 for
    j = q-1 and 0 for 0 <= j < q-1."""
    q = field.q
    inv = np.zeros((q, q), dtype=np.int64)
    inv[0, 0] = 1
    inv[1:] = field.vneg(_pow_matrix(field)[:, q - 2::-1].T)
    inv.setflags(write=False)  # cached: shared by every caller
    return inv


def _apply_axis_dense(field: FieldSpec, cube: np.ndarray, axis: int,
                      mat: np.ndarray) -> np.ndarray:
    """out[..., j, ...] = sum_e mat[j, e] * cube[..., e, ...] along axis,
    one column of mat per plane of cube, accumulated one plane e at a time
    with elementwise field arithmetic (not through the solver's matrix
    kernel)."""
    moved = np.moveaxis(cube, axis, 0)
    planes = moved.reshape(len(moved), -1)
    out = np.zeros((len(mat), planes.shape[1]), dtype=np.int64)
    for e, plane in enumerate(planes):
        out = field.vadd(out, field.vmul(mat[:, e, None], plane))
    return np.moveaxis(out.reshape((len(mat),) + moved.shape[1:]), 0, axis)


def grid_evaluate(poly: Polynomial) -> np.ndarray:
    """Values of poly (n >= 1) on all of GF(q)^n, flat in lexicographic
    point order (first variable most significant).  Axis a walks only the
    exponent planes 0..top_a, top_a being the largest exponent of
    variable a."""
    field = poly.field
    exps, coeffs = poly.term_arrays()
    tops = exps.max(axis=0, initial=0)
    cube = np.zeros(tops + 1, dtype=np.int64)
    cube[tuple(exps.T)] = coeffs
    pw = _pow_matrix(field)
    for axis in range(poly.n):
        cube = _apply_axis_dense(field, cube, axis, pw[:, :tops[axis] + 1])
    return cube.reshape(-1)


def grid_interpolate(field: FieldSpec, values: np.ndarray, n: int) -> Polynomial:
    """The unique polynomial with per-variable degree <= q-1 matching the
    full-grid value vector (lexicographic point order)."""
    q = field.q
    if n == 0:
        return Polynomial.constant(field, 0, int(values[0]))
    _check_walk(n * q, q, n)
    cube = np.array(values, dtype=np.int64).reshape((q,) * n)
    inv = _pow_inverse(field)
    for axis in range(n):
        cube = _apply_axis_dense(field, cube, axis, inv)
    # argwhere and the mask both list the nonzero entries in row-major
    # order, which is the lexicographic exponent order
    return Polynomial.from_term_arrays(field, n, np.argwhere(cube),
                                       cube[cube != 0])


def trimmed_points(q: int, n: int, delta: int, b: int) -> np.ndarray:
    """T(n-b, delta) x GF(q)^b as an (N, n) array: the full grid filtered
    by the sum of the first n-b coordinates, in itertools.product's
    order, which is lexicographic with the first coordinate most
    significant."""
    pts = [p for p in itertools.product(range(q), repeat=n)
           if sum(p[:n - b]) <= delta]
    return np.array(pts, dtype=np.int64).reshape(len(pts), n)


def dense_interpolate(ev) -> Polynomial:
    """The polynomial that interpolate_trimmed must return for the
    TrimmedEvaluation ev, found without the trimmed transform: solve the
    linear system from monomials to point values by Gauss-Jordan
    elimination over the field, O(|T|^3)."""
    field = ev.field
    ps = ev.point_set
    # coefficient support mirrors the point set (the first n-b exponents
    # sum to at most delta, the trailing b are unconstrained), so the system
    # is square, and invertible because interpolation on T is unique
    pts = trimmed_points(ps.q, ps.n, ps.delta, ps.b)
    pw = _pow_matrix(field)
    a = np.ones((len(pts), len(pts)), dtype=np.int64)
    for var in range(ps.n):
        a = field.vmul(a, pw[pts[:, var][:, None], pts[:, var][None, :]])
    sol = _solve(field, a, ev.values)
    return Polynomial.from_terms(field, ps.n, zip(pts.tolist(), sol.tolist()))


@dataclass
class RootCount:
    count: int
    n: int
    q: int


def _indicator_values(system: PolySystem) -> np.ndarray:
    """0/1 vector over the full grid: 1 exactly at common roots.  Refuses
    first, through check_entries, a grid whose evaluation holds too many
    entries (tracemalloc reads about 5 int64 arrays of q^n entries where
    the field has q x q tables and 3 + 2k otherwise, counted as 6 and
    4 + 2k), or whose evaluations would walk more than WALK_LIMIT
    products."""
    field, n = system.field, system.n
    size = field.q ** n
    arrays = 6 if field.add_table is not None else 4 + 2 * field.k
    check_entries(arrays * size,
                  f"{arrays} arrays over a grid of {field.q}^{n} points")
    planes = sum(n + int(p.term_arrays()[0].max(axis=0, initial=0).sum())
                 for p in system.polys)  # sum over axes of top_a + 1
    _check_walk(planes, field.q, n)
    mask = np.ones(size, dtype=bool)
    for p in system.polys:
        mask &= grid_evaluate(p) == 0
    return mask.astype(np.int64)


def count_common_roots(system: PolySystem) -> RootCount:
    """Exact number of common roots, by exhaustive enumeration."""
    return RootCount(int(_indicator_values(system).sum()), system.n,
                     system.field.q)


def brute_Z(system: PolySystem) -> int:
    """Field sum of the indicator over the full grid: the root count
    reduced into the prime subfield."""
    return count_common_roots(system).count % system.field.p


def brute_partial_sum(system: PolySystem, beta: int) -> Polynomial:
    """The exact partial-sum polynomial: the indicator summed over every
    assignment of the last beta variables, reduced to the unique
    representative with per-variable degree <= q-1."""
    field = system.field
    q, n = field.q, system.n
    if not 0 <= beta <= n:
        raise ValueError("need 0 <= beta <= n")
    _check_walk((n - beta) * q, q, n - beta)  # grid_interpolate's, up front
    ind = _indicator_values(system)
    rows = ind.reshape(q ** (n - beta), q ** beta)
    zvals = rows.sum(axis=1) % field.p
    return grid_interpolate(field, zvals, n - beta)


def plurality(values) -> int:
    """Most frequent value; ties broken by smallest element index."""
    if len(values) == 0:
        raise InvalidParamsError("plurality of an empty list")
    counts = Counter(int(v) for v in values)
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
