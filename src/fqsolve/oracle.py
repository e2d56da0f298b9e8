"""Brute-force ground truth by exhaustive evaluation.

Everything here evaluates polynomials over the full grid GF(q)^n with its
own dense tensor code (scatter coefficients into a q x ... x q cube, then
apply the univariate value map along every axis).  No code is shared with
the solver or the trimmed transform beyond field arithmetic, so these
functions serve as independent witnesses in every equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import TooLargeError
from .field import FieldSpec
from .mpoly import Polynomial, PolySystem, point_matrix

COUNT_LIMIT = 10 ** 8
PARTIAL_LIMIT = 10 ** 7


@cache
def _pow_matrix(field: FieldSpec) -> np.ndarray:
    """pw[x, e] = x^e, the univariate coefficient-to-values map."""
    q = field.q
    mat = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for e in range(q):
            mat[x, e] = field.pow(x, e)
    mat.setflags(write=False)  # cached: shared by every caller
    return mat


@cache
def _pow_inverse(field: FieldSpec) -> np.ndarray:
    """Inverse of the coefficient-to-values map, by Gauss-Jordan."""
    q = field.q
    a = _pow_matrix(field).copy()
    inv = np.eye(q, dtype=np.int64)
    for col in range(q):
        piv = next(r for r in range(col, q) if a[r, col])
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        c = field.inv(int(a[col, col]))
        a[col] = field.vmul(c, a[col])
        inv[col] = field.vmul(c, inv[col])
        for r in range(q):
            if r != col and a[r, col]:
                f = int(a[r, col])
                a[r] = field.vsub(a[r], field.vmul(f, a[col]))
                inv[r] = field.vsub(inv[r], field.vmul(f, inv[col]))
    inv.setflags(write=False)
    return inv


def _apply_axis_dense(field: FieldSpec, cube: np.ndarray, axis: int,
                      mat: np.ndarray) -> np.ndarray:
    """out[..., j, ...] = sum_e mat[j, e] * cube[..., e, ...] along axis,
    accumulated one plane e at a time with elementwise field arithmetic
    (not through the solver's matrix kernel)."""
    moved = np.moveaxis(cube, axis, 0)
    planes = moved.reshape(len(moved), -1)
    out = np.zeros_like(planes)
    for e, plane in enumerate(planes):
        out = field.vadd(out, field.vmul(mat[:, e, None], plane))
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def grid_evaluate(poly: Polynomial) -> np.ndarray:
    """Values of poly on all of GF(q)^n, flat in lexicographic point order
    (first variable most significant)."""
    field = poly.field
    q, n = field.q, poly.n
    if n == 0:
        return np.array([poly.evaluate(())], dtype=np.int64)
    cube = np.zeros((q,) * n, dtype=np.int64)
    for exps, c in poly.terms():
        cube[exps] = c
    pw = _pow_matrix(field)
    for axis in range(n):
        cube = _apply_axis_dense(field, cube, axis, pw)
    return cube.reshape(-1)


def grid_interpolate(field: FieldSpec, values: np.ndarray, n: int) -> Polynomial:
    """The unique polynomial with per-variable degree <= q-1 matching the
    full-grid value vector (lexicographic point order)."""
    q = field.q
    if n == 0:
        return Polynomial.constant(field, 0, int(values[0]))
    cube = np.array(values, dtype=np.int64).reshape((q,) * n)
    inv = _pow_inverse(field)
    for axis in range(n):
        cube = _apply_axis_dense(field, cube, axis, inv)
    flat = cube.reshape(-1)
    pairs = []
    for pos in np.flatnonzero(flat):
        exps = []
        rem = int(pos)
        for i in range(n):
            exps.append(rem // q ** (n - 1 - i))
            rem %= q ** (n - 1 - i)
        pairs.append((tuple(exps), int(flat[pos])))
    return Polynomial.from_terms(field, n, pairs)


def dense_interpolate(ev) -> Polynomial:
    """The polynomial that interpolate_trimmed must return for the
    TrimmedEvaluation ev, found without the trimmed transform: solve the
    linear system from monomials to point values by Gauss-Jordan
    elimination over the field, O(|T|^3)."""
    field = ev.field
    ps = ev.point_set
    n = ps.n
    # coefficient support mirrors the point set: the first n-b exponents sum
    # to at most delta, the trailing b exponents are unconstrained
    pts = point_matrix(ps.q, n, ps.delta, ps.b)
    monos = pts
    npts, nmono = len(pts), len(monos)
    pw = _pow_matrix(field)
    a = np.ones((npts, nmono), dtype=np.int64)
    for var in range(n):
        a = field.vmul(a, pw[pts[:, var][:, None], monos[:, var][None, :]])
    rhs = np.array(ev.values, dtype=np.int64)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    row = 0
    for col in range(nmono):
        sel = None
        for r in range(row, npts):
            if a[r, col]:
                sel = r
                break
        if sel is None:
            continue
        if sel != row:
            a[[row, sel]] = a[[sel, row]]
            rhs[[row, sel]] = rhs[[sel, row]]
        inv = field.inv(int(a[row, col]))
        a[row] = field.vmul(inv, a[row])
        rhs[row] = field.mul(inv, int(rhs[row]))
        for r in range(npts):
            if r != row and a[r, col]:
                c = int(a[r, col])
                a[r] = field.vsub(a[r], field.vmul(c, a[row]))
                rhs[r] = field.sub(int(rhs[r]), field.mul(c, int(rhs[row])))
        piv_rows.append(row)
        piv_cols.append(col)
        row += 1
    for r in range(row, npts):
        if rhs[r]:
            raise ValueError("evaluation vector is not consistent with the "
                             "degree bound")
    sol = np.zeros(nmono, dtype=np.int64)
    for r, c in zip(piv_rows, piv_cols):
        sol[c] = rhs[r]
    pairs = [(tuple(int(v) for v in monos[i]), int(sol[i]))
             for i in np.flatnonzero(sol)]
    return Polynomial.from_terms(field, n, pairs)


@dataclass
class RootCount:
    count: int
    n: int
    q: int


def _indicator_values(system: PolySystem) -> np.ndarray:
    """0/1 vector over the full grid: 1 exactly at common roots."""
    size = system.field.q ** system.n
    mask = np.ones(size, dtype=bool)
    for p in system.polys:
        mask &= grid_evaluate(p) == 0
    return mask.astype(np.int64)


def count_common_roots(system: PolySystem) -> RootCount:
    """Exact number of common roots, by exhaustive enumeration."""
    q, n = system.field.q, system.n
    if q ** n > COUNT_LIMIT:
        raise TooLargeError(f"grid size {q}^{n} exceeds {COUNT_LIMIT}")
    return RootCount(int(_indicator_values(system).sum()), n, q)


def brute_Z(system: PolySystem) -> int:
    """Field sum of the indicator over the full grid: the root count
    reduced into the prime subfield."""
    q, n = system.field.q, system.n
    if q ** n > COUNT_LIMIT:
        raise TooLargeError(f"grid size {q}^{n} exceeds {COUNT_LIMIT}")
    return int(_indicator_values(system).sum() % system.field.p)


def brute_partial_sum(system: PolySystem, beta: int) -> Polynomial:
    """The exact partial-sum polynomial: the indicator summed over every
    assignment of the last beta variables, reduced to the unique
    representative with per-variable degree <= q-1."""
    field = system.field
    q, n = field.q, system.n
    if not 0 <= beta <= n:
        raise ValueError("need 0 <= beta <= n")
    if q ** n > PARTIAL_LIMIT:
        raise TooLargeError(f"grid size {q}^{n} exceeds {PARTIAL_LIMIT}")
    ind = _indicator_values(system)
    rows = ind.reshape(q ** (n - beta), q ** beta)
    zvals = rows.sum(axis=1) % field.p
    return grid_interpolate(field, zvals, n - beta)
