"""Trimmed multipoint evaluation and interpolation over GF(q).

A polynomial of total degree at most D in n variables is determined by
its values on T(n-b, D) x GF(q)^b.  Both directions work axis by axis
over the element enumeration 0, 1, ..., q-1.  A full axis, one whose
slices all hold q values (the grid suffix, and every axis of a
full-degree set), converts between monomials and values directly;
every other axis goes through the Newton basis:

  evaluation    = (monomial -> Newton), then (Newton -> values);
  interpolation = the exact reverse.

Newton-to-values is lower triangular and monomial-to-Newton preserves the
total-degree filtration, so every one-dimensional slice of the trimmed
set closes under both passes and the work per axis is one small
triangular matrix per slice.  Total cost is O(n * |T| * q^b) field
operations (constants depending on q); FIELD_OPS accumulates the
algorithm's nominal multiply-accumulate count, for scaling measurements:
each axis pass adds batch * (sum of its slice lengths squared), skipped
slices included, a fresh-point map (below) batch * |T_from| * |fresh|,
and a gather 0.

A slice of length ln goes through the leading ln x ln block of its frame.
Where that block is the identity the pass skips the slice, which is exact,
since those values are already in place.  This holds for every frame at
ln = 1, for both monomial/Newton frames at ln = 2 (sigma_0 = 0 makes
N_1 = x), and for the inverse Vandermonde at ln = 2 in GF(2^k), k >= 2,
where -a^(q-2) is 0 at a = 0 and 1 at a = 1.

The passes run on float digit rows (`FieldSpec.to_digits`: each value
becomes its k base-p digits), one row per value vector of a batch;
`evaluate_values` and the maps of `compile_reevaluation` are the batched
forms the solver uses.  `evaluate_values`, `interpolate_trimmed` and the
axis route convert their int64 values to digit rows once, run every pass
on those rows in place, and convert back once.  The rows have one float
type per field, the one its largest block, q x q, needs
(`FieldSpec.float_type`): float32 for every q <= 81 and every prime up to
157, float64 above.  A pass holds the rows in its axis's slice order, in
which the slices of each length form one contiguous run: each block
takes its run in every row through one product of the field's matrix
kernel (`FieldSpec.compile_product`) and writes it back in place, with
no gather or scatter of its own.  Going from one order to the next is one
`np.take` of whole elements (the k digits of an element viewed as one
item); the orders and the moves between them are cached per point set in
`_PointData`, and a pass whose every block is the identity does not move
the rows.

The block products are left unreduced, and the rows carry a bound B on
their entries, p-1 at first.  A pass multiplies B by ln*k*(p-1), for ln
its longest applied block, and the whole rows are reduced in place
(`FieldSpec.reduce_digits`) before a pass whose products could reach the
exact limit of their type (`field.digit_limit`).  They are also reduced
before they are converted back, and, in the axis route, before the
Newton rows are copied into the target set.  Every product then stays
below the limit and is exact (the field module docstring has the proof),
so the values are those of reducing every product.  With q x q blocks
this is one reduction every 21 passes at q = 2, every other pass at q =
81, and before every pass at q = 157.

`compile_reevaluation` compiles the map from the values of polynomials
of degree <= dfrom on T_from = T(n, dfrom) to their values on the target
T(n-b, dto) x GF(q)^b.  Trimmed sets nest: a source point lies in every
set of degree at least its own, with the value it already has, since it
is the same polynomial.  So the target splits into its known points,
which lie in the source, and the fresh rest.  The split and the route
are found when the map is compiled, once per (field, n, dfrom, dto, b)
while the map stays among the 64 cached; every route gives the same
values:

  gather    with no fresh point (dto + b(q-1) <= dfrom): the values are
            copied from their source positions and nothing is computed;
  map       when |T_from| * |fresh| * k^2 <= DENSE_LIMIT: the gather of
            the known values, and one product with a |T_from| x |fresh|
            map for the fresh ones;
  axis      otherwise: 2n axis passes, interpolating into the Newton
            basis on the source set and evaluating from there.

The axis route is the definition; the fresh-point map is only its memo.
It is linear over GF(q), so it is the axis route applied to the rows of
the identity matrix, 64 rows at a time, keeping the fresh columns and
compiled by `compile_matrix`; the build never holds a map onto the
whole set the axis route works on.

The six per-field frames come from closed forms, one column or row per
vector step, and no matrix is inverted: x N_i = N_{i+1} + sigma_i N_i
writes monomials in the Newton basis, divided differences invert the
Newton frame, and the indicator 1 - (x - a)^(q-1) inverts the Vandermonde.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import DegreeTooHighError, SizeMismatchError
from .field import FieldSpec, check_entries, digit_limit, make_field
from .mpoly import (Polynomial, TrimmedPointSet, check_key_width,
                    point_matrix)

FIELD_OPS = 0

# Largest |T_from| * |fresh| * k^2 for which compile_reevaluation composes
# its axis passes onto the fresh points into one map: 2^18 float64
# entries, 2 MiB a map and at most 128 MiB for its 64-entry cache.  Read
# when a map is compiled.  A constant by design.
DENSE_LIMIT = 1 << 18


@dataclass(frozen=True)
class TrimmedEvaluation:
    """Values of a degree-bounded polynomial in canonical point order,
    held as a read-only int64 copy of the values given."""

    field: FieldSpec
    point_set: TrimmedPointSet
    values: np.ndarray

    def __post_init__(self):
        # an axis pass leaves the slices of its identity blocks unreduced,
        # so a value outside the field, a float truncated on the way in or
        # one written in later would reach the coefficients
        vals, q = np.array(self.values), self.field.q
        size = self.point_set.size()
        if vals.shape != (size,):
            raise SizeMismatchError(f"values of shape {vals.shape} for a "
                                    f"point set of size {size}")
        if (vals.dtype.kind not in "iu"
                or not 0 <= vals.min() <= vals.max() < q):
            raise SizeMismatchError(
                f"values must lie in 0..{q - 1} and be integers")
        vals = vals.astype(np.int64, copy=False)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# cached per-(q, n, delta, b) slice structure
# ---------------------------------------------------------------------------

class _PointData:
    """The points of T(n-b, delta) x GF(q)^b in canonical (key) order and,
    per axis, in the axis's slice order: sorted by slice length (q on a
    grid axis, min(q-1, delta - s) + 1 on a trimmed one for s the sum of
    the other trimmed coordinates), then by the other coordinates, then
    by the axis's own.  spans maps each length to its run in that order,
    ops is the sum of the slice lengths squared, and full whether every
    slice holds all q values: true on the grid suffix and on every axis
    of a full-degree set, which take the direct frames W and Winv."""
    __slots__ = ("points", "keys", "strides", "orders", "spans", "ops",
                 "full", "_moves")

    def __init__(self, q: int, n: int, delta: int, b: int):
        pts = point_matrix(q, n, delta, b)
        self.points = pts
        self.strides = np.array([q ** (n - 1 - i) for i in range(n)],
                                dtype=np.int64)
        self.keys = pts @ self.strides  # ascending, since pts is lex sorted
        trimmed = pts[:, :n - b].sum(axis=1)
        self.orders, self.spans, self.ops, self.full = [], [], [], []
        self._moves = {}
        for axis in range(n):
            coord = pts[:, axis]
            lengths = (np.minimum(q - 1, delta - trimmed + coord) + 1
                       if axis < n - b else np.full(len(pts), q))
            order = np.lexsort(
                (coord, self.keys - coord * self.strides[axis], lengths))
            lns, starts, sizes = np.unique(lengths[order], return_index=True,
                                           return_counts=True)
            # int32 halves what the orders hold; the moves that the passes
            # gather with are int64, which np.take uses without a copy
            self.orders.append(order.astype(np.int32))
            self.spans.append({int(ln): (int(at), int(at + size))
                               for ln, at, size in zip(lns, starts, sizes)})
            self.ops.append(int(lengths.sum()))
            self.full.append(bool(lns[0] == q))

    def move(self, frm: int | None, to: int | None) -> np.ndarray:
        """The positions in order frm of the points of order to, in order;
        None is the canonical order, an int an axis's slice order."""
        if (frm, to) not in self._moves:
            size = len(self.keys)
            dst = np.arange(size) if to is None else self.orders[to]
            if frm is not None:
                inv = np.empty(size, dtype=np.int64)
                inv[self.orders[frm]] = np.arange(size)
                dst = inv[dst]
            self._moves[frm, to] = dst.astype(np.int64, copy=False)
        return self._moves[frm, to]


@lru_cache(maxsize=512)
def _point_data(q: int, n: int, delta: int, b: int) -> _PointData:
    return _PointData(q, n, delta, b)


def _effective_delta(q: int, n: int, delta: int, b: int) -> int:
    return min(delta, (n - b) * (q - 1))


@lru_cache(maxsize=512)
def _positions(q: int, n: int, delta_small: int, b_small: int,
               delta_big: int, b_big: int) -> np.ndarray:
    """Positions of the points of T(n-b_small, delta_small) x grid inside
    T(n-b_big, delta_big) x grid, which must contain them."""
    small = _point_data(q, n, delta_small, b_small)
    big = _point_data(q, n, delta_big, b_big)
    return np.searchsorted(big.keys, small.keys)


# ---------------------------------------------------------------------------
# per-field univariate conversion matrices
# ---------------------------------------------------------------------------

@cache
def _matrices(field: FieldSpec) -> dict[str, np.ndarray]:
    q = field.q
    check_entries(6 * q * q, f"the transform frames of GF({q})")
    idx = np.arange(q, dtype=np.int64)
    recip = np.array([0] + [field.inv(a) for a in range(1, q)],
                     dtype=np.int64)
    # Vandermonde w[j, e] = sigma_j^e over the index enumeration, and the
    # Newton frames newton[j, i] = N_i(sigma_j) and ntom[e, i] = coeff of
    # x^e in N_i, where N_{i+1} = (x - sigma_i) N_i; one column per step.
    # Their inverses: x N_i = N_{i+1} + sigma_i N_i gives column e of mton
    # (x^e in the Newton basis) from column e-1, and row i of vninv holds
    # the divided-difference weights 1 / prod_{k <= i, k != j} (sigma_j -
    # sigma_k), which row i-1 divides by (sigma_j - sigma_i)
    w, newton, ntom, mton, vninv = np.zeros((5, q, q), dtype=np.int64)
    w[:, 0] = newton[:, 0] = ntom[0, 0] = mton[0, 0] = vninv[0, 0] = 1
    for i in range(1, q):
        w[:, i] = field.vmul(w[:, i - 1], idx)
        newton[:, i] = field.vmul(newton[:, i - 1], field.vsub(idx, i - 1))
        ntom[1:, i] = ntom[:-1, i - 1]
        ntom[:, i] = field.vsub(ntom[:, i], field.vmul(ntom[:, i - 1], i - 1))
        mton[1:, i] = mton[:-1, i - 1]
        mton[:, i] = field.vadd(mton[:, i], field.vmul(mton[:, i - 1], idx))
        vninv[i, :i] = field.vmul(vninv[i - 1, :i],
                                  recip[field.vsub(idx[:i], i)])
        vninv[i, i] = recip[newton[i, i]]
    # 1 - (x - a)^(q-1) is the indicator of a, and (x - a)^(q-1) =
    # sum_e a^(q-1-e) x^e in characteristic p, so winv[e, a] =
    # -a^(q-1-e) for e >= 1 while row 0 picks out a = 0
    winv = field.vneg(w[:, ::-1].T)
    winv[0] = 0
    winv[0, 0] = 1
    return {"W": w, "Winv": winv, "VN": newton, "VNinv": vninv,
            "NtoM": ntom, "MtoN": mton}


@cache
def _compiled_block(field: FieldSpec, name: str, ln: int):
    """The unreduced product of digit rows with the ln x ln leading block
    of a frame (`FieldSpec.compile_product`)."""
    # before _matrices, which near the limit spends seconds and gigabytes
    # on frames that compile_product would then refuse to expand
    field.check_matrix_size(ln, ln)
    return field.compile_product(_matrices(field)[name][:ln, :ln])


@cache
def _is_identity(field: FieldSpec, name: str, ln: int) -> bool:
    """Whether the ln x ln leading block of a frame is the identity, which
    an axis pass then skips.  Sized and built as _compiled_block would,
    so a refused block raises the same error here."""
    field.check_matrix_size(ln, ln)
    return np.array_equal(_matrices(field)[name][:ln, :ln],
                          np.eye(ln, dtype=np.int64))


def _float_type(field: FieldSpec) -> type:
    """The float type of the transform's digit rows over the field, the
    one its largest block, q x q, needs."""
    return field.float_type(field.q)


def _elements(digits: np.ndarray, k: int) -> np.ndarray:
    """A view of float digit rows with one item per field element, its k
    digits, so that gathers move whole elements."""
    if k == 1:
        return digits
    return digits.view(np.dtype((np.void, k * digits.itemsize)))


class _Rows:
    """Float digit rows over one point set, a vector or a (batch,
    points*k) array, held in the canonical order or in one axis's slice
    order (see _PointData).  Reordering is one gather of whole elements.
    Every entry is an integer in 0..bound, which the block products
    raise and `reduce` brings back to p-1; from the `digit_limit` of the
    rows' type on, a product or its reduction may not be exact."""
    __slots__ = ("field", "points", "ftype", "elems", "order", "bound")

    def __init__(self, field: FieldSpec, points: _PointData,
                 digits: np.ndarray):
        self.field, self.points, self.ftype = field, points, digits.dtype
        self.elems, self.order = _elements(digits, field.k), None
        self.bound = field.p - 1

    def arrange(self, order: int | None) -> np.ndarray:
        """The digit rows in the given order (None: canonical)."""
        if order != self.order:
            self.elems = np.take(self.elems,
                                 self.points.move(self.order, order), axis=-1)
            self.order = order
        return self.elems.view(self.ftype)

    def reduce(self) -> None:
        """Reduce every entry mod p in place, unless all are reduced."""
        p = self.field.p
        if self.bound >= p:
            self.field.reduce_digits(self.elems.view(self.ftype))
            self.bound = p - 1

    def values(self) -> np.ndarray:
        """The int64 values of the rows, in canonical order."""
        self.reduce()
        return self.field.from_digits(self.arrange(None))


def _apply_axis(field: FieldSpec, rows: _Rows, axis: int, name: str) -> None:
    """One axis pass in place.  In the axis's slice order the slices of
    each length are one contiguous run of rows * slices * ln elements,
    which goes through the length's block in one matrix application and
    is written back where it was.  The rows are put in that order only
    when some length's block is not the identity; identity blocks are
    left as they are, and still counted in FIELD_OPS.

    The products are not reduced.  Entries in 0..B come out of a block
    of length ln at most B * ln * k * (p-1), so the pass multiplies the
    rows' bound by that growth for its longest applied ln.  Where the
    new bound could reach the limit of the rows' type, the rows are reduced
    first, so every product stays below it and is exact (field module
    docstring); one pass from reduced rows never reaches it."""
    global FIELD_OPS
    spans = rows.points.spans[axis]
    batch = 1 if rows.elems.ndim == 1 else len(rows.elems)
    run = [ln for ln in spans if not _is_identity(field, name, ln)]
    if run:
        k = field.k
        growth = max(run) * k * (field.p - 1)
        if rows.bound * growth >= digit_limit(rows.ftype):
            rows.reduce()
        arr = rows.arrange(axis)
        for ln in run:
            start, stop = spans[ln]
            fn = _compiled_block(field, name, ln)
            seg = arr[..., start * k:stop * k]
            seg[...] = fn(seg.reshape(-1, ln * k)).reshape(seg.shape)
        rows.bound *= growth
    FIELD_OPS += batch * rows.points.ops[axis]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def evaluate_trimmed(poly: Polynomial, delta: int, b: int) -> TrimmedEvaluation:
    """Values of poly (total degree <= delta) on T(n-b, delta) x GF(q)^b."""
    if poly.degree() > delta >= 0:
        raise DegreeTooHighError(
            f"degree {poly.degree()} exceeds bound {delta}")
    values = evaluate_values(poly.field, poly.n, [poly], delta, b)[0]
    return TrimmedEvaluation(poly.field,
                             TrimmedPointSet(poly.field.q, poly.n, delta, b),
                             values)


def evaluate_values(field: FieldSpec, n: int, polys: Sequence[Polynomial],
                    delta: int, b: int) -> np.ndarray:
    """Values of each polynomial on T(n-b, delta) x GF(q)^b, one row each.

    Degrees above delta are allowed: the polynomials are then evaluated on
    the set of their own degree, which contains this one, and restricted.
    Before allocating, `check_entries` refuses too many rows on that set.
    """
    q = field.q
    if not 0 <= b <= n:
        raise ValueError("need 0 <= b <= n")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    deff = _effective_delta(q, n, delta, b)
    dwork = _effective_delta(
        q, n, max([delta] + [p.degree() for p in polys]), b)
    check_key_width(q, n)
    check_entries(len(polys) * TrimmedPointSet(q, n, dwork, b).size(),
                  f"{len(polys)} rows on T({n - b}, {dwork}) x GF({q})^{b}")
    pd = _point_data(q, n, dwork, b)
    ftype, k = _float_type(field), field.k
    arr = np.zeros((len(polys), len(pd.keys) * k), dtype=ftype)
    for row, poly in zip(_elements(arr, k), polys):
        if poly.num_terms():
            exps, coeffs = poly.term_arrays()
            pos = np.searchsorted(pd.keys, exps @ pd.strides)
            row[pos] = _elements(field.to_digits(coeffs, ftype), k)
    rows = _Rows(field, pd, arr)
    for axis in range(n):
        if not pd.full[axis]:
            _apply_axis(field, rows, axis, "MtoN")
    for axis in range(n):
        _apply_axis(field, rows, axis, "W" if pd.full[axis] else "VN")
    values = rows.values()
    if dwork != deff:
        values = values[:, _positions(q, n, deff, b, dwork, b)]
    return values


@lru_cache(maxsize=64)
def compile_reevaluation(field: FieldSpec, n: int, delta_from: int,
                         delta_to: int, b: int):
    """The map taking rows of values on T(n, delta_from) of polynomials of
    total degree <= delta_from to their values on T(n-b, delta_to) x
    GF(q)^b, one row each: in the rows' integer type, widened to hold
    q-1 by the map route and to int64 by the axis route.

    Finds the target's known and fresh points and picks the route of the
    module docstring here, once per key.
    """
    q = field.q
    dfrom = _effective_delta(q, n, delta_from, 0)
    dto = _effective_delta(q, n, delta_to, b)
    src_keys = _point_data(q, n, dfrom, 0).keys
    to_keys = _point_data(q, n, dto, b).keys
    nfrom = len(src_keys)
    # every target point's position among the source values followed by
    # the fresh ones, found by key
    order = np.searchsorted(src_keys, to_keys)
    fresh = np.flatnonzero(src_keys[np.minimum(order, nfrom - 1)] != to_keys)
    order[fresh] = nfrom + np.arange(len(fresh))
    if len(order) == nfrom and not len(fresh):  # the same set
        return np.asarray
    if not len(fresh):
        return lambda rows: np.asarray(rows)[:, order]
    if nfrom * len(fresh) * field.k ** 2 > DENSE_LIMIT:
        return lambda rows: _reevaluate_axes(field, rows, n, dfrom, dto, b)
    # the axis route on the unit rows, 64 per call, kept on the fresh points
    images = np.empty((nfrom, len(fresh)), dtype=np.int64)
    for start in range(0, nfrom, 64):
        units = np.eye(min(64, nfrom - start), nfrom, start, dtype=np.int64)
        images[start:start + len(units)] = _reevaluate_axes(
            field, units, n, dfrom, dto, b)[:, fresh]
    fresh_values = field.compile_matrix(images.T)

    def gather_and_map(rows: np.ndarray) -> np.ndarray:
        global FIELD_OPS
        rows = np.asarray(rows)
        FIELD_OPS += len(rows) * nfrom * len(fresh)
        dtype = np.promote_types(rows.dtype, np.min_scalar_type(q - 1))
        return np.concatenate([rows, fresh_values(rows)], axis=1, dtype=dtype,
                              casting="unsafe")[:, order]
    return gather_and_map


def _reevaluate_axes(field: FieldSpec, values: np.ndarray, n: int,
                     dfrom: int, dto: int, b: int) -> np.ndarray:
    """compile_reevaluation's axis route on effective degrees.  The rows
    are interpolated into the Newton basis on every axis and evaluated from
    there, without passing through monomial coefficients.  A target set
    of lower degree than the source is evaluated on the source's degree
    and restricted."""
    q, k, ftype = field.q, field.k, _float_type(field)
    src = _point_data(q, n, dfrom, 0)
    newton = _Rows(field, src, field.to_digits(
        np.asarray(values, dtype=np.int64), ftype))
    for axis in range(n):
        _apply_axis(field, newton, axis, "VNinv")
    dwork = _effective_delta(q, n, max(dto, dfrom), b)
    work = _point_data(q, n, dwork, b)
    out = np.zeros((len(values), len(work.keys) * k), dtype=ftype)
    newton.reduce()
    _elements(out, k)[:, _positions(q, n, dfrom, 0, dwork, b)] = _elements(
        newton.arrange(None), k)
    rows = _Rows(field, work, out)
    for axis in range(n):
        _apply_axis(field, rows, axis, "VN")
    out = rows.values()
    if dwork != dto:
        out = out[:, _positions(q, n, dto, b, dwork, b)]
    return out


def interpolate_trimmed(ev: TrimmedEvaluation) -> Polynomial:
    """The unique polynomial of total degree <= delta (per-variable degree
    <= q-1) matching the evaluation vector on its point set."""
    ps, field = ev.point_set, ev.field
    q, n = ps.q, ps.n
    deff = _effective_delta(q, n, ps.delta, ps.b)
    pd = _point_data(q, n, deff, ps.b)
    rows = _Rows(field, pd, field.to_digits(ev.values, _float_type(field)))
    for axis in range(n):
        _apply_axis(field, rows, axis, "Winv" if pd.full[axis] else "VNinv")
    for axis in range(n):
        if not pd.full[axis]:
            _apply_axis(field, rows, axis, "NtoM")
    arr = rows.values()
    nz = np.flatnonzero(arr)
    return Polynomial.from_term_arrays(field, n, pd.points[nz], arr[nz])


# ---------------------------------------------------------------------------
# text serialization: "evals <q> <n> <delta> <b>" then one value per line
# ---------------------------------------------------------------------------

def format_evaluation(ev: TrimmedEvaluation) -> str:
    ps = ev.point_set
    head = f"evals {ps.q} {ps.n} {ps.delta} {ps.b}"
    return "\n".join([head] + [str(int(v)) for v in ev.values]) + "\n"


def parse_evaluation(text: str) -> TrimmedEvaluation:
    rows = [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]
    head = rows[0].split() if rows else []
    if not head or head[0] != "evals":
        raise SizeMismatchError("expected header 'evals <q> <n> <delta> <b>'")
    if len(head) != 5:
        raise SizeMismatchError("malformed evals header")
    try:
        q, n, delta, b = (int(x) for x in head[1:])
        values = [int(x) for x in rows[1:]]
        point_set = TrimmedPointSet(q, n, delta, b)
    except ValueError as exc:  # a non-integer, b outside 0..n, delta < 0
        raise SizeMismatchError(f"bad evals text: {exc}") from exc
    field = make_field(q)
    check_key_width(q, n)
    return TrimmedEvaluation(field, point_set, values)
