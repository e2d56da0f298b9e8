import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial
from fqsolve import (Polynomial, TrimmedPointSet, enumerate_points,
                     evaluate_trimmed, format_evaluation, interpolate_trimmed,
                     make_field, parse_evaluation)
from fqsolve import field, oracle, transform
from fqsolve.field import (FLOAT32_LIMIT, ORDER_LIMIT, REDUCE_LIMIT,
                           FieldSpec, _factor_prime_power)
from fqsolve.errors import (DegreeTooHighError, FqsolveError,
                            NotPrimePowerError, SizeMismatchError,
                            TooLargeError)
from fqsolve.mpoly import point_matrix


def _random_config(rng, size_cap=20000):
    while True:
        q = int(rng.choice([2, 3, 4, 5, 7, 8, 9]))
        n = int(rng.integers(1, 7))
        delta = int(rng.integers(0, min(8, n * (q - 1)) + 1))
        b = int(rng.integers(0, n + 1))
        if TrimmedPointSet(q, n, delta, b).size() <= size_cap:
            return q, n, delta, b


class TestEvaluate:
    def test_single_variable_over_f2(self):
        x = Polynomial.variable(make_field(2), 1, 0)
        assert evaluate_trimmed(x, 1, 0).values.tolist() == [0, 1]

    def test_affine_over_f3(self):
        p = Polynomial.from_terms(make_field(3), 2, [((0, 0), 1), ((1, 0), 1)])
        ev = evaluate_trimmed(p, 1, 0)
        assert ev.values.tolist() == [1, 1, 2]
        assert enumerate_points(ev.point_set) == [(0, 0), (0, 1), (1, 0)]

    def test_zero_polynomial(self):
        z = Polynomial.zero(make_field(5), 3)
        assert not evaluate_trimmed(z, 4, 2).values.any()

    def test_degree_too_high(self):
        p = Polynomial.from_terms(make_field(3), 2, [((2, 2), 1)])
        with pytest.raises(DegreeTooHighError):
            evaluate_trimmed(p, 3, 0)


class TestInterpolate:
    def test_constant(self):
        f = make_field(5)
        ps = TrimmedPointSet(5, 2, 3, 1)
        vals = np.full(ps.size(), 4, dtype=np.int64)
        got = interpolate_trimmed(transform.TrimmedEvaluation(f, ps, vals))
        assert got == Polynomial.constant(f, 2, 4)

    def test_affine_roundtrip_example(self):
        p = Polynomial.from_terms(make_field(3), 2, [((0, 0), 1), ((1, 0), 1)])
        assert interpolate_trimmed(evaluate_trimmed(p, 1, 0)) == p

    def test_zero_vector(self):
        f = make_field(3)
        ps = TrimmedPointSet(3, 2, 2, 0)
        vals = np.zeros(ps.size(), dtype=np.int64)
        assert interpolate_trimmed(transform.TrimmedEvaluation(f, ps, vals)).is_zero()

    def test_size_mismatch(self):
        f = make_field(3)
        ps = TrimmedPointSet(3, 2, 2, 0)
        with pytest.raises(SizeMismatchError):
            transform.TrimmedEvaluation(f, ps, np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("q, value", [(5, 7), (4, 7), (3, -1), (5, 2.5)])
    def test_values_outside_the_field_refused(self, q, value):
        # a one-point set's only slices have length 1, whose identity
        # blocks are skipped, so nothing would reduce the value or make a
        # float an integer
        ps = TrimmedPointSet(q, 2, 0, 0)
        with pytest.raises(SizeMismatchError, match="must lie in"):
            transform.TrimmedEvaluation(make_field(q), ps, np.array([value]))

    def test_writes_into_values_refused(self):
        # a write that reached the one-point set's value would reach its
        # coefficient, since no block reduces it
        f = make_field(5)
        ev = transform.TrimmedEvaluation(f, TrimmedPointSet(5, 2, 0, 0),
                                         np.array([3]))
        with pytest.raises(ValueError, match="read-only"):
            ev.values[0] = 7
        assert interpolate_trimmed(ev) == Polynomial.constant(f, 2, 3)

    def test_callers_array_is_copied(self):
        f = make_field(5)
        vals = np.array([3], dtype=np.int32)
        ev = transform.TrimmedEvaluation(f, TrimmedPointSet(5, 2, 0, 0), vals)
        vals[0] = 7
        assert ev.values.dtype == np.int64 and ev.values.tolist() == [3]
        assert interpolate_trimmed(ev) == Polynomial.constant(f, 2, 3)


class TestRoundtrip:
    def test_random_roundtrips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q, n, delta, b = _random_config(rng)
            p = random_polynomial(rng, q, n, delta)
            assert interpolate_trimmed(evaluate_trimmed(p, delta, b)) == p

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            q, n, delta, b = _random_config(rng, size_cap=600)
            p = random_polynomial(rng, q, n, delta, max_terms=8)
            ev = evaluate_trimmed(p, delta, b)
            pts = enumerate_points(TrimmedPointSet(q, n, delta, b))
            assert ev.values.tolist() == [p.evaluate(pt) for pt in pts]

    def test_dense_solver_agrees(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            q, n, delta, b = _random_config(rng, size_cap=120)
            p = random_polynomial(rng, q, n, delta, max_terms=6)
            ev = evaluate_trimmed(p, delta, b)
            assert oracle.dense_interpolate(ev) == \
                interpolate_trimmed(ev) == p

    def test_uniqueness_via_perturbation(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            q, n, delta, b = _random_config(rng, size_cap=2000)
            f = make_field(q)
            p = random_polynomial(rng, q, n, delta, max_terms=6)
            base = evaluate_trimmed(p, delta, b).values
            pts = point_matrix(q, n, delta, 0)
            mono = tuple(int(v) for v in pts[rng.integers(0, len(pts))])
            bump = Polynomial.from_terms(f, n, [(mono, int(rng.integers(1, q)))])
            other = p.add(bump)
            if other == p:
                continue
            assert (evaluate_trimmed(other, delta, b).values != base).any()


@pytest.fixture()
def axis_calls(monkeypatch):
    """A counter of the calls of transform._reevaluate_axes, the axis
    route, which the test patches for its duration."""
    calls, axes = [0], transform._reevaluate_axes

    def counting_axes(*args):
        calls[0] += 1
        return axes(*args)

    monkeypatch.setattr(transform, "_reevaluate_axes", counting_axes)
    return calls


class TestBatched:
    def test_evaluate_values_above_the_degree_bound(self):
        # rows are polynomials of any degree; values are the plain point
        # values on the requested set
        rng = np.random.default_rng(13)
        for _ in range(30):
            q, n, delta, b = _random_config(rng, size_cap=600)
            polys = [random_polynomial(rng, q, n, n * (q - 1), max_terms=6)
                     for _ in range(3)]
            got = transform.evaluate_values(make_field(q), n, polys, delta, b)
            pts = enumerate_points(TrimmedPointSet(q, n, delta, b))
            assert got.tolist() == [[p.evaluate(pt) for pt in pts]
                                    for p in polys]

    def test_evaluate_values_sized_before_allocation(self, monkeypatch):
        # rows of degree 8 on T(4, 1) over GF(3) are evaluated on the 81
        # points of their own degree's set, not the 5 of T(4, 1): 3 x 81
        # entries are counted against ENTRY_LIMIT before anything is built
        f = make_field(3)
        top = Polynomial.from_terms(f, 4, [((2, 2, 2, 2), 1)])
        polys = [top, top.scale(2), Polynomial.variable(f, 4, 0)]
        monkeypatch.setattr(field, "ENTRY_LIMIT", 3 * 81)
        assert transform.evaluate_values(f, 4, polys, 1, 0).shape == (3, 5)

        def no_points(*args):
            raise AssertionError("point set built before the size check")

        monkeypatch.setattr(field, "ENTRY_LIMIT", 3 * 81 - 1)
        monkeypatch.setattr(transform, "_point_data", no_points)
        with pytest.raises(TooLargeError, match="243 entries"):
            transform.evaluate_values(f, 4, polys, 1, 0)

    def test_reevaluate_matches_naive_evaluation(self, monkeypatch,
                                                 axis_calls):
        # target sets above, equal to and below the source degree, each
        # through every route that applies: compile_reevaluation's own
        # pick, the gather or axis route with DENSE_LIMIT = 0, the gather
        # with the fresh-point map (built here past the cache, whatever
        # its size) and the axis route; the maps picked under a patched
        # limit are compiled past the cache, so none outlives the patch
        rng = np.random.default_rng(14)
        contained = 0
        compile_uncached = transform.compile_reevaluation.__wrapped__
        for _ in range(40):
            q, n, dfrom, _ = _random_config(rng, size_cap=600)
            b = int(rng.integers(0, n + 1))
            dto = int(rng.integers(0, n * (q - 1) + 1))
            if TrimmedPointSet(q, n, dto, b).size() > 3000:
                continue
            polys = [random_polynomial(rng, q, n, dfrom, max_terms=6)
                     for _ in range(2)]
            values = np.stack([evaluate_trimmed(p, dfrom, 0).values
                               for p in polys])
            f = make_field(q)
            pts = enumerate_points(TrimmedPointSet(q, n, dto, b))
            want = [[p.evaluate(pt) for pt in pts] for p in polys]
            efrom = transform._effective_delta(q, n, dfrom, 0)
            eto = transform._effective_delta(q, n, dto, b)
            contained += eto + b * (q - 1) <= efrom
            has_fresh = not np.isin(
                transform._point_data(q, n, eto, b).keys,
                transform._point_data(q, n, efrom, 0).keys).all()
            routes = {
                "pick": transform.compile_reevaluation(f, n, dfrom, dto,
                                                       b)(values),
                "axis": transform._reevaluate_axes(f, values, n, efrom,
                                                   eto, b)}
            with monkeypatch.context() as m:
                m.setattr(transform, "DENSE_LIMIT", 1 << 62)
                mapped = compile_uncached(f, n, dfrom, dto, b)
                axis_calls[0] = 0
                routes["fresh map"] = mapped(values)
                assert axis_calls[0] == 0
                m.setattr(transform, "DENSE_LIMIT", 0)
                routes["limit 0"] = compile_uncached(f, n, dfrom, dto,
                                                     b)(values)
                assert axis_calls[0] == has_fresh
            for route, got in routes.items():
                assert got.tolist() == want, (route, q, n, dfrom, dto, b)
        assert 0 < contained < 40

    def test_reevaluate_builds_no_map_over_the_limit(self, monkeypatch,
                                                     axis_calls):
        # with DENSE_LIMIT = 4096, compile_matrix runs once per distinct
        # fresh-point map within the limit and never for the others; the
        # axis blocks are compiled beforehand, so every call counted
        # builds a map.  Applying a compiled map runs the axis route for
        # the key over the limit only.  The cache is cleared before and
        # after, so no route picked under the patched limit outlives it
        limit = 4096
        cases = [(2, 6, 4, 5, 1),   # 57 x 7 fresh: within the limit
                 (3, 3, 2, 4, 1),   # 10 x 17: within the limit
                 (3, 5, 8, 8, 1),   # 237 x 6: within the limit
                 (2, 8, 4, 6, 1),   # 163 x 91: over it
                 (4, 3, 2, 3, 1),   # 10 x 30, times k^2 = 4: within it
                 (4, 4, 12, 9, 1),  # the target lies inside the source
                 (2, 6, 4, 5, 1)]   # the first map, cached
        rng = np.random.default_rng(15)
        inputs = []
        for q, n, dfrom, dto, b in cases:
            poly = random_polynomial(rng, q, n, dfrom, max_terms=6)
            values = evaluate_trimmed(poly, dfrom, 0).values[None]
            want = transform._reevaluate_axes(make_field(q), values, n,
                                              dfrom, dto, b)
            inputs.append((q, n, dfrom, dto, b, values, want))
        shapes, applied = [], []
        compile_matrix = FieldSpec.compile_matrix

        def counting_compile(self, mat):
            shapes.append((mat.shape, self.k))
            return compile_matrix(self, mat)

        transform.compile_reevaluation.cache_clear()
        monkeypatch.setattr(transform, "DENSE_LIMIT", limit)
        monkeypatch.setattr(FieldSpec, "compile_matrix", counting_compile)
        try:
            for q, n, dfrom, dto, b, values, want in inputs:
                reevaluate = transform.compile_reevaluation(
                    make_field(q), n, dfrom, dto, b)
                axis_calls[0] = 0
                assert (reevaluate(values) == want).all()
                applied.append(axis_calls[0])
        finally:
            transform.compile_reevaluation.cache_clear()
        assert applied == [0, 0, 0, 1, 0, 0, 0]
        assert sorted(shapes) == [((6, 237), 1), ((7, 57), 1),
                                  ((17, 10), 1), ((30, 10), 2)]
        assert all(r * c * k * k <= limit for (r, c), k in shapes)

    def test_fresh_map_built_64_units_at_a_time(self, monkeypatch):
        # the 237 source points of T(5, 8) over GF(3) go through the axis
        # route as unit rows, at most 64 per call, when the map is
        # compiled and not when it is applied, and the map agrees with
        # that route on the 6 fresh points of T(4, 8) x GF(3)
        f = make_field(3)
        calls, axes = [], transform._reevaluate_axes

        def spied_axes(field, values, *args):
            calls.append(len(values))
            return axes(field, values, *args)

        monkeypatch.setattr(transform, "_reevaluate_axes", spied_axes)
        reevaluate = transform.compile_reevaluation.__wrapped__(f, 5, 8, 8, 1)
        assert max(calls) <= 64 and sum(calls) == 237
        rows = np.random.default_rng(17).integers(0, 3, size=(5, 237))
        got = reevaluate(rows)
        assert sum(calls) == 237
        fresh = np.flatnonzero(~np.isin(
            transform._point_data(3, 5, 8, 1).keys,
            transform._point_data(3, 5, 8, 0).keys))
        assert len(fresh) == 6
        want = axes(f, rows, 5, 8, 8, 1)
        assert (got[:, fresh] == want[:, fresh]).all()
        assert (got == want).all()

    @pytest.mark.parametrize("q", [3, 4])
    def test_reevaluate_agrees_with_the_axis_route(self, q):
        # random rows on nested sets T(n, dfrom) inside T(n-b, dto) x
        # GF(q)^b: compile_reevaluation's pick equals the axis route
        # whether the target has no fresh point, a few (at most half) or
        # many, with and without a grid suffix, at k = 1 and k = 2
        f = make_field(q)
        rng = np.random.default_rng(18 + q)
        seen = set()
        for _ in range(80):
            n = int(rng.integers(1, 5))
            b = int(rng.integers(0, n + 1))
            dfrom = int(rng.integers(0, n * (q - 1) + 1))
            dto = int(rng.integers(0, n * (q - 1) + 1))
            efrom = transform._effective_delta(q, n, dfrom, 0)
            eto = transform._effective_delta(q, n, dto, b)
            src = transform._point_data(q, n, efrom, 0).keys
            to = transform._point_data(q, n, eto, b).keys
            fresh = np.flatnonzero(~np.isin(to, src))
            rows = rng.integers(0, q, size=(3, len(src)))
            got = transform.compile_reevaluation(f, n, dfrom, dto, b)(rows)
            want = transform._reevaluate_axes(f, rows, n, efrom, eto, b)
            assert (got == want).all(), (q, n, dfrom, dto, b)
            seen.add((b > 0, "none" if not len(fresh) else
                      "few" if 2 * len(fresh) <= len(to) else "many"))
        assert seen == {(s, kind) for s in (False, True)
                        for kind in ("none", "few", "many")}


    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.uint16,
                                       np.int64])
    def test_reevaluate_keeps_the_rows_type(self, dtype):
        # read-only rows in any integer type through the same set (T(4,
        # 12) over GF(4) is T(3, 9) x GF(4)), a gather onto a smaller set
        # and a fresh-point map: the axis route's values, in the rows'
        # type (the map widens bool to uint8 to hold q-1); the same set
        # returns the rows themselves, the others new arrays
        rng = np.random.default_rng(21)
        for q, n, dfrom, dto, b, route in [(4, 4, 12, 9, 1, "same"),
                                           (3, 5, 8, 6, 1, "gather"),
                                           (3, 5, 8, 8, 1, "map")]:
            f = make_field(q)
            nfrom = TrimmedPointSet(q, n, dfrom, 0).size()
            rows = rng.integers(0, 2 if dtype is np.bool_ else q,
                                size=(4, nfrom)).astype(dtype)
            rows.flags.writeable = False
            before = rows.copy()
            got = transform.compile_reevaluation(f, n, dfrom, dto, b)(rows)
            want = transform._reevaluate_axes(f, rows, n, dfrom, dto, b)
            assert (got == want).all() and (rows == before).all(), route
            assert got.dtype == (np.promote_types(dtype, np.uint8)
                                 if route == "map" else dtype), route
            assert (got is rows) == (route == "same"), route
            assert route == "same" or not np.shares_memory(got, rows)

    @pytest.mark.parametrize("q", [3, 4, 9])
    def test_no_polynomials(self, q):
        # a system with m = 0 evaluates no rows, as the solve-empty golden
        # case does at q = 3 on T(3, 4) x GF(3): zero rows on the whole set
        got = transform.evaluate_values(make_field(q), 4, [], 4, 1)
        assert got.shape == (0, TrimmedPointSet(q, 4, 4, 1).size())
        assert got.dtype == np.int64
        if q == 3:
            assert got.shape == (0, 69)

    @pytest.mark.parametrize("q", [3, 4, 9])
    def test_reevaluate_zero_and_one_row(self, q, monkeypatch, axis_calls):
        # 0 rows, and 1 row (the axis pass's vector path), through
        # compile_reevaluation's pick, its axis route at DENSE_LIMIT = 0
        # (compiled past the cache, and shown to run the axis route where
        # the target has fresh points) and _reevaluate_axes, onto targets
        # above, below and inside the source set, with and without a
        # grid suffix
        f = make_field(q)
        rng = np.random.default_rng(60 + q)
        n, dfrom = 3, 2
        poly = random_polynomial(rng, q, n, dfrom, max_terms=6)
        values = evaluate_trimmed(poly, dfrom, 0).values[None]
        efrom = transform._effective_delta(q, n, dfrom, 0)
        for dto, b in ((4, 1), (1, 0), (2, 0), (3, 2)):
            eto = transform._effective_delta(q, n, dto, b)
            pts = enumerate_points(TrimmedPointSet(q, n, dto, b))
            want = [[poly.evaluate(pt) for pt in pts]]
            has_fresh = (dto, b) in ((4, 1), (3, 2))
            for rows in (values, values[:0]):
                got = [transform.compile_reevaluation(f, n, dfrom, dto,
                                                      b)(rows),
                       transform._reevaluate_axes(f, rows, n, efrom, eto, b)]
                with monkeypatch.context() as m:
                    m.setattr(transform, "DENSE_LIMIT", 0)
                    axis_calls[0] = 0
                    got.append(transform.compile_reevaluation.__wrapped__(
                        f, n, dfrom, dto, b)(rows))
                    assert axis_calls[0] == has_fresh, (dto, b)
                for out in got:
                    assert out.dtype == np.int64
                    assert out.tolist() == want[:len(rows)], (dto, b)
                    assert out.shape == (len(rows), len(pts))

    def test_float_type_per_field(self):
        # one type per field, the one its q x q block needs: q k (p-1)^2
        # < 2^22 holds for every field of q <= 81, every prime up to 157,
        # 17^2 and 2^16, and fails for 163, 257 and 41^2
        for q in (2, 3, 4, 5, 8, 9, 16, 27, 64, 81, 127, 157, 289, 65536):
            assert transform._float_type(make_field(q)) is np.float32, q
        for q in (163, 257, 1681):
            assert transform._float_type(make_field(q)) is np.float64, q

    @pytest.mark.parametrize("q, n, delta, b", [(4, 3, 4, 1), (9, 2, 9, 1),
                                                (157, 2, 312, 0)])
    def test_float32_passes_match_float64(self, q, n, delta, b,
                                          monkeypatch):
        # GF(157) at full degree runs 157 x 157 blocks, whose sums come
        # within 0.3% of FLOAT32_LIMIT; forcing float64 changes nothing
        f = make_field(q)
        rng = np.random.default_rng(q)
        polys = [random_polynomial(rng, q, n, delta, max_terms=12)
                 for _ in range(2)]
        got = transform.evaluate_values(f, n, polys, delta, b)
        back = interpolate_trimmed(evaluate_trimmed(polys[0], delta, b))
        with monkeypatch.context() as m:
            m.setattr(transform, "_float_type", lambda field: np.float64)
            assert (transform.evaluate_values(f, n, polys, delta, b)
                    == got).all()
        assert back == polys[0]
        pts = enumerate_points(TrimmedPointSet(q, n, delta, b))
        assert got[1].tolist() == [polys[1].evaluate(pt) for pt in pts]


class TestMatrices:
    # C1 only reaches q <= 9; this covers the table, exp/log (289 = 17^2
    # lies above TABLE_LIMIT) and large prime branches of the field
    @pytest.mark.parametrize("q", [2, 4, 9, 16, 81, 243, 257, 289])
    def test_frames_and_inverses(self, q):
        f = make_field(q)
        mats = transform._matrices(f)
        want_w = [[f.pow(j, e) for e in range(q)] for j in range(q)]
        assert (mats["W"] == np.array(want_w)).all()
        eye = np.eye(q, dtype=np.int64)
        for a, b in (("NtoM", "MtoN"), ("VN", "VNinv"), ("W", "Winv")):
            assert (f.matmul(mats[a], mats[b]) == eye).all()

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27,
                                   49, 64, 81, 125, 257])
    def test_vandermonde_pair_matches_oracle(self, q):
        # the oracle builds W by scalar powers and inverts it by
        # Gauss-Jordan, independently of the closed forms
        f = make_field(q)
        mats = transform._matrices(f)
        assert (mats["W"] == oracle._pow_matrix(f, q)).all()
        assert (mats["Winv"] == oracle._pow_inverse(f)).all()


    @pytest.mark.parametrize("q", [64, 81, 257, 289])
    def test_compiled_full_blocks_roundtrip(self, q):
        # the compiled q x q Newton frame and its inverse undo each other,
        # each unreduced product reduced before the next
        f = make_field(q)
        rows = np.random.default_rng(q).integers(0, q, size=(50, q))
        digits = f.to_digits(rows, transform._float_type(f))

        def block(name, digits):
            return f.reduce_digits(
                transform._compiled_block(f, name, q)(digits))

        assert (f.from_digits(block("VNinv", block("VN", digits)))
                == rows).all()
        assert (f.from_digits(block("VN", block("VNinv", digits)))
                == rows).all()

    def test_oversize_block_refused_before_frames(self, monkeypatch):
        # GF(2^11): 6q^2 frame entries pass ENTRY_LIMIT, but the full
        # 2048-by-2048 block expands to 2048^2 * 11^2, so it must be
        # refused without building the frames at all
        def no_frames(field):
            raise AssertionError("frames built for a refused block")
        transform._compiled_block.cache_clear()
        monkeypatch.setattr(transform, "_matrices", no_frames)
        with pytest.raises(TooLargeError, match="entries"):
            transform._compiled_block(make_field(2048), "VN", 2048)


class TestPointData:
    def test_slice_orders_match_brute_force(self):
        # each axis's slices found by grouping the points by their other
        # coordinates, on random (q, n, delta) with delta up to two past
        # the full degree, and every b
        rng = np.random.default_rng(61)
        for _ in range(40):
            q = int(rng.choice([2, 3, 4, 5, 7, 9]))
            n = int(rng.integers(1, 5))
            delta = int(rng.integers(0, n * (q - 1) + 3))
            for b in range(n + 1):
                pts = point_matrix(q, n, delta, b)
                pd = transform._PointData(q, n, delta, b)
                assert (pd.points == pts).all()
                for axis in range(n):
                    rest = np.delete(pts, axis, axis=1)
                    slices = {}
                    for i, key in enumerate(map(tuple, rest.tolist())):
                        slices.setdefault(key, []).append(i)
                    order = pd.orders[axis].tolist()
                    assert sorted(order) == list(range(len(pts)))
                    at, spans, lengths = 0, {}, []
                    while at < len(order):
                        members = slices[tuple(rest[order[at]])]
                        ln = len(members)
                        # one whole slice, in coordinate order
                        assert order[at:at + ln] == members
                        assert (np.diff(pts[members, axis]) > 0).all()
                        start = spans.get(ln, (at,))[0]
                        spans[ln] = (start, at + ln)
                        lengths.append(ln)
                        at += ln
                    case = (q, n, delta, b, axis)
                    assert lengths == sorted(lengths), case
                    assert len(lengths) == len(slices), case
                    assert pd.spans[axis] == spans, case
                    assert pd.ops[axis] == sum(ln * ln for ln in lengths)
                    assert pd.full[axis] == all(ln == q for ln in lengths)


def _witness_axis(ops):
    """An axis pass that sends every slice length through _compiled_block,
    identity blocks included, as a batch of digit rows (the run of each
    length's slices in the axis's slice order), reducing every product
    as it is made, and adds batch * slices * ln^2 to ops[0]."""
    def apply_axis(field, rows, axis, name):
        arr, k = rows.arrange(axis), field.k
        batch = 1 if arr.ndim == 1 else len(arr)
        for ln, (start, stop) in rows.points.spans[axis].items():
            fn = transform._compiled_block(field, name, ln)
            seg = arr[..., start * k:stop * k]
            seg[...] = field.reduce_digits(
                fn(seg.reshape(-1, ln * k))).reshape(seg.shape)
            ops[0] += batch * (stop - start) // ln * ln * ln
    return apply_axis


def _identity_pairs(q):
    """The (frame, ln) blocks that are the identity: every frame at ln = 1,
    the monomial/Newton pair at ln = 2 (sigma_0 = 0 makes N_1 = x), and
    the inverse Vandermonde at ln = 2 in GF(2^k), k >= 2, where -a^(q-2)
    is 0 at a = 0 and 1 at a = 1."""
    pairs = {(name, 1) for name in ("W", "Winv", "VN", "VNinv", "NtoM",
                                    "MtoN")}
    pairs |= {("MtoN", 2), ("NtoM", 2)}
    if q in (4, 8, 16, 64):
        pairs.add(("Winv", 2))
    return pairs


class TestIdentityBlocks:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
    def test_outputs_and_counts_match_the_full_axis_loop(self, q,
                                                         monkeypatch):
        # every caller of the axis pass, on one row (the vector path) and
        # on three (the batch path), gives the values and FIELD_OPS of the
        # loop that applies every block
        f = make_field(q)
        rng = np.random.default_rng(40 + q)
        n, dfrom, dto = 3, 2, 3

        def both(call):
            monkeypatch.setattr(transform, "FIELD_OPS", 0)
            got = call()
            ops = [0]
            with monkeypatch.context() as m:
                m.setattr(transform, "_apply_axis", _witness_axis(ops))
                want = call()
            assert transform.FIELD_OPS == ops[0] > 0
            return got, want

        for b in (0, 1, 2):
            for rows in (1, 3):
                polys = [random_polynomial(rng, q, n, dto, max_terms=8)
                         for _ in range(rows)]
                got, want = both(lambda: transform.evaluate_values(
                    f, n, polys, dto, b))
                assert (got == want).all(), (q, b, rows, "evaluate")
                values = transform.evaluate_values(f, n, polys, dfrom, 0)
                efrom = transform._effective_delta(q, n, dfrom, 0)
                eto = transform._effective_delta(q, n, dto, b)
                got, want = both(lambda: transform._reevaluate_axes(
                    f, values, n, efrom, eto, b))
                assert (got == want).all(), (q, b, rows, "reevaluate")
            ev = evaluate_trimmed(polys[0], dto, b)
            got, want = both(lambda: interpolate_trimmed(ev))
            assert got == want == polys[0], (q, b, "interpolate")

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 64, 81])
    def test_skipped_blocks_are_the_identity_ones(self, q):
        f = make_field(q)
        frames = transform._matrices(f)
        skipped = {(name, ln) for name in frames for ln in range(1, q + 1)
                   if transform._is_identity(f, name, ln)}
        eye = {(name, ln) for name, mat in frames.items()
               for ln in range(1, q + 1)
               if (mat[:ln, :ln] == np.eye(ln, dtype=np.int64)).all()}
        assert skipped == eye == _identity_pairs(q)

    def test_skipped_blocks_are_never_fetched(self, monkeypatch):
        # over GF(2) every slice has length 1 or 2, and a round trip
        # fetches only the blocks that are not the identity: on T(2, 1) x
        # GF(2) the Newton frames of the trimmed axes and the Vandermonde
        # of the grid axis, on the whole grid T(2, 2) x GF(2) only the
        # Vandermonde, one pass per axis and direction
        fetched, compiled = [], transform._compiled_block

        def spied(field, name, ln):
            fetched.append((name, ln))
            return compiled(field, name, ln)

        monkeypatch.setattr(transform, "_compiled_block", spied)
        rng = np.random.default_rng(47)
        p = random_polynomial(rng, 2, 3, 1)
        assert interpolate_trimmed(evaluate_trimmed(p, 1, 1)) == p
        assert set(fetched) == {("VN", 2), ("W", 2), ("VNinv", 2),
                                ("Winv", 2)}
        fetched.clear()
        p = random_polynomial(rng, 2, 3, 2)
        monkeypatch.setattr(transform, "FIELD_OPS", 0)
        ev = evaluate_trimmed(p, 2, 1)
        # a pass over the 8 points' length-2 slices counts 8 * 2
        assert transform.FIELD_OPS == 3 * 8 * 2
        assert interpolate_trimmed(ev) == p
        assert transform.FIELD_OPS == 2 * 3 * 8 * 2
        assert set(fetched) == {("W", 2), ("Winv", 2)}

    def test_refusals_do_not_move(self, monkeypatch):
        # a constant's slices all have length 1, whose blocks are skipped,
        # yet GF(3347)'s frames are refused as before; an oversize block
        # is refused before the frames are built
        f = make_field(3347)
        with pytest.raises(TooLargeError, match="67214454 entries"):
            evaluate_trimmed(Polynomial.constant(f, 2, 5), 0, 0)

        def no_frames(field):
            raise AssertionError("frames built for a refused block")
        monkeypatch.setattr(transform, "_matrices", no_frames)
        with pytest.raises(TooLargeError, match="entries"):
            transform._is_identity.__wrapped__(make_field(2048), "VN", 2048)


def _exact_limit(ftype) -> int:
    return FLOAT32_LIMIT if ftype == np.float32 else REDUCE_LIMIT


@pytest.fixture()
def lazy_and_eager(monkeypatch):
    """Runs a call on the lazy passes, under spies, then on the eager loop
    (_witness_axis, which reduces every product), asserts that both add
    the same FIELD_OPS and returns both results.  The spies check that
    the rows' bound times a block's growth stays below the rows' exact
    limit before every product, that every pass leaves its entries within
    the bound, and that only reduced digits reach from_digits."""
    def run(call):
        passes = []
        apply_axis, compiled = transform._apply_axis, transform._compiled_block
        from_digits = FieldSpec.from_digits

        def spied_axis(field, rows, axis, name):
            passes.append(rows)
            apply_axis(field, rows, axis, name)
            passes.pop()
            assert rows.arrange(rows.order).max(initial=0) <= rows.bound

        def spied_block(field, name, ln):
            fn = compiled(field, name, ln)

            def product(digits):
                bound = passes[-1].bound
                assert digits.max(initial=0) <= bound
                assert (bound * ln * field.k * (field.p - 1)
                        < _exact_limit(digits.dtype))
                return fn(digits)
            return product

        def spied_from_digits(field, digits):
            assert ((digits >= 0) & (digits < field.p)
                    & (digits == np.floor(digits))).all()
            return from_digits(field, digits)

        monkeypatch.setattr(transform, "FIELD_OPS", 0)
        with monkeypatch.context() as m:
            m.setattr(transform, "_apply_axis", spied_axis)
            m.setattr(transform, "_compiled_block", spied_block)
            m.setattr(FieldSpec, "from_digits", spied_from_digits)
            got = call()
        ops = [0]
        with monkeypatch.context() as m:
            m.setattr(transform, "_apply_axis", _witness_axis(ops))
            want = call()
        assert transform.FIELD_OPS == ops[0]
        return got, want
    return run


def _lazy_cases(f, n, dfrom, dto, rng, lazy_and_eager):
    """evaluate_values and _reevaluate_axes on 0, 1 and 64 rows, and
    interpolate_trimmed, at b = 0, 1, 2, lazy against eager.  The first
    row has every digit p-1: as coefficients at every monomial, and as
    values."""
    q = f.q
    monomials = point_matrix(q, n, min(dto, n * (q - 1)), 0)
    top = Polynomial.from_term_arrays(f, n, monomials,
                                      np.full(len(monomials), q - 1))
    efrom = transform._effective_delta(q, n, dfrom, 0)
    nfrom = TrimmedPointSet(q, n, efrom, 0).size()
    for b in (0, 1, 2):
        eto = transform._effective_delta(q, n, dto, b)
        for batch in (0, 1, 64):
            polys = [top] + [random_polynomial(rng, q, n, dto, max_terms=12)
                             for _ in range(batch - 1)]
            got, want = lazy_and_eager(lambda: transform.evaluate_values(
                f, n, polys[:batch], dto, b))
            assert got.shape == want.shape
            assert (got == want).all(), (q, b, batch, "evaluate")
            values = rng.integers(0, q, size=(batch, nfrom))
            values[:1] = q - 1
            got, want = lazy_and_eager(lambda: transform._reevaluate_axes(
                f, values, n, efrom, eto, b))
            assert got.shape == want.shape
            assert (got == want).all(), (q, b, batch, "reevaluate")
        ps = TrimmedPointSet(q, n, dto, b)
        for vals in (np.full(ps.size(), q - 1),
                     rng.integers(0, q, size=ps.size())):
            ev = transform.TrimmedEvaluation(f, ps, vals)
            got, want = lazy_and_eager(lambda: interpolate_trimmed(ev))
            assert got == want, (q, b, "interpolate")


class TestLazyReduction:
    # (n, dfrom, dto) per field: every slice length up to q, on sets of at
    # most q^3 points for q <= 16 and q^2 above
    SHAPES = {2: (3, 1, 3), 3: (3, 2, 6), 4: (3, 3, 7), 5: (3, 3, 9),
              7: (3, 4, 13), 8: (3, 4, 15), 9: (3, 5, 17), 16: (3, 8, 31),
              27: (2, 13, 52), 64: (2, 32, 126), 81: (2, 40, 160),
              157: (2, 80, 312), 163: (2, 80, 324)}

    @pytest.mark.parametrize("q", sorted(SHAPES))
    def test_lazy_passes_match_the_eager_loop(self, q, lazy_and_eager):
        n, dfrom, dto = self.SHAPES[q]
        _lazy_cases(make_field(q), n, dfrom, dto,
                    np.random.default_rng(500 + q), lazy_and_eager)

    def test_largest_prime_refused_both_ways(self, monkeypatch):
        # GF(65521), whose one pass from reduced rows comes closest to
        # REDUCE_LIMIT, has frames over ENTRY_LIMIT: both loops refuse it
        f = make_field(65521)
        for apply_axis in (transform._apply_axis, _witness_axis([0])):
            with monkeypatch.context() as m:
                m.setattr(transform, "_apply_axis", apply_axis)
                with pytest.raises(TooLargeError, match="entries"):
                    transform.evaluate_values(
                        f, 1, [Polynomial.variable(f, 1, 0)], 1, 0)

    def test_one_pass_from_reduced_rows_stays_below_the_limit(self):
        # the field docstring's claim: a pass from reduced rows reaches at
        # most q k (p-1)^2, below 2^48 for every q <= ORDER_LIMIT
        top = 0
        for q in range(2, ORDER_LIMIT + 1):
            try:
                p, k = _factor_prime_power(q)
            except NotPrimePowerError:
                continue
            top = max(top, q * k * (p - 1) ** 2)
        assert top == 65521 * 65520 ** 2 < 2 ** 48 < REDUCE_LIMIT

    @pytest.mark.parametrize("q, n, dfrom, dto", [
        (3, 6, 3, 12), (3, 10, 1, 2), (5, 3, 6, 12), (81, 2, 20, 160),
        (157, 2, 1, 3), (157, 2, 60, 312)])
    def test_frames_that_reach_the_bound(self, q, n, dfrom, dto,
                                         monkeypatch, lazy_and_eager):
        # every block all p-1: at k = 1 rows at their bound B come out of a
        # block of length ln at exactly B ln (p-1), the growth the passes
        # assume, so a reduction left out or made late shows in the values
        f = make_field(q)
        caches = (transform._compiled_block, transform._is_identity)
        frames = {name: np.full((q, q), f.p - 1, dtype=np.int64)
                  for name in transform._matrices(f)}
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(transform, "_matrices", lambda field: frames)
        try:
            _lazy_cases(f, n, dfrom, dto, np.random.default_rng(q + n),
                        lazy_and_eager)
        finally:
            for cache in caches:
                cache.cache_clear()


class TestKeyWidth:
    def test_keys_wider_than_int64_are_rejected(self):
        # n * ceil(log2 q) <= 63: 2^63, 3^31 and 16^15 fit, one more
        # variable does not
        for q, n in ((2, 63), (3, 31), (16, 15)):
            x = Polynomial.variable(make_field(q), n, n - 1)
            assert interpolate_trimmed(evaluate_trimmed(x, 1, 0)) == x
        for q, n in ((2, 64), (3, 33), (16, 16)):
            x = Polynomial.variable(make_field(q), n, n - 1)
            with pytest.raises(TooLargeError):
                evaluate_trimmed(x, 1, 0)


class TestOpCounting:
    def test_counter_grows_linearly_in_set_size(self, monkeypatch):
        # fixed q and n, growing degree budget: multiply-accumulate count
        # stays within a 2x band of an affine fit in |T|
        q, n = 2, 12
        rng = np.random.default_rng(11)
        sizes, ops = [], []
        for delta in range(1, n * (q - 1) + 1):
            p = random_polynomial(rng, q, n, delta, max_terms=6)
            monkeypatch.setattr(transform, "FIELD_OPS", 0)
            evaluate_trimmed(p, delta, 0)
            sizes.append(TrimmedPointSet(q, n, delta, 0).size())
            ops.append(transform.FIELD_OPS)
        sizes = np.array(sizes, dtype=float)
        ops = np.array(ops, dtype=float)
        slope = (ops * sizes).sum() / (sizes * sizes).sum()
        ratio = ops / (slope * sizes)
        assert ratio.max() <= 2.0 and ratio.min() >= 0.5

    def test_reevaluate_counts_fresh_products_only(self, monkeypatch):
        # a compiled fresh-point map counts rows * |T_from| * |fresh| (237
        # source points, 6 fresh ones) per product; a pure gather counts
        # nothing
        f = make_field(3)
        rows = np.random.default_rng(19).integers(0, 3, size=(5, 237))
        reevaluate = transform.compile_reevaluation(f, 5, 8, 8, 1)
        monkeypatch.setattr(transform, "FIELD_OPS", 0)
        reevaluate(rows)
        assert transform.FIELD_OPS == 5 * 237 * 6
        gather = transform.compile_reevaluation(f, 5, 8, 6, 1)
        monkeypatch.setattr(transform, "FIELD_OPS", 0)
        gather(rows)
        assert transform.FIELD_OPS == 0


class TestSerialization:
    def test_text_roundtrip(self):
        rng = np.random.default_rng(12)
        p = random_polynomial(rng, 3, 3, 4, max_terms=5)
        ev = evaluate_trimmed(p, 4, 1)
        text = format_evaluation(ev)
        assert text.splitlines()[0] == "evals 3 3 4 1"
        back = parse_evaluation(text)
        assert back.point_set == ev.point_set
        assert (back.values == ev.values).all()
        assert interpolate_trimmed(back) == p

    @pytest.mark.parametrize("text, error", [
        ("evals 3 1 x 0\n0\n", SizeMismatchError),  # non-integer header
        ("evals 3 1 1 0\n0\nfoo\n", SizeMismatchError),  # non-integer value
        ("evals 3 1 1 2\n0\n1\n", SizeMismatchError),  # b > n
        ("evals 3 1 1 -1\n0\n1\n", SizeMismatchError),  # b < 0
        ("evals 3 1 -1 0\n", SizeMismatchError),  # negative delta
        ("evals 3 1 1 0\n5\n7\n", SizeMismatchError),  # values above q-1
        ("evals 3 1 1 0\n-1\n0\n", SizeMismatchError),
        ("evals 3 1 1 0\n" + "9" * 30 + "\n0\n", SizeMismatchError),
        ("evalsx 3 1 1 0\n0\n1\n", SizeMismatchError),  # header word
        # keys wider than int64, refused before the point-set size DP
        ("evals 2 100000000 1 0\n", TooLargeError),
        # a one-point set over GF(2^16) with two values: the size DP over
        # q = 65536 is quick, so the mismatch is reported at once
        ("evals 65536 3 0 0\n0\n0\n", SizeMismatchError),
    ])
    def test_malformed_text_raises_typed_error(self, text, error):
        with pytest.raises(error):
            parse_evaluation(text)

    @given(st.one_of(
        st.text(max_size=60),
        st.builds(lambda head, vals: "evals " + " ".join(head) + "\n"
                  + "\n".join(vals),
                  st.lists(st.one_of(st.integers(-3, 10).map(str),
                                     st.text(max_size=3)),
                           min_size=3, max_size=5),
                  st.lists(st.one_of(st.integers(-2, 12).map(str),
                                     st.text(max_size=3)),
                           max_size=12))))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_parses_or_raises_typed_error(self, text):
        try:
            ev = parse_evaluation(text)
        except FqsolveError:
            return
        assert len(ev.values) == ev.point_set.size()
        assert ((ev.values >= 0) & (ev.values < ev.field.q)).all()
