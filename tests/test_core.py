import ast
import math
import pathlib
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_grid, random_system
from fqsolve import (Polynomial, PolySystem, RngStream, SolverParams,
                     brute_Z, brute_partial_sum, core, eval_indicator,
                     field, full_sum, make_field, partial_sum, plurality,
                     solve_pes, valiant_vazirani, zdegree)
from fqsolve.core import VOTE_CHUNK, streamed_plurality
from fqsolve.mpoly import TrimmedPointSet
from fqsolve.transform import (TrimmedEvaluation, evaluate_trimmed,
                               evaluate_values, interpolate_trimmed)
from fqsolve.errors import InvalidParamsError, TooLargeError
from fqsolve.field import FieldSpec


class TestZdegree:
    def test_examples(self):
        assert zdegree(1, 0, 5, 2, 2) == 2
        assert zdegree(10, 2, 5, 2, 3) == 6
        assert zdegree(3, 5, 5, 2, 7) == 0  # beta = n, m*d >= n

    def test_validation(self):
        with pytest.raises(ValueError):
            zdegree(0, 0, 3, 2, 2)
        with pytest.raises(ValueError):
            zdegree(1, 4, 3, 2, 2)


class TestPlurality:
    def test_examples(self):
        assert plurality([1, 1, 2]) == 1
        assert plurality([2, 1]) == 1  # tie -> smaller index
        assert plurality([0, 0, 0]) == 0

    def test_empty_raises(self):
        with pytest.raises(InvalidParamsError):
            plurality([])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_against_counter(self, values):
        from collections import Counter
        best = plurality(values)
        counts = Counter(values)
        assert counts[best] == max(counts.values())
        assert all(v >= best for v, c in counts.items()
                   if c == counts[best])


class TestStreamedPlurality:
    @staticmethod
    def _stream(votes, taken):
        for start in range(0, len(votes), VOTE_CHUNK):
            taken.append(start)
            yield votes[start:start + VOTE_CHUNK]

    @pytest.mark.parametrize("t", [1, 2, 5, VOTE_CHUNK - 1, VOTE_CHUNK,
                                   VOTE_CHUNK + 1, 2 * VOTE_CHUNK + 7, 300])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_plurality_per_column(self, q, t):
        rng = np.random.default_rng(1000 * q + t)
        votes = rng.integers(0, q, size=(t, 60))
        half = t // 2
        # exact ties between a larger value, leading early, and a smaller
        # one that catches up in the last rows: the smaller must win
        votes[:half, :10] = q - 1
        votes[half:2 * half, :10] = rng.integers(0, q - 1, size=10)
        # 0 and 1 level until the last row, which gives 0 the lead at odd t
        votes[:half, 10:15] = 0
        votes[half:2 * half, 10:15] = 1
        votes[2 * half:, 10:15] = 0
        # unanimous columns
        votes[:, 15:25] = rng.integers(0, q, size=10)
        want = [plurality(votes[:, c]) for c in range(votes.shape[1])]
        taken = []
        got = streamed_plurality(self._stream(votes, taken), q, t)
        assert got.tolist() == want
        if half:
            assert len(taken) == -(-t // VOTE_CHUNK)  # ties need every row

    def test_unanimous_votes_stop_after_a_majority(self):
        t = 300
        votes = np.tile(np.arange(7) % 3, (t, 1))
        taken = []
        got = streamed_plurality(self._stream(votes, taken), 3, t)
        assert got.tolist() == (np.arange(7) % 3).tolist()
        # a majority is t // 2 + 1 = 151 rows: three chunks of 64
        assert len(taken) == -(-(t // 2 + 1) // VOTE_CHUNK)

    @pytest.mark.parametrize("t", [1, 6, VOTE_CHUNK + 1,
                                   2 * VOTE_CHUNK + 7])
    @pytest.mark.parametrize("q, npts", [(2, 50), (3, 50), (256, 40),
                                         (65521, 3)])
    def test_same_result_in_every_dtype(self, q, npts, t):
        # one vote matrix as uint8, uint16 and int64 (those that hold
        # q-1): the same plurality and the same chunks taken; at q = 256
        # a value times npts overflows uint8, so the cells must not be
        # formed in the votes' type
        rng = np.random.default_rng(q + t)
        votes = rng.integers(0, q, size=(t, npts))
        half = t // 2
        votes[:half, 0] = q - 1  # a tie the smaller value must win
        votes[half:2 * half, 0] = 0
        votes[:, 1] = q - 1  # unanimous on the largest value
        want = [plurality(votes[:, c]) for c in range(npts)]
        seen = []
        for dtype in (np.uint8, np.uint16, np.int64):
            if q - 1 > np.iinfo(dtype).max:
                continue
            taken = []
            got = streamed_plurality(self._stream(votes.astype(dtype),
                                                  taken), q, t)
            assert got.tolist() == want, dtype
            seen.append(len(taken))
        assert len(seen) >= 2 and len(set(seen)) == 1


class TestSolverParams:
    def test_invariants(self):
        with pytest.raises(InvalidParamsError):
            SolverParams(kappa=Fraction(1, 3)).resolve(4, 2)  # not < 1/(2d-1)
        with pytest.raises(InvalidParamsError):
            SolverParams(kappa=Fraction(1, 4),
                         lam=Fraction(1, 3)).resolve(4, 2)  # lam > kappa
        with pytest.raises(InvalidParamsError):
            SolverParams(t_override=0).resolve(4, 2)
        k, l = SolverParams().resolve(6, 2)
        assert 0 < l <= k < Fraction(1, 3)

    def test_paper_default_repetitions(self):
        import math
        p = SolverParams()
        assert p.repetitions(6, 2) == math.ceil(96 * 6 * math.log(2))
        assert SolverParams(t_override=17).repetitions(6, 2) == 17


def _params(seed=0, **kw):
    kw.setdefault("kappa", Fraction(3, 10))
    kw.setdefault("lam", Fraction(3, 20))
    return SolverParams(seed=seed, **kw)


class TestPartialSum:
    def test_beta_zero_matches_indicator(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            q = int(rng.choice([2, 3]))
            n = int(rng.integers(2, 4))
            system = random_system(rng, q, n, 2, 2)
            z0 = partial_sum(system, 0, _params(trial), RngStream(trial))
            for pt in full_grid(q, n):
                assert z0.evaluate(pt) == eval_indicator(system, pt)

    def test_unsatisfiable_system_gives_zero(self):
        f = make_field(3)
        x = Polynomial.variable(f, 2, 0)
        system = PolySystem(f, 2, [x, x.add(Polynomial.constant(f, 2, 1))], 1)
        for beta in (0, 1, 2):
            z = partial_sum(system, beta, _params(beta), RngStream(beta))
            assert z.is_zero()

    def test_example_against_oracle_with_recursion(self):
        f = make_field(2)
        pa = Polynomial.from_terms(f, 4, [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])
        pb = Polynomial.from_terms(f, 4, [((0, 0, 1, 1), 1)])
        system = PolySystem(f, 4, [pa, pb], 2)
        expected = brute_partial_sum(system, 2)
        for seed in range(10):
            prm = SolverParams(kappa=Fraction(3, 10), lam=Fraction(3, 10),
                               t_override=40, seed=seed)
            got = partial_sum(system, 2, prm, RngStream(seed))
            assert got == expected

    def test_degree_bound_structural(self):
        # the bound holds whatever the repetition count, so keep t tiny:
        # deep recursion multiplies work by t per level
        rng = np.random.default_rng(4)
        for trial in range(12):
            q = int(rng.choice([2, 3]))
            n = int(rng.integers(3, 6))
            m = int(rng.integers(1, 4))
            system = random_system(rng, q, n, m, 2)
            beta = int(rng.integers(0, n + 1))
            z = partial_sum(system, beta, _params(trial, t_override=3),
                            RngStream(trial))
            assert z.degree() <= max(0, zdegree(m, beta, n, 2, q))

    def test_beta_out_of_range(self):
        system = random_system(np.random.default_rng(0), 2, 3, 2, 2)
        with pytest.raises(InvalidParamsError):
            partial_sum(system, 4, _params(), RngStream(0))

    def test_empty_system(self):
        f = make_field(3)
        system = PolySystem(f, 3, [], 1)
        assert partial_sum(system, 0, _params(), RngStream(0)) == \
            Polynomial.constant(f, 3, 1)
        assert partial_sum(system, 2, _params(), RngStream(0)).is_zero()

    def test_per_point_error_rate_of_one_repetition(self):
        # one random-combination repetition, exact recursion: the measured
        # per-point error rate stays within a 3-sigma band of 1/q^2
        rng = np.random.default_rng(5)
        q, n, m = 2, 4, 3
        system = random_system(rng, q, n, m, 2)
        beta_sub = 1
        mu = beta_sub + 2
        truth = brute_partial_sum(system, beta_sub)
        y = (0, 1, 0)
        from fqsolve import razborov_smolensky
        stream = RngStream(77)
        trials = 2000
        wrong = 0
        for t in range(trials):
            combos = razborov_smolensky(system, mu, stream.child(t))
            zj = brute_partial_sum(
                PolySystem(system.field, system.n, combos, system.d), beta_sub)
            wrong += zj.evaluate(y) != truth.evaluate(y)
        p = q ** -2
        sigma = (p * (1 - p) / trials) ** 0.5
        assert wrong / trials <= p + 3 * sigma


class TestFullSum:
    def test_constant_one_system(self):
        f = make_field(2)
        system = PolySystem(f, 2, [Polynomial.constant(f, 2, 1)], 1)
        assert full_sum(system, _params(), RngStream(0)) == 0

    def test_unique_root_line(self):
        for q in (2, 3, 5):
            f = make_field(q)
            p = Polynomial.from_terms(f, 1, [((1,), 1), ((0,), q - 1)])
            system = PolySystem(f, 1, [p], 1)
            assert full_sum(system, _params(), RngStream(1)) == 1

    def test_empty_system(self):
        f = make_field(3)
        system = PolySystem(f, 2, [], 1)
        assert full_sum(system, _params(), RngStream(2)) == 0

    def test_matches_oracle_across_seeds(self):
        rng = np.random.default_rng(6)
        for trial in range(15):
            q = int(rng.choice([2, 3]))
            n = int(rng.integers(3, 6))
            system = random_system(rng, q, n, 3, 2)
            got = full_sum(system, _params(trial, t_override=60),
                           RngStream(trial))
            assert got == brute_Z(system)

    def test_determinism_and_thread_independence(self):
        rng = np.random.default_rng(7)
        system = random_system(rng, 3, 5, 3, 2)
        prm = _params(3, t_override=24)
        a = full_sum(system, prm, RngStream(3))
        b = full_sum(system, prm, RngStream(3))
        assert a == b

    def test_deeper_recursion_matches_oracle(self):
        rng = np.random.default_rng(8)
        f = make_field(2)
        system = random_system(rng, 2, 9, 3, 2)
        prm = SolverParams(kappa=Fraction(30, 100), lam=Fraction(12, 100),
                           t_override=25, seed=5)
        # beta = 2, step = ceil(0.12*9) = 2: two recursion levels
        got = full_sum(system, prm, RngStream(5))
        assert got == brute_Z(system)

    def test_one_philox_per_vote_chunk(self, monkeypatch):
        # each RS draw is one vectorised Philox over all its repetitions:
        # a vote draws the chunks before its early stop can fire in one
        # pass and the rest one chunk per pass.  At q = 4 no draw is ever
        # rejected, so no bit generator is built, per repetition or not
        from fqsolve import randomized
        built, draws, passes = [0], [], [0]
        philox, philox_words = np.random.Philox, randomized._philox_words
        rs_draw = core.rs_draw

        def counting_philox(*args, **kwargs):
            built[0] += 1
            return philox(*args, **kwargs)

        def counting_words(keys, blocks):
            passes[0] += 1
            return philox_words(keys, blocks)

        def counting_draw(q, mu, m, keys):
            draws.append(len(keys))
            return rs_draw(q, mu, m, keys)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(randomized, "_philox_words", counting_words)
        monkeypatch.setattr(core, "rs_draw", counting_draw)
        system = random_system(np.random.default_rng(9), 4, 4, 3, 2)
        assert full_sum(system, _params(4), RngStream(4)) == brute_Z(system)
        # one vote over t = 533: rows 0..319 hold the first possible stop
        assert draws[0] == 5 * VOTE_CHUNK
        assert all(n <= VOTE_CHUNK for n in draws[1:])
        assert passes[0] == len(draws)
        assert built[0] == 0

    @pytest.mark.parametrize("q, n", [(2, 6), (3, 5), (4, 4)])
    def test_warm_reevaluation_runs_no_axis_pass(self, q, n, monkeypatch):
        # at the C3 shapes every vote chunk is re-evaluated by a cached
        # map or a gather once the first full_sum has built the maps; a
        # fallback to the axis passes must fail here
        from fqsolve import transform
        rng = np.random.default_rng(16 + q)
        params = SolverParams(kappa=Fraction(3, 10), lam=Fraction(3, 20))
        warm, system = (random_system(rng, q, n, 3, 2, 3, 7)
                        for _ in range(2))
        full_sum(warm, params, RngStream(1))
        inside, passes = [False], [0]
        compile_reevaluation = core.compile_reevaluation
        apply_axis = transform._apply_axis

        def flagged_compile(*args):
            reevaluate = compile_reevaluation(*args)

            def flagged_reevaluate(rows):
                inside[0] = True
                try:
                    return reevaluate(rows)
                finally:
                    inside[0] = False
            return flagged_reevaluate

        def counting_apply_axis(*args):
            passes[0] += inside[0]
            return apply_axis(*args)

        monkeypatch.setattr(core, "compile_reevaluation", flagged_compile)
        monkeypatch.setattr(transform, "_apply_axis", counting_apply_axis)
        assert full_sum(system, params, RngStream(2)) == brute_Z(system)
        assert passes[0] == 0

    def test_route_picked_once_per_vote_level(self, monkeypatch):
        # the golden two-levels-q3-n7 system at t = 4: two vote levels,
        # one vote at level 0 and one per repetition at level 1.  Each
        # level's re-evaluation map is compiled on its first vote and
        # fetched from the cache on every other; a repeated call compiles
        # no re-evaluation map, so its only compile_matrix calls are the
        # one value map and one composition per vote chunk below the top
        from fqsolve import transform
        from test_golden_seeds import SUM_CASES, _system
        from test_golden_seeds import _params as golden_params
        shape, sys_seed, kw = SUM_CASES["two-levels-q3-n7"]
        system = _system(shape, sys_seed)
        beta = math.floor(Fraction(kw["kappa"]) * system.n)
        votes, compiled = [0], [0]
        vote, compile_matrix = core._vote, FieldSpec.compile_matrix

        def counting_vote(*args):
            votes[0] += 1
            return vote(*args)

        def counting_compile(self, mat):
            compiled[0] += 1
            return compile_matrix(self, mat)

        def run():
            votes[0] = compiled[0] = 0
            return partial_sum(system, beta, golden_params(kw),
                               RngStream(kw["seed"]))

        monkeypatch.setattr(core, "_vote", counting_vote)
        monkeypatch.setattr(FieldSpec, "compile_matrix", counting_compile)
        cache = transform.compile_reevaluation
        cache.cache_clear()
        first = run()
        info = cache.cache_info()
        assert votes[0] == 1 + kw["t"]
        assert (info.misses, info.hits) == (2, votes[0] - 2)
        assert run() == first
        info = cache.cache_info()
        assert (info.misses, info.hits) == (2, 2 * votes[0] - 2)
        below_top_chunks = (votes[0] - 1) * -(-kw["t"] // VOTE_CHUNK)
        assert compiled[0] == 1 + below_top_chunks


    def test_one_field_product_per_vote_chunk(self, monkeypatch):
        # with one vote level, the distinct columns of the input value rows
        # are compiled once and a chunk's combinations on them are one
        # application of that map to its RS matrices
        base, compiled, applied, chunks = [], [], [0], [0]
        compile_matrix, evaluate = FieldSpec.compile_matrix, core.evaluate_values
        rs_chunks = core._rs_chunks

        def spied_evaluate(*args):
            base.append(evaluate(*args))
            return base[-1]

        def counting_compile(self, mat):
            apply = compile_matrix(self, mat)
            if not any(mat.shape[1] == len(b) and np.array_equal(
                    mat, np.unique(b, axis=1).T) for b in base):
                return apply
            compiled.append(len(mat))

            def counting_apply(rows):
                applied[0] += 1
                return apply(rows)
            return counting_apply

        def counting_chunks(*args):
            for chunk in rs_chunks(*args):
                chunks[0] += 1
                yield chunk

        monkeypatch.setattr(core, "evaluate_values", spied_evaluate)
        monkeypatch.setattr(FieldSpec, "compile_matrix", counting_compile)
        monkeypatch.setattr(core, "_rs_chunks", counting_chunks)
        system = random_system(np.random.default_rng(20), 2, 6, 3, 2, 3, 7)
        assert full_sum(system, _params(1), RngStream(1)) == brute_Z(system)
        assert chunks[0] > 1 and len(compiled) == 1
        assert applied[0] == chunks[0]
        # C <= min(q^m, |leaf|) = min(2^3, 57) distinct columns
        (b,) = base
        assert compiled[0] <= min(system.field.q ** len(b), b.shape[1])


class TestLeafSums:
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_matches_a_plain_count(self, q, b):
        # (repetition, point) sums of the roots of mu combinations over
        # each point's block of q^b suffix points, counted one by one and
        # reduced mod p; mostly zero values, so the counts pass p.  The
        # sums come in an unsigned type of at most two bytes, never int64
        field = make_field(q)
        rng = np.random.default_rng(70 + 3 * q + b)
        reps, mu, ncols, npts = 4, 2, 6, 5
        values = rng.integers(0, q, size=(reps, mu, ncols))
        values[rng.random((reps, mu, ncols)) < 0.7] = 0
        cls = rng.integers(0, ncols, size=npts * q ** b)
        counts = [[sum(all(values[r, i, cls[x * q ** b + y]] == 0
                           for i in range(mu))
                       for y in range(q ** b))
                   for x in range(npts)] for r in range(reps)]
        want = [[c % field.p for c in row] for row in counts]
        on_points = values[:, :, cls]
        for got in (core._leaf_sums(field, values, cls, b),
                    core._leaf_sums(field, on_points, slice(None), b)):
            assert got.tolist() == want
            assert got.dtype.kind == "u" and got.dtype.itemsize <= 2
        assert max(map(max, counts)) >= (field.p if b else 1)


class TestDistinctColumns:
    # a vote runs its combinations on the leaf set's distinct value
    # columns: whether all of a repetition's combinations vanish at a point
    # depends only on the point's column of input values, so the root
    # table of the columns, gathered by class, is that of the points
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_leaf_sums_from_distinct_columns(self, q):
        field = make_field(q)
        rng = np.random.default_rng(30 + q)
        m, mu, reps = 3, 2, 9
        for b in (0, 1):
            # 6 columns, one of them zero, repeated over the points
            pool = rng.integers(0, q, size=(m, 6))
            pool[:, 0] = 0
            values = pool[:, rng.integers(0, 6, size=5 * q ** b)]
            rho = rng.integers(0, q, size=(reps, mu, m))
            cols, cls = np.unique(values, axis=1, return_inverse=True)
            combine = field.compile_matrix(cols.T)
            on_cols = combine(rho.reshape(-1, m)).reshape(reps, mu, -1)
            on_points = np.stack([field.matmul(r, values) for r in rho])
            got = core._leaf_sums(field, on_cols, cls.reshape(-1), b)
            want = core._leaf_sums(field, on_points, slice(None), b)
            assert got.shape == (reps, 5) and (got == want).all()

    @given(st.sampled_from([2, 4, 65521]), st.integers(1, 4),
           st.integers(1, 40), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @example(65521, 1, 1, 1, 0)   # a single point
    @example(2, 1, 30, 2, 1)      # m = 1
    @example(4, 3, 25, 1, 2)      # all columns equal
    @settings(max_examples=60, deadline=None)
    def test_split_matches_numpy_unique(self, q, m, npts, pool, seed):
        # the row-by-row ranking gives np.unique's columns, in its order,
        # and its inverse; the columns come from a pool of at most `pool`
        # random ones, so they repeat
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, q, size=(m, pool))
        base = choices[:, rng.integers(0, pool, size=npts)]
        want_cols, want_cls = np.unique(base, axis=1, return_inverse=True)
        cols, cls = core._distinct_columns(base)
        assert cols.tolist() == want_cols.tolist()
        assert cls.tolist() == want_cls.reshape(-1).tolist()

    def test_partial_sums_match_the_oracle(self, monkeypatch):
        # with few distinct columns (3 rows over GF(3), two vote levels)
        # and with one column per leaf point (X_i plus squares of earlier
        # variables plus c_i: the values determine the point)
        widths, split = [], core._distinct_columns

        def spied_split(base):
            cols, cls = split(base)
            widths.append((cols.shape[1], len(cls)))
            return cols, cls

        monkeypatch.setattr(core, "_distinct_columns", spied_split)
        few = random_system(np.random.default_rng(40), 3, 7, 3, 2)
        prm = SolverParams(kappa=Fraction(3, 10), lam=Fraction(1, 7),
                           t_override=15, seed=0)
        assert partial_sum(few, 2, prm, RngStream(0)) == \
            brute_partial_sum(few, 2)
        assert widths[-1][0] <= 3 ** 3 < widths[-1][1]

        f, n = make_field(3), 4
        rng = np.random.default_rng(41)
        unit = [tuple(2 * (j == i) for j in range(n)) for i in range(n)]
        tri = PolySystem(f, n, [Polynomial.from_terms(
            f, n, [(tuple(e // 2 for e in unit[i]), 1),
                   ((0,) * n, int(rng.integers(0, 3)))]
            + [(unit[j], int(rng.integers(1, 3))) for j in range(i)])
            for i in range(n)], 2)
        assert partial_sum(tri, 1, _params(1, t_override=60),
                           RngStream(1)) == brute_partial_sum(tri, 1)
        assert widths[-1] == (81, 81)

    @pytest.mark.parametrize("name", ["two-levels-q3-n7",
                                      "three-levels-q2-n10"])
    def test_one_value_map_per_sum(self, name, monkeypatch):
        # every level's system is a coefficient matrix over the m inputs,
        # so a sum compiles one map, of its C distinct leaf columns, and
        # every other matrix it compiles is an m x m_i composition of a
        # chunk's draws with its level's coefficients
        from test_golden_seeds import SUM_CASES, _system
        from test_golden_seeds import _params as golden_params
        shape, sys_seed, kw = SUM_CASES[name]
        system = _system(shape, sys_seed)
        beta = math.floor(Fraction(kw["kappa"]) * system.n)
        run = partial(partial_sum, system, beta, golden_params(kw))
        run(RngStream(kw["seed"]))  # compiles the re-evaluation maps
        splits, compiled = [], []
        split = core._distinct_columns
        compile_matrix = FieldSpec.compile_matrix

        def spied_split(base):
            splits.append(split(base))
            return splits[-1]

        def spied_compile(self, mat):
            compiled.append(mat)
            return compile_matrix(self, mat)

        monkeypatch.setattr(core, "_distinct_columns", spied_split)
        monkeypatch.setattr(FieldSpec, "compile_matrix", spied_compile)
        for seed in range(3):
            run(RngStream(seed))
        m = len(system.polys)
        assert len(splits) == 3
        cols = splits[0][0]
        assert cols.shape[1] > m
        maps = [mat for mat in compiled if mat.shape[0] == cols.shape[1]]
        assert len(maps) == 3
        assert all(np.array_equal(mat, cols.T) for mat in maps)
        assert all(mat.shape[0] == m for mat in compiled
                   if mat.shape[0] != cols.shape[1])
        assert len(compiled) > len(maps)


class TestVoteDraws:
    # a vote's RS coefficients, drawn many repetitions per Philox pass,
    # are those of one fresh stream per repetition.  At q = 65521, seed
    # 1003 has a rejected draw at repetition 39 (in the first pass of
    # t = 200, which ends at 128) and seed 20369 at repetition 170
    @pytest.mark.parametrize("q", [2, 3, 4, 65521])
    @pytest.mark.parametrize("t", [1, 64, 65, 200])
    def test_whole_vote_draw_matches_fresh_streams(self, q, t, monkeypatch):
        from fqsolve import randomized
        redrawn = []
        mu, m = 3, 5
        seeds = (0, 1003, 20369, 2 ** 64 - 1)
        got = {}

        def keyed(words):
            return np.random.Generator(np.random.Philox(key=words))

        with monkeypatch.context() as mp:
            mp.setattr(randomized, "_keyed_generator",
                       lambda words: redrawn.append(words) or keyed(words))
            for seed in seeds:
                got[seed] = list(core._rs_chunks(q, mu, m,
                                                 RngStream(seed, (4,)), t))
        for seed in seeds:
            starts, chunks = zip(*got[seed])
            assert list(starts) == list(range(0, t, VOTE_CHUNK))
            assert [len(c) for c in chunks] == [
                len(range(s, t)[:VOTE_CHUNK]) for s in starts]
            want = np.stack([keyed(RngStream(seed, (4, 2 * j))._key())
                             .integers(0, q, size=(mu, m)) for j in range(t)])
            drawn = np.concatenate(chunks)
            assert drawn.dtype == want.dtype and (drawn == want).all()
        assert len(redrawn) == (q == 65521) * ((t > 39) + (t > 170))


class TestSizeChecks:
    # (2,6,3,2) at kappa = 3/10, lambda = 3/20 votes once over t = 400:
    # its largest array is a chunk's 64 repetitions on the 64 points of
    # T(5, 5) x GF(2) it re-evaluates through, checked before the system
    # is evaluated
    LARGEST = 64 * 64

    def test_full_sum_checked_before_evaluation(self, monkeypatch):
        system = random_system(np.random.default_rng(21), 2, 6, 3, 2, 3, 7)
        monkeypatch.setattr(field, "ENTRY_LIMIT", self.LARGEST)
        assert full_sum(system, _params(2), RngStream(2)) == brute_Z(system)
        def no_evaluation(*args):
            raise AssertionError("evaluated before the size check")

        monkeypatch.setattr(field, "ENTRY_LIMIT", self.LARGEST - 1)
        monkeypatch.setattr(core, "evaluate_values", no_evaluation)
        with pytest.raises(TooLargeError):
            full_sum(system, _params(2), RngStream(2))

    def test_solve_pes_checked_before_evaluation(self, monkeypatch):
        # each isolation trial plans its recursion before solve_pes
        # evaluates the system on the trial's leaf set: just under the
        # largest array of the first trial that recurses, the call is
        # refused before any value is computed
        system = random_system(np.random.default_rng(21), 2, 6, 3, 2, 3, 7)
        plans, plan = [], core._plan

        def spied_plan(*args):
            plans.append(plan(*args))
            return plans[-1]

        def no_evaluation(*args):
            raise AssertionError("evaluated before the size check")

        with monkeypatch.context() as mp:
            mp.setattr(core, "_plan", spied_plan)
            solve_pes(system, _params(2, outer_reps=1))
        (first,) = plans
        assert len(first.levels) == 2
        largest = max(entries for entries, _ in first.sizes.values())
        monkeypatch.setattr(field, "ENTRY_LIMIT", largest - 1)
        monkeypatch.setattr(core, "evaluate_values", no_evaluation)
        with pytest.raises(TooLargeError):
            solve_pes(system, _params(2))

    def test_digit_expansion_counted(self, monkeypatch):
        # (4,4,3,2) at the same parameters: a chunk's 64 repetitions on the
        # 256 points of T(3, 12) x GF(4) it re-evaluates through are
        # float64 products two digits wide over GF(4), so they count
        # 64 x 256 x 2 entries, not 64 x 256; every other array fits
        system = random_system(np.random.default_rng(22), 4, 4, 3, 2, 3, 7)

        def no_evaluation(*args):
            raise AssertionError("evaluated before the size check")

        monkeypatch.setattr(field, "ENTRY_LIMIT", 64 * 256 * 2 - 1)
        monkeypatch.setattr(core, "evaluate_values", no_evaluation)
        with pytest.raises(TooLargeError):
            full_sum(system, _params(3), RngStream(3))

    def test_first_draw_pass_counted(self, monkeypatch):
        # at t = 2000 a vote draws its first 1024 repetitions in one pass,
        # 1024 x 8 words for 2 x 3 coefficients each, over LARGEST
        system = random_system(np.random.default_rng(21), 2, 6, 3, 2, 3, 7)

        def no_evaluation(*args):
            raise AssertionError("evaluated before the size check")

        monkeypatch.setattr(field, "ENTRY_LIMIT", self.LARGEST)
        monkeypatch.setattr(core, "evaluate_values", no_evaluation)
        with pytest.raises(TooLargeError, match="draws of 1024"):
            full_sum(system, _params(2, t_override=2000), RngStream(2))

    def test_levels_above_the_leaf_hold_one_repetition(self, monkeypatch):
        # the golden three-levels-q2-n10 system at t = 64: only the level
        # next to the leaf forms combinations of values, a chunk at a
        # time, 64 x 2 x 386 = 49,408 entries, the largest array; the
        # levels above it hold coefficients only.  The whole call
        # runs 64^2 leaf votes (about a minute), so it stops after the
        # first of them.  The transform's fresh-point maps are not the
        # recursion's: compiled once per pair of sets and bounded by
        # transform.DENSE_LIMIT (one here has 378 x 386 entries), they
        # are cached by a first run under the real limit
        from test_golden_seeds import SUM_CASES, _system
        from test_golden_seeds import _params as golden_params
        shape, sys_seed, kw = SUM_CASES["three-levels-q2-n10"]
        system = _system(shape, sys_seed)
        entered, vote = set(), core._vote

        class FirstLeafVote(Exception):
            pass

        def one_leaf_vote(field, plan, i, *args):
            entered.add(i)
            out = vote(field, plan, i, *args)
            if i + 2 == len(plan.levels):
                raise FirstLeafVote
            return out

        monkeypatch.setattr(core, "_vote", one_leaf_vote)
        beta = math.floor(Fraction(kw["kappa"]) * system.n)
        for limit in (field.ENTRY_LIMIT, 64 * 2 * 386):
            monkeypatch.setattr(field, "ENTRY_LIMIT", limit)
            entered.clear()
            with pytest.raises(FirstLeafVote):
                partial_sum(system, beta, golden_params(dict(kw, t=64)),
                            RngStream(kw["seed"]))
            assert entered == {0, 1, 2}

    def test_one_value_map_counted(self, monkeypatch):
        # a (4,7,7,2) system at kappa = 3/10, lambda = 1/7, t = 3: two vote
        # levels over GF(4), whose leaf set's 7 rows have at most
        # min(4^7, 12,238) distinct columns.  Their one map, compiled once
        # per sum, expands to 12,238 x 7 x 2^2 = 342,664 entries, the
        # largest array; the votes carry coefficients, so no level adds a
        # map of its own
        system = random_system(np.random.default_rng(12), 4, 7, 7, 2)
        run = partial(partial_sum, system, 2,
                      _params(0, lam=Fraction(1, 7), t_override=3),
                      RngStream(0))
        monkeypatch.setattr(field, "ENTRY_LIMIT", 12238 * 7 * 4)
        run()

        def no_evaluation(*args):
            raise AssertionError("evaluated before the size check")

        monkeypatch.setattr(field, "ENTRY_LIMIT", 12238 * 7 * 4 - 1)
        monkeypatch.setattr(core, "evaluate_values", no_evaluation)
        with pytest.raises(TooLargeError, match="the map of 7 rows"):
            run()

    def test_digit_rows_refused_by_the_transform(self, monkeypatch):
        # 40 quadratics over GF(4)^10 at kappa = lambda = 1/100 sum at one
        # level on the whole grid: their 40 x 4^10 rows fit the plan, but
        # the transform holds them as 2 float digits per value, 83,886,080
        # entries, and refuses before allocating
        system = random_system(np.random.default_rng(23), 4, 10, 40, 2)
        prm = _params(0, kappa=Fraction(1, 100), lam=Fraction(1, 100))
        plan = core._plan(system.field, 10, 2, 40, 0, prm)
        assert len(plan.levels) == 1
        assert plan.sizes["rows", 0][0] == 40 * 4 ** 10
        with pytest.raises(TooLargeError,
                           match="2-digit rows of 40 polynomials"):
            full_sum(system, prm, RngStream(0))


class TestSizeModel:
    # on the golden multi-level cases every array the recursion builds,
    # whatever its dtype, stays within the count its plan gives its
    # kind and level, and the input rows and the leaf-level coefficients,
    # combinations and roots reach theirs
    @pytest.mark.parametrize("name", ["two-levels-q3-n7",
                                      "three-levels-q2-n10"])
    def test_arrays_within_their_counts(self, name, monkeypatch):
        from test_golden_seeds import SUM_CASES, _system
        from test_golden_seeds import _params as golden_params
        shape, sys_seed, kw = SUM_CASES[name]
        system = _system(shape, sys_seed)
        models, seen = [], []
        (plan, evaluate, split, vote, leaf_sums, compile_reevaluation) = (
            core._plan, core.evaluate_values, core._distinct_columns,
            core._vote, core._leaf_sums, core.compile_reevaluation)

        def spied_plan(*args):
            models.append(plan(*args))
            return models[-1]

        def spied_evaluate(*args):
            out = evaluate(*args)
            seen.append(("rows", 0, out.size))
            return out

        def spied_split(base):
            # the distinct input columns
            cols, cls = split(base)
            seen.append(("rows", 0, cols.size))
            return cols, cls

        def spied_vote(field, plan, i, coeffs, leaf, *args):
            # one repetition of level i-1's composed coefficients, and a
            # chunk of those of the level next to the leaf
            if i > 1:
                seen.append(("coefficients", i - 1, coeffs.size))

            def spied_leaf(rho):
                seen.append(("coefficients", len(plan.levels) - 2, rho.size))
                return leaf(rho)
            return vote(field, plan, i, coeffs,
                        spied_leaf if i == 0 else leaf, *args)

        def spied_leaf_sums(field, values, cls, b):
            leaf_level = len(models[-1].levels) - 2
            # the combinations on the distinct columns, and their root
            # table gathered onto the leaf points
            seen.extend([("combinations", leaf_level, values.size),
                         ("roots", leaf_level, len(values) * len(cls))])
            return leaf_sums(field, values, cls, b)

        def spied_compile(field, n_from, delta_from, delta_to, b):
            levels = models[-1].levels
            # the level whose child sits at beta = n - n_from
            i = next(i for i in range(len(levels) - 1)
                     if levels[i + 1][0] == system.n - n_from)
            reevaluate = compile_reevaluation(field, n_from, delta_from,
                                              delta_to, b)

            def spied_reevaluate(values):
                out = reevaluate(values)
                seen.extend([("re-evaluation", i, values.size),
                             ("re-evaluation", i, out.size)])
                return out
            return spied_reevaluate

        for name_, spy in [("_plan", spied_plan),
                           ("evaluate_values", spied_evaluate),
                           ("_distinct_columns", spied_split),
                           ("_vote", spied_vote),
                           ("_leaf_sums", spied_leaf_sums),
                           ("compile_reevaluation", spied_compile)]:
            monkeypatch.setattr(core, name_, spy)
        # m*d < n here, so full_sum would not recurse
        beta = math.floor(Fraction(kw["kappa"]) * system.n)
        partial_sum(system, beta, golden_params(kw), RngStream(kw["seed"]))
        ((_, _, levels, sizes),) = models
        largest = {}
        for kind, i, entries in seen:
            assert entries <= sizes[kind, i][0]
            largest[kind, i] = max(largest.get((kind, i), 0), entries)
        leaf_level = len(levels) - 2
        for key in [("rows", 0), ("coefficients", leaf_level),
                    ("combinations", leaf_level), ("roots", leaf_level)]:
            assert largest[key] == sizes[key][0]
        assert {i for kind, i in largest if kind == "re-evaluation"} == set(
            range(len(levels) - 1))

    # at n <= 3 the top level is the leaf, whose sums come from the input
    # rows without a vote: no map of their columns is compiled and the
    # plan counts none.  17 quadratics over GF(256)^2 were refused for
    # that map's 65,536 x 17 x 8^2 entries, though the rows hold 17 x
    # 65,536
    @pytest.mark.parametrize("q, n, m", [(3, 3, 2), (256, 2, 17)])
    def test_one_level_plan_counts_no_map(self, q, n, m, monkeypatch):
        system = random_system(np.random.default_rng(q), q, n, m, 2)
        plans, plan = [], core._plan

        def spied_plan(*args):
            plans.append(plan(*args))
            return plans[-1]

        def no_split(base):
            raise AssertionError("the leaf's columns were split")

        monkeypatch.setattr(core, "_plan", spied_plan)
        monkeypatch.setattr(core, "_distinct_columns", no_split)
        assert full_sum(system, _params(q), RngStream(q)) == brute_Z(system)
        ((_, _, levels, sizes),) = plans
        assert len(levels) == 1
        assert list(sizes) == [("rows", 0)]


def test_one_plan_and_edge_type_site():
    # the repetition count is read only where the recursion is planned,
    # and only partial_sum wraps voted values in a TrimmedEvaluation: full
    # sums and isolation trials sum plain value arrays
    calls = {"TrimmedEvaluation": set(), "repetitions": set()}
    tree = ast.parse(pathlib.Path(core.__file__).read_text())
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Name) and func.id in calls:
                calls[func.id].add(where)
            elif isinstance(func, ast.Attribute) and func.attr in calls:
                calls[func.attr].add(where)
    assert calls == {"TrimmedEvaluation": {"partial_sum"},
                     "repetitions": {"_plan"}}


def _on_top_set(field, plan, values):
    """The voted values of a plan as the TrimmedEvaluation of its top set."""
    beta, delta, _ = plan.levels[0]
    return TrimmedEvaluation(
        field, TrimmedPointSet(field.q, plan.n - beta, delta, 0), values)


def _grid_sum(ev):
    """Witness of the final sum: interpolate the values ev, evaluate the
    polynomial on the whole grid and take the field sum there."""
    zpoly = interpolate_trimmed(ev)
    values = evaluate_trimmed(zpoly, max(0, zpoly.degree()), zpoly.n).values
    return ev.field.vsum(values)


class TestFoldPrecondition:
    # with m*d >= n the voted values cover the whole grid GF(q)^(n-beta),
    # so their field sum is the witness's interpolate and re-evaluate
    # route; with m*d < n both are 0
    @given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(1, 5),
           st.integers(1, 3), st.integers(-2, 2), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_indicator_sum_is_the_field_sum_of_the_votes(self, q, n, d,
                                                         extra, t, seed):
        rng = np.random.default_rng(seed)
        m = max(0, -(-n // d) + extra)  # m*d >= n iff extra >= 0
        system = random_system(rng, q, n, m, min(d, n * (q - 1)))
        params = SolverParams(seed=seed % 7, t_override=t, outer_reps=2)
        indicator_sum, voted_sum = core._indicator_sum, core._voted_sum
        voted, recursed = [], []

        def spied_voted_sum(field, plan, *args):
            voted.append((plan, voted_sum(field, plan, *args)))
            return voted[-1][1]

        def checked(field, n, d, m, beta, params, rng, values_at):
            voted.clear()
            out = indicator_sum(field, n, d, m, beta, params, rng, values_at)
            if m * d >= n:
                ((plan, values),) = voted
                assert len(values) == field.q ** (n - beta)
            else:
                assert voted == [] and out == 0
                plan = core._plan(field, n, d, m, beta, params)
                values = voted_sum(field, plan, rng, values_at)
            assert out == _grid_sum(_on_top_set(field, plan, values))
            recursed.append(m * d >= n)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_voted_sum", spied_voted_sum)
            mp.setattr(core, "_indicator_sum", checked)
            full_sum(system, params, RngStream(seed))
            assert recursed == [extra >= 0]
            solve_pes(system, params)
        assert len(recursed) > 1

    @pytest.mark.parametrize("kappa", [Fraction(3, 10), Fraction(1, 100)])
    @pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4)])
    def test_no_polynomial_past_parsing(self, q, n, kappa, monkeypatch):
        # kappa = 3/10 recurses one level; kappa = lambda = 1/100 gives
        # beta = 0, the leaf-only path
        rng = np.random.default_rng(q)
        systems = [random_system(rng, q, n, 3, 2) for _ in range(2)]
        params = SolverParams(kappa=kappa, lam=min(kappa, Fraction(3, 20)),
                              t_override=8, outer_reps=3, seed=q)

        def refuse(*args):
            raise AssertionError("Polynomial built")
        monkeypatch.setattr(Polynomial, "__init__", refuse)
        for seed, system in enumerate(systems):
            full_sum(system, params, RngStream(seed))
            solve_pes(system, params)


class TestChevalleyWarning:
    @staticmethod
    def _old_route(field, n, d, m, beta, params, rng, values_at):
        # the recursion and final grid sum that m*d < n now skips
        plan = core._plan(field, n, d, m, beta, params)
        return _grid_sum(_on_top_set(
            field, plan, core._voted_sum(field, plan, rng, values_at)))

    @given(st.sampled_from([2, 3, 4]), st.integers(2, 5),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_full_sum_is_zero_without_recursion(self, q, n, d, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, -(-n // d)))  # m*d < n
        system = random_system(rng, q, n, m, d)
        prm = SolverParams(seed=seed % 7, t_override=3)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("rs_draw", "evaluate_values"):
                real = getattr(core, name)

                def counted(*args, _real=real, _name=name):
                    calls.append(_name)
                    return _real(*args)
                mp.setattr(core, name, counted)
            assert full_sum(system, prm, RngStream(seed)) == 0
        assert calls == []
        assert brute_Z(system) == 0
        beta = int(prm.resolve(n, d)[0] * n)
        assert self._old_route(
            system.field, n, d, m, beta, prm, RngStream(seed).child(0),
            partial(evaluate_values, system.field, n, system.polys)) == 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_solve_pes_answers_as_before(self, q, monkeypatch):
        # n = 4, d = 2 and one polynomial: a trial with no affine equation
        # has m*d = 2 < 4 and takes the short cut
        indicator_sum = core._indicator_sum
        shortcut = []

        def new_route(*args):
            shortcut.append(args[3] * args[2] < args[1])
            return indicator_sum(*args)
        rng = np.random.default_rng(20 + q)
        for seed in range(4):
            system = random_system(rng, q, 4, 1, 2)
            prm = SolverParams(kappa=Fraction(3, 10), t_override=8,
                               outer_reps=6, seed=seed)
            monkeypatch.setattr(core, "_indicator_sum", new_route)
            got = solve_pes(system, prm)
            monkeypatch.setattr(core, "_indicator_sum", self._old_route)
            assert solve_pes(system, prm) == got
        assert any(shortcut)


class TestSolvePes:
    def test_contradiction_is_unsat(self):
        f = make_field(2)
        x = Polynomial.variable(f, 1, 0)
        system = PolySystem(f, 1, [x, x.add(Polynomial.constant(f, 1, 1))], 1)
        assert solve_pes(system, SolverParams(seed=3)) is False

    def test_product_plus_one_is_sat(self):
        f = make_field(3)
        p = Polynomial.from_terms(f, 2, [((1, 1), 1), ((0, 0), 1)])
        system = PolySystem(f, 2, [p], 2)
        assert solve_pes(system, SolverParams(seed=3)) is True

    def test_empty_system_is_sat(self):
        system = PolySystem(make_field(3), 2, [], 1)
        assert solve_pes(system, SolverParams(seed=3)) is True

    def test_recursive_parameters_agree_with_brute_force(self):
        from fqsolve import count_common_roots
        rng = np.random.default_rng(9)
        for trial in range(6):
            q = int(rng.choice([2, 3]))
            system = random_system(rng, q, 4, 3, 2)
            want = count_common_roots(system).count > 0
            prm = SolverParams(kappa=Fraction(3, 10), lam=Fraction(3, 10),
                               t_override=40, seed=trial)
            assert solve_pes(system, prm) == want

    @pytest.mark.parametrize("kappa", [Fraction(1, 100), Fraction(3, 10)])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_every_trial_matches_polynomial_route(self, q, kappa,
                                                  monkeypatch):
        # witness: append the valiant_vazirani polynomials as a new system
        # and take its full_sum on the trial's stream.  t = 3 makes votes
        # fail at kappa = 3/10, so a wrong stream would change the sums
        rng = np.random.default_rng(q)
        n, reps = 4, 5
        cases, want, ells, wrong = [], [], set(), 0
        for seed, m in enumerate((0, 1, 2, 3)):
            system = random_system(rng, q, n, m, 2)
            prm = SolverParams(kappa=kappa, t_override=3, outer_reps=reps,
                               seed=seed)
            sums = []
            for r in range(reps):
                trial = RngStream(seed).child(r)
                extra = valiant_vazirani(system.field, n, trial.child(0))
                aug = PolySystem(system.field, n,
                                 system.polys + tuple(extra), system.d)
                sums.append(full_sum(aug, prm, trial.child(1)))
                ells.add(len(extra))
                wrong += sums[-1] != brute_Z(aug)
            assert solve_pes(system, prm) == any(sums)
            cases.append((system, prm))
            want += sums
        assert {0, n} <= ells
        assert (wrong > 0) == (kappa == Fraction(3, 10))

        # every trial's sum as solve_pes computes it, with all trials run
        got = []
        indicator_sum = core._indicator_sum

        def record(*args):
            got.append(indicator_sum(*args))
            return 0
        monkeypatch.setattr(core, "_indicator_sum", record)
        for system, prm in cases:
            assert solve_pes(system, prm) is False
        assert got == want
