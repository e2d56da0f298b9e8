import ast
import pathlib

import numpy as np
import pytest

from conftest import full_grid, random_polynomial, random_system
from fqsolve import (Polynomial, PolySystem, brute_Z, brute_partial_sum,
                     count_common_roots, eval_indicator, make_field, zdegree)
from fqsolve.errors import TooLargeError
from fqsolve.field import FieldSpec
from fqsolve import oracle
from fqsolve.mpoly import point_matrix
from fqsolve.oracle import (_pow_inverse, _pow_matrix, grid_evaluate,
                            grid_interpolate, trimmed_points)


class TestCountCommonRoots:
    def test_examples(self):
        f2 = make_field(2)
        system = PolySystem(f2, 1, [Polynomial.variable(f2, 1, 0)], 1)
        assert count_common_roots(system).count == 1

        f3 = make_field(3)
        assert count_common_roots(PolySystem(f3, 3, [], 1)).count == 27

        f5 = make_field(5)
        p = Polynomial.from_terms(f5, 2, [((1, 0), 1), ((0, 1), 1)])
        assert count_common_roots(PolySystem(f5, 2, [p], 1)).count == 5

    def test_guard(self):
        f = make_field(5)
        with pytest.raises(TooLargeError):
            count_common_roots(PolySystem(f, 12, [], 1))


class TestBruteZ:
    def test_examples(self):
        f3 = make_field(3)
        x = Polynomial.variable(f3, 2, 0)
        unsat = PolySystem(f3, 2, [x, x.add(Polynomial.constant(f3, 2, 1))], 1)
        assert brute_Z(unsat) == 0

        p = Polynomial.from_terms(f3, 1, [((1,), 1), ((0,), 2)])
        assert brute_Z(PolySystem(f3, 1, [p], 1)) == 1

        assert brute_Z(PolySystem(f3, 4, [], 1)) == 0

    def test_equals_root_count_mod_characteristic(self):
        rng = np.random.default_rng(0)
        for trial in range(500):
            q = int(rng.choice([2, 3, 4, 5]))
            n = int(rng.integers(1, 5))
            system = random_system(rng, q, n, int(rng.integers(0, 4)), 2)
            count = count_common_roots(system).count
            assert brute_Z(system) == count % system.field.p


class TestBrutePartialSum:
    def test_beta_equals_n_gives_full_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            system = random_system(rng, 3, 3, 2, 2)
            z = brute_partial_sum(system, 3)
            assert z.n == 0
            assert z.evaluate(()) == brute_Z(system)

    def test_beta_zero_is_indicator(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = int(rng.choice([2, 3]))
            system = random_system(rng, q, 3, 2, 2)
            z = brute_partial_sum(system, 0)
            for pt in full_grid(q, 3):
                assert z.evaluate(pt) == eval_indicator(system, pt)

    def test_hand_enumeration_example(self):
        f2 = make_field(2)
        p = Polynomial.from_terms(f2, 2, [((1, 1), 1)])
        z1 = brute_partial_sum(PolySystem(f2, 2, [p], 2), 1)
        # roots of X1*X2: (0,0),(0,1),(1,0); summing the indicator over the
        # second variable gives Z_1(0) = 2 = 0 and Z_1(1) = 1, i.e. Z_1 = Y
        assert z1.terms() == [((1,), 1)]

    def test_degree_bound(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            q = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            system = random_system(rng, q, n, m, 2)
            beta = int(rng.integers(0, n + 1))
            z = brute_partial_sum(system, beta)
            assert z.degree() <= max(0, zdegree(m, beta, n, 2, q))

    def test_guard(self):
        f = make_field(5)
        with pytest.raises(TooLargeError):
            brute_partial_sum(PolySystem(f, 11, [], 1), 2)


class TestDenseGridHelpers:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 257])
    def test_pow_inverse_inverts_the_power_table(self, q):
        f = make_field(q)
        pw = _pow_matrix(f, q)
        product = f.matmul(_pow_inverse(f), pw)
        assert (product == np.eye(q, dtype=np.int64)).all()
        # a narrower table is the full one's first columns
        assert (_pow_matrix(f, 2) == pw[:, :2]).all()

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (9, 2)])
    def test_grid_evaluate_matches_pointwise(self, q, n):
        rng = np.random.default_rng(q + n)
        from conftest import random_polynomial
        p = random_polynomial(rng, q, n, n * (q - 1), max_terms=8)
        vals = grid_evaluate(p)
        for i, pt in enumerate(full_grid(q, n)):
            assert vals[i] == p.evaluate(pt)

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2)])
    def test_grid_interpolate_roundtrip(self, q, n):
        rng = np.random.default_rng(10 * q + n)
        from conftest import random_polynomial
        p = random_polynomial(rng, q, n, n * (q - 1), max_terms=8)
        assert grid_interpolate(make_field(q), grid_evaluate(p), n) == p

    # a count walks (top_a + 1) exponent planes of q^n products on each
    # axis a of each polynomial, an interpolation q planes per axis: one
    # product past WALK_LIMIT is refused before any evaluation
    def test_walk_limit(self, monkeypatch):
        f = make_field(5)
        p = Polynomial.from_terms(f, 2, [((2, 0), 1), ((1, 1), 3)])
        system = PolySystem(f, 2, [p, p], 2)  # 2 x (3 + 2) planes
        vals = grid_evaluate(p)
        monkeypatch.setattr(oracle, "WALK_LIMIT", 10 * 5 ** 2)
        assert count_common_roots(system).count == \
            int((vals == 0).sum())
        assert grid_interpolate(f, vals, 2) == p  # 2 x 5 planes
        monkeypatch.setattr(oracle, "WALK_LIMIT", 10 * 5 ** 2 - 1)
        monkeypatch.setattr(oracle, "grid_evaluate", None)
        with pytest.raises(TooLargeError):
            count_common_roots(system)
        with pytest.raises(TooLargeError):
            grid_interpolate(f, vals, 2)

    def test_independent_of_the_matrix_kernel(self, monkeypatch):
        # the oracle is a witness for the solver's matrix kernel, so it must
        # not go through it: with compile_matrix broken, the dense helpers
        # still agree with pointwise evaluation
        def broken(self, mat):
            raise AssertionError("the oracle called compile_matrix")

        monkeypatch.setattr(FieldSpec, "compile_matrix", broken)
        rng = np.random.default_rng(5)
        for q, n in ((2, 4), (4, 2), (9, 2), (257, 1)):
            p = random_polynomial(rng, q, n, n * (q - 1), max_terms=8)
            vals = grid_evaluate(p)
            assert vals.tolist() == [p.evaluate(pt) for pt in full_grid(q, n)]
            assert grid_interpolate(make_field(q), vals, n) == p
        system = random_system(rng, 3, 3, 2, 2)
        want = sum(all(p.evaluate(pt) == 0 for p in system.polys)
                   for pt in full_grid(3, 3))
        assert count_common_roots(system).count == want


# the oracles stay independent of the solver: oracle.py imports from the
# package only its errors, the field arithmetic and the polynomials
def test_imports_no_solver_module():
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            used |= ({node.module.split(".")[0]} if node.module
                     else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "fqsolve":
            used |= ({node.module.split(".")[1]} if "." in node.module
                     else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            used |= {a.name.split(".")[1] if "." in a.name else a.name
                     for a in node.names if a.name.split(".")[0] == "fqsolve"}
    assert used == {"errors", "field", "mpoly"}


# the solver's point sets against the oracle's own enumeration, for every
# q <= 5, n <= 4, b, and delta up to one past the largest coordinate sum
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_matrix_matches_enumeration(q):
    for n in range(5):
        for b in range(n + 1):
            for delta in range((n - b) * (q - 1) + 2):
                want = trimmed_points(q, n, delta, b)
                got = point_matrix(q, n, delta, b)
                assert got.shape == want.shape, (n, delta, b)
                assert (got == want).all(), (n, delta, b)
