import decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_sat_count, random_cnf
from fqsolve import (Cnf, Polynomial, PolySystem, count_common_roots,
                     make_field, parse_dimacs, reduce_cnf)
from fqsolve import field, reduction, transform
from fqsolve.errors import DimacsFormatError, FqsolveError, TooLargeError
from fqsolve.mpoly import format_pes
from fqsolve.oracle import grid_interpolate
from fqsolve.reduction import (MAX_BLOCK_GRID, _ceil_exact_vars1,
                               _pow2_at_least, dec_table, make_plan)


def witness_reduce(cnf, q, delta, parsimonious):
    """The reduction through the oracle: every polynomial is the dense-grid
    interpolation of its values on all of GF(q)^out_vars, where block b's
    tuple, read as a base-q number v_b (first coordinate most significant),
    gives the bits of v_b mod 2^vars1.  A clause is 1 where every literal
    is falsified; a padding bit is its own value; the range polynomial of a
    block is 1 where v_b >= 2^vars1."""
    plan = make_plan(cnf.n_vars, cnf.width, q, delta, parsimonious)
    field = make_field(q)
    digits = np.indices((q,) * plan.out_vars).reshape(plan.blocks,
                                                      plan.vars2, -1)
    v = np.tensordot(q ** np.arange(plan.vars2 - 1, -1, -1), digits, (0, 1))

    def bit(var):  # the value of Boolean variable var (0-based) everywhere
        block, pos = divmod(var, plan.vars1)
        return (v[block] % (1 << plan.vars1)) >> pos & 1

    values = [np.logical_and.reduce([bit(abs(lit) - 1) == (lit < 0)
                                     for lit in clause])
              for clause in cnf.clauses]
    if parsimonious:
        values += [bit(var) for var in range(cnf.n_vars, plan.padded_vars)]
        values += list(v >= 1 << plan.vars1)
    polys = [grid_interpolate(field, vals.astype(np.int64), plan.out_vars)
             for vals in values]
    return PolySystem(field, plan.out_vars, polys, plan.degree_bound)


@st.composite
def small_cnfs(draw):
    n = draw(st.integers(1, 10))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    return Cnf(n, draw(st.lists(st.lists(lit, min_size=1, max_size=3),
                                max_size=5)))


class TestParseDimacs:
    def test_single_unit(self):
        cnf = parse_dimacs("p cnf 1 1\n1 0\n")
        assert cnf.n_vars == 1 and cnf.clauses == [[1]]

    def test_two_clauses_with_comments(self):
        cnf = parse_dimacs("c comment\np cnf 2 2\n1 2 0\n-1 0\n")
        assert cnf.clauses == [[1, 2], [-1]]
        assert cnf.width == 2

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf.clauses == [[1, 2, 3]]

    @pytest.mark.parametrize("text", [
        "1 0\n",                      # clause before header
        "p cnf 1 1\n2 0\n",           # literal out of range
        "p cnf 1 1\n1\n",             # missing terminator
        "p cnf 1 2\n1 0\n",           # clause count mismatch
        "p cnf x 1\n1 0\n",           # malformed header
        "p cnf 1 1\n0\n",             # empty clause
        "p cnf 1 1\np cnf 1 1\n1 0\n",  # duplicate header
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(DimacsFormatError):
            parse_dimacs(text)

    @given(st.one_of(
        st.text(),
        st.builds(lambda head, rows: "\n".join(
            [head] + [" ".join(r) for r in rows]),
            st.one_of(st.text(max_size=12),
                      st.builds("p cnf {} {}".format, st.integers(0, 4),
                                st.integers(0, 4))),
            st.lists(st.lists(st.one_of(st.integers(-5, 5).map(str),
                                        st.text(max_size=2)), max_size=4),
                     max_size=5))))
    @example("p cnf " + "1" * 5000 + " 1\n1 0\n")  # past int()'s digit limit
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_typed_error(self, text):
        try:
            cnf = parse_dimacs(text)
        except FqsolveError:
            return
        assert len(cnf.clauses) == cnf.n_clauses
        assert all(c and all(1 <= abs(x) <= cnf.n_vars for x in c)
                   for c in cnf.clauses)


class TestPlan:
    @pytest.mark.parametrize("q,delta,vars1", [
        (2, Fraction(1), 2), (3, Fraction(1), 4), (4, Fraction(1), 4),
        (2, Fraction(1, 2), 4), (3, Fraction(1, 2), 7), (4, Fraction(1, 2), 8),
    ])
    def test_exact_ceilings(self, q, delta, vars1):
        import math
        plan = make_plan(10, 3, q, delta, False)
        assert plan.vars1 == vars1 == math.ceil((2 / delta) * math.log2(q))
        assert plan.vars2 == math.ceil(plan.vars1 / math.log2(q))
        assert q ** plan.vars2 >= 2 ** plan.vars1
        assert plan.blocks == math.ceil(10 / plan.vars1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_vars1_matches_exact_power_search(self, q):
        def exact_search(q, delta):  # builds both powers as integers
            a, b = delta.numerator, delta.denominator
            v = 1
            while 2 ** (v * a) < q ** (2 * b) and 2 ** v <= MAX_BLOCK_GRID:
                v += 1
            return v

        for a in range(1, 13):
            for b in range(1, 13):
                delta = Fraction(a, b)
                assert _ceil_exact_vars1(q, delta) == exact_search(q, delta)

    # consecutive continued-fraction convergents a/b of log2(3), one below
    # it and one above: a*ln(2) and b*ln(3) agree to about 50 digits, so
    # the first 40-digit comparison cannot decide and the precision doubles
    @pytest.mark.parametrize("a, b", [
        (2727782575569043909543559, 1721039188200292347893905),
        (2777155680644301964114340, 1752190149218482586763461)])
    def test_pow2_at_least_doubles_its_precision(self, a, b):
        with decimal.localcontext() as ctx:
            ctx.prec = 300
            ln2, ln3 = decimal.Decimal(2).ln(), decimal.Decimal(3).ln()
            gap = a * ln2 - b * ln3
            assert abs(gap) * 10 ** 39 <= a * ln2 + b * ln3
        above = gap > 0  # 2^a >= 3^b, i.e. a/b >= log2(3)
        assert _pow2_at_least(a, 3, b) == above
        # vars1 = 2 exactly when 2*delta >= 2*log2(3)
        plan = make_plan(4, 3, 3, Fraction(a, b), False)
        assert plan.vars1 == (2 if above else 3)

    def test_dec_surjective(self):
        for q, delta in [(2, Fraction(1)), (3, Fraction(1)),
                         (4, Fraction(1)), (3, Fraction(1, 2))]:
            plan = make_plan(6, 3, q, delta, False)
            table = dec_table(plan)
            rows = {tuple(r) for r in table.tolist()}
            assert len(rows) == 2 ** plan.vars1


class TestReduceCnf:
    def test_unit_clause_counts(self):
        cnf = parse_dimacs("p cnf 1 1\n1 0\n")
        plan = make_plan(1, 1, 2, Fraction(1), False)
        loose = reduce_cnf(cnf, 2, 1, parsimonious=False)
        # solutions are all encodings whose decoded assignment satisfies x1;
        # padding bits are free, so the count scales by 2^(padded - 1)
        assert count_common_roots(loose).count == \
            2 ** (plan.padded_vars - 1)
        exact = reduce_cnf(cnf, 2, 1, parsimonious=True)
        assert count_common_roots(exact).count == 1

    def test_contradiction_unsatisfiable(self):
        cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        for q in (2, 3, 4):
            system = reduce_cnf(cnf, q, 1, parsimonious=False)
            assert count_common_roots(system).count == 0

    @pytest.mark.parametrize("q,delta,nmax", [
        (2, Fraction(1), 10), (3, Fraction(1), 10), (4, Fraction(1), 10),
        (2, Fraction(1, 2), 8), (3, Fraction(1, 2), 6), (4, Fraction(1, 2), 6),
    ])
    def test_parsimony_random(self, q, delta, nmax):
        rng = np.random.default_rng(int(q * 100 + delta * 10))
        for trial in range(6):
            n = int(rng.integers(3, nmax + 1))
            m = int(rng.integers(1, 13))
            cnf = random_cnf(rng, n, m)
            system = reduce_cnf(cnf, q, delta, parsimonious=True)
            assert count_common_roots(system).count == brute_sat_count(cnf)

    def test_equisatisfiable_without_flag(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            cnf = random_cnf(rng, n, int(rng.integers(2, 14)))
            q = int(rng.choice([2, 3, 4]))
            system = reduce_cnf(cnf, q, 1, parsimonious=False)
            assert (count_common_roots(system).count > 0) == \
                (brute_sat_count(cnf) > 0)

    def test_output_bounds(self):
        rng = np.random.default_rng(9)
        for q, delta in [(2, Fraction(1)), (3, Fraction(1)),
                         (4, Fraction(1, 2))]:
            cnf = random_cnf(rng, 9, 10)
            plan = make_plan(9, cnf.width, q, delta, True)
            system = reduce_cnf(cnf, q, delta, parsimonious=True)
            assert system.n == plan.out_vars <= plan.blocks * plan.vars2
            bound = cnf.width * plan.vars2 * (q - 1)
            assert all(p.degree() <= bound for p in system.polys)
            assert system.d == bound

    @given(q=st.sampled_from([2, 3, 4]),
           delta=st.sampled_from([Fraction(1), Fraction(1, 2)]),
           parsimonious=st.booleans(), cnf=small_cnfs())
    # a repeated literal
    @example(q=3, delta=Fraction(1), parsimonious=False,
             cnf=Cnf(3, [[2, 2, -1], [-3, -3]]))
    # x or not x inside one block: the zero polynomial
    @example(q=4, delta=Fraction(1, 2), parsimonious=True,
             cnf=Cnf(2, [[1, -1], [-2, 1, 2]]))
    @example(q=2, delta=Fraction(1), parsimonious=True, cnf=Cnf(4, []))
    # 5 variables in blocks of 2 (q = 2, delta = 1): one padding bit
    @example(q=2, delta=Fraction(1), parsimonious=True,
             cnf=Cnf(5, [[1, -4, 5], [-5]]))
    @settings(max_examples=100, deadline=None)
    def test_matches_polynomial_witness(self, q, delta, parsimonious, cnf):
        system = reduce_cnf(cnf, q, delta, parsimonious=parsimonious)
        witness = witness_reduce(cnf, q, delta, parsimonious)
        assert format_pes(system) == format_pes(witness)
        assert system.d == witness.d

    # the witness shares no code with the reduction's transform route
    def test_witness_is_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness left the oracle")

        for owner, name in ((transform, "interpolate_trimmed"),
                            (reduction, "interpolate_trimmed"),
                            (reduction, "dec_table"),
                            (Polynomial, "add"), (Polynomial, "scale"),
                            (Polynomial, "embed")):
            monkeypatch.setattr(owner, name, refuse)
        cnf = Cnf(5, [[1, -4, 5], [-5]])
        system = witness_reduce(cnf, 2, 1, True)
        assert count_common_roots(system).count == brute_sat_count(cnf)

    def test_tautology_in_one_block_is_zero(self):
        system = reduce_cnf(Cnf(2, [[1, -1]]), 3, 1)
        assert len(system) == 1 and system.polys[0].is_zero()

    # the reduction builds every polynomial from values: it adds, scales
    # and embeds no Polynomial (C6's shapes, checked by counting)
    def test_reduces_without_polynomial_arithmetic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Polynomial arithmetic in reduce_cnf")

        rng = np.random.default_rng(1006)
        cases = []
        for i in range(12):
            q = (2, 3, 4)[i % 3]
            delta = Fraction(1, 2) if i % 4 == 3 else Fraction(1)
            nmax = 10 if delta == 1 else (8 if q == 2 else 6)
            cases.append((random_cnf(rng, int(rng.integers(3, nmax + 1)),
                                     int(rng.integers(1, 21))), q, delta))
        with monkeypatch.context() as patch:
            for name in ("add", "scale", "embed"):
                patch.setattr(Polynomial, name, refuse)
            systems = [reduce_cnf(cnf, q, delta, parsimonious=True)
                       for cnf, q, delta in cases]
        for (cnf, _, _), system in zip(cases, systems):
            assert count_common_roots(system).count == brute_sat_count(cnf)

    # a clause polynomial is refused once its terms x variables pass
    # ENTRY_LIMIT, and built when they reach it exactly
    def test_product_over_entry_limit(self, monkeypatch):
        cnf = Cnf(4, [[1, -3, 4]])  # two blocks of 2 over GF(2) at delta 1
        poly = reduce_cnf(cnf, 2, 1).polys[0]
        entries = poly.num_terms() * poly.n
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries)
        assert reduce_cnf(cnf, 2, 1).polys[0] == poly
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries - 1)
        with pytest.raises(TooLargeError):
            reduce_cnf(cnf, 2, 1)

    # the limit bounds the whole system: clauses that each fit are refused
    # together, before any of their polynomials is built
    def test_system_over_entry_limit(self, monkeypatch):
        cnf = Cnf(4, [[1, -3, 4], [2, 3], [-1, 2]])
        system = reduce_cnf(cnf, 2, 1, parsimonious=True)
        terms = [p.num_terms() for p in system.polys]
        entries = sum(terms) * system.n
        assert max(terms) * system.n < entries / 2
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries)
        assert reduce_cnf(cnf, 2, 1, parsimonious=True).polys == system.polys
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries - 1)
        built = []
        monkeypatch.setattr(reduction, "_product",
                            lambda *args: built.append(args))
        with pytest.raises(TooLargeError):
            reduce_cnf(cnf, 2, 1, parsimonious=True)
        assert built == []
