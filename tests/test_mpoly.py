import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_grid, random_polynomial
from fqsolve import (Polynomial, PolySystem, TrimmedPointSet, enumerate_points,
                     eval_indicator, ext_binom_cum, format_pes, make_field,
                     parse_pes, symbolic_coefficient)
from fqsolve import field, mpoly
from fqsolve.errors import FqsolveError, PesFormatError, TooLargeError
from fqsolve.transform import evaluate_trimmed, interpolate_trimmed


def P(q, n, pairs):
    return Polynomial.from_terms(make_field(q), n, pairs)


class TestArithmetic:
    def test_add_identity(self):
        p = P(5, 2, [((1, 2), 3)])
        assert p.add(Polynomial.zero(make_field(5), 2)) == p

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            P(3, 2, []).add(P(3, 3, []))
        with pytest.raises(ValueError):
            P(3, 2, []).add(P(5, 2, []))

    def test_scale(self):
        p = P(5, 1, [((1,), 2)])
        assert p.scale(3).terms() == [((1,), 1)]  # 2*3 = 6 = 1 mod 5
        assert p.scale(0).is_zero()


class TestEvaluate:
    def test_examples(self):
        assert P(3, 1, [((0,), 1), ((1,), 1)]).evaluate((2,)) == 0
        assert P(5, 2, [((1, 1), 1)]).evaluate((3, 4)) == 2
        assert Polynomial.zero(make_field(7), 3).evaluate((1, 2, 3)) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            P(3, 2, []).evaluate((1,))


class TestModPSumLemma:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2), (5, 2)])
    def test_monomial_grid_sums(self, q, n):
        f = make_field(q)
        for exps in full_grid(q, n):
            acc = 0
            for pt in full_grid(q, n):
                term = 1
                for x, e in zip(pt, exps):
                    term = f.mul(term, f.pow(x, e))
                acc = f.add(acc, term)
            if all(e == q - 1 for e in exps):
                assert acc == f.pow(f.from_int(q - 1), n)
            else:
                assert acc == 0


class TestSymbolicCoefficient:
    def test_examples(self):
        p = P(2, 2, [((1, 1), 1)])
        assert symbolic_coefficient(p, 1).terms() == [((1,), 1)]
        p = P(3, 2, [((1, 0), 1)])
        assert symbolic_coefficient(p, 1).is_zero()

    @pytest.mark.parametrize("q,n,n2", [(2, 3, 1), (3, 3, 2), (5, 2, 1), (4, 2, 2)])
    def test_trailing_sum_identity(self, q, n, n2):
        rng = np.random.default_rng(q * 100 + n * 10 + n2)
        f = make_field(q)
        mult = f.pow(f.from_int(q - 1), n2)
        for _ in range(20):
            p = random_polynomial(rng, q, n, n * (q - 1), max_terms=8)
            p1 = symbolic_coefficient(p, n2)
            for x in full_grid(q, n - n2):
                acc = 0
                for y in full_grid(q, n2):
                    acc = f.add(acc, p.evaluate(x + y))
                assert f.mul(mult, p1.evaluate(x)) == acc


class TestPointSets:
    def test_example_enumerations(self):
        assert enumerate_points(TrimmedPointSet(3, 2, 1, 0)) == \
            [(0, 0), (0, 1), (1, 0)]
        assert enumerate_points(TrimmedPointSet(2, 1, 0, 1)) == [(0,), (1,)]
        assert enumerate_points(TrimmedPointSet(4, 1, 3, 0)) == \
            [(0,), (1,), (2,), (3,)]

    @pytest.mark.parametrize("q,n,delta,b",
                             [(2, 4, 2, 1), (3, 3, 3, 0), (4, 2, 3, 2),
                              (5, 2, 4, 1), (3, 4, 5, 2)])
    def test_against_filtered_grid(self, q, n, delta, b):
        ps = TrimmedPointSet(q, n, delta, b)
        pts = enumerate_points(ps)
        expected = [p for p in full_grid(q, n) if sum(p[:n - b]) <= delta]
        assert pts == expected  # same order: itertools.product is lex
        assert len(pts) == ps.size() == ext_binom_cum(n - b, delta, q) * q ** b
        assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))
        assert all(ps.contains(p) for p in pts)


    # point_matrix refuses a set over ENTRY_LIMIT entries, or with keys
    # over 63 bits, before it builds anything
    def test_size_checked_before_allocation(self, monkeypatch):
        entries = TrimmedPointSet(3, 3, 3, 1).size() * 3
        mpoly.point_matrix.cache_clear()
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries)
        assert mpoly.point_matrix(3, 3, 3, 1).size == entries
        mpoly.point_matrix.cache_clear()
        monkeypatch.setattr(field, "ENTRY_LIMIT", entries - 1)
        monkeypatch.setattr(mpoly.np, "hstack", None)
        with pytest.raises(TooLargeError):
            mpoly.point_matrix(3, 3, 3, 1)
        with pytest.raises(TooLargeError):
            mpoly.point_matrix(16, 16, 0, 0)  # 64-bit keys, one point


class TestIndicator:
    def test_examples(self):
        f2 = make_field(2)
        x1 = Polynomial.variable(f2, 1, 0)
        s = PolySystem(f2, 1, [x1], 1)
        assert eval_indicator(s, (0,)) == 1
        assert eval_indicator(s, (1,)) == 0
        f3 = make_field(3)
        y = Polynomial.variable(f3, 1, 0)
        s = PolySystem(f3, 1, [y, y.add(Polynomial.constant(f3, 1, 1))], 1)
        for x in range(3):
            assert eval_indicator(s, (x,)) == 0

    def test_empty_system_is_one(self):
        s = PolySystem(make_field(3), 2, [], 1)
        assert eval_indicator(s, (1, 2)) == 1


class TestPesFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        f = make_field(4)
        polys = [random_polynomial(rng, 4, 3, 5, max_terms=6) for _ in range(3)]
        s = PolySystem(f, 3, polys, max(max(p.degree() for p in polys), 1))
        text = format_pes(s)
        back = parse_pes(text)
        assert [p.terms() for p in back.polys] == [p.terms() for p in s.polys]
        assert format_pes(back) == text

    def test_comments_and_blanks(self):
        text = "# header comment\n\npes 2 2 1\n# poly follows\npoly 1\n1 1 0\n"
        s = parse_pes(text)
        assert len(s.polys) == 1
        assert s.polys[0].terms() == [((1, 0), 1)]

    def test_zero_polynomial_roundtrips(self):
        s = parse_pes("pes 3 1 1\npoly 0\n")
        assert s.polys[0].is_zero()

    @pytest.mark.parametrize("text", [
        "",
        "pes 2 2\npoly 0\n",
        "pes 6 2 1\npoly 0\n",              # not a prime power
        "pes 2 2 1\npoly 1\n0 1 0\n",       # zero coefficient
        "pes 2 2 1\npoly 1\n1 2 0\n",       # exponent out of range
        "pes 2 2 1\npoly 2\n1 1 0\n",       # missing term line
        "pes 2 2 1\npoly 1\n1 1\n",         # wrong arity
        "pes 2 2 1\npoly 1\n1 1 0\n1 0 1\n",  # trailing content
        "pes 3 2 1\npoly 1\n1 1 0 2\n",     # wrong arity
        "pes 3 2 1\npoly 1\n1 3 0\n",       # exponent = q
        "pes 3 2 1\npoly 1\n3 1 0\n",       # coefficient = q
        "pes 3 2 1\npoly 2\n1 1 0\n0 0 1\n",  # coefficient 0
        "pes 2 2 1\npoly x\n",              # non-integer term count
        "pes 2 2 1\npoly -1\n",             # negative term count
        "pes 2 2 1\npoly 1\n1 a 0\n",       # non-integer term entry
    ])
    def test_rejects_malformed(self, text):
        from fqsolve.errors import NotPrimePowerError
        with pytest.raises((PesFormatError, NotPrimePowerError)):
            parse_pes(text)

    @pytest.mark.parametrize("term", ["1 1", "1 3 0", "3 1 0", "-1 1 0",
                                      "1 -1 0", "0 1 0"])
    def test_term_errors_name_the_polynomial(self, term):
        with pytest.raises(PesFormatError, match="polynomial 2"):
            parse_pes(f"pes 3 2 2\npoly 0\npoly 1\n{term}\n")


class TestSystemValidation:
    def test_degree_bound_enforced(self):
        f = make_field(2)
        p = P(2, 2, [((1, 1), 1)])
        with pytest.raises(ValueError):
            PolySystem(f, 2, [p], 1)

    def test_embed(self):
        p = P(3, 2, [((1, 2), 2)])
        e = p.embed(4, [3, 1])
        assert e.terms() == [((0, 2, 0, 1), 2)]


@st.composite
def _term_pairs(draw, q, n):
    """(exponents, coefficient) pairs, as Python ints or as numpy ints;
    exponents stop at 4 so that the transform route stays small at q=257."""
    pairs = draw(st.lists(st.tuples(
        st.lists(st.integers(0, min(q - 1, 4)), min_size=n, max_size=n),
        st.integers(0, q - 1)), max_size=6))
    if draw(st.booleans()):
        return [(np.array(e, dtype=np.int64), np.int64(c)) for e, c in pairs]
    return [(tuple(e), c) for e, c in pairs]


@st.composite
def _polynomials(draw):
    """A polynomial built by one of the constructors, and a second build
    of the same polynomial by another route."""
    q = draw(st.sampled_from([2, 3, 4, 5, 9, 257]))
    n = draw(st.integers(1, 3))
    f = make_field(q)
    pairs = draw(_term_pairs(q, n))
    a = Polynomial.from_terms(f, n, pairs)
    route = draw(st.sampled_from(["from_terms", "variable", "constant",
                                  "embed", "symbolic", "transform"]))
    if route == "from_terms":
        return a, Polynomial.from_terms(f, n, pairs[::-1])
    if route == "variable":
        i = draw(st.integers(0, n - 1))
        x = Polynomial.variable(f, n, i)
        return x, P(q, n, [(tuple(int(j == i) for j in range(n)), 1)])
    if route == "constant":
        c = draw(st.integers(0, q - 1))
        return Polynomial.constant(f, n, c), P(q, n, [((0,) * n, c)])
    if route == "embed":
        extra = draw(st.integers(0, 2))
        var_map = draw(st.permutations(range(n + extra)))[:n]
        back = [var_map.index(j) if j in var_map else None
                for j in range(n + extra)]
        return a.embed(n + extra, var_map), P(q, n + extra, [
            (tuple(0 if i is None else e[i] for i in back), c)
            for e, c in a.terms()])
    if route == "symbolic":
        n2 = draw(st.integers(0, n))
        p1 = symbolic_coefficient(a, n2)
        return p1, P(q, n - n2, [(e[:n - n2], c) for e, c in a.terms()
                                 if all(x == q - 1 for x in e[n - n2:])])
    b = draw(st.integers(0, n))
    return interpolate_trimmed(evaluate_trimmed(a, a.degree(), b)), a


@given(_polynomials())
@settings(max_examples=300, deadline=None)
def test_term_keys_are_exponent_tuples(built):
    p, same = built
    assert p == same and hash(p) == hash(same)
    ts = p.terms()
    assert [e for e, _ in ts] == sorted({e for e, _ in ts})
    for e, c in ts:
        assert len(e) == p.n and all(type(x) is int for x in e)
        assert type(c) is int and 0 < c < p.field.q
    assert p.degree() == max((sum(e) for e, _ in ts), default=0)
    assert Polynomial.from_terms(p.field, p.n, ts) == p


@st.composite
def _systems(draw):
    q = draw(st.sampled_from([2, 3, 4, 7, 8]))
    n = draw(st.integers(1, 3))
    f = make_field(q)
    polys = [Polynomial.from_terms(f, n, draw(_term_pairs(q, n)))
             for _ in range(draw(st.integers(0, 3)))]
    return PolySystem(f, n, polys, max([p.degree() for p in polys] + [1]))


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_pes_text_roundtrips(s):
    back = parse_pes(format_pes(s))
    assert (back.field, back.n, back.polys, back.d) == \
        (s.field, s.n, s.polys, s.d)


_TOKEN = st.one_of(st.integers(-3, 10).map(str), st.text(max_size=3))


@given(st.one_of(
    st.text(),
    st.builds(lambda head, rows: "\n".join(
        [" ".join(["pes"] + head)] + [" ".join(r) for r in rows]),
        st.lists(_TOKEN, min_size=3, max_size=4),
        st.lists(st.one_of(
            st.builds(lambda t: ["poly", t], _TOKEN),
            st.lists(_TOKEN, max_size=5)), max_size=8))))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_parses_or_raises_typed_error(text):
    try:
        s = parse_pes(text)
    except FqsolveError:
        return
    assert format_pes(parse_pes(format_pes(s))) == format_pes(s)
