import math

import pytest

from fqsolve import analysis
from fqsolve import entropy_H, ext_binom, ext_binom_cum, gap_I, zeta
from fqsolve.errors import NotPrimePowerError

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


class TestExtBinom:
    def test_classical_binomials_at_q2(self):
        for n in range(0, 16):
            for delta in range(n + 1):
                assert ext_binom(n, delta, 2) == math.comb(n, delta)
        assert ext_binom(5, 2, 2) == 10

    def test_small_exhaustive_example(self):
        # exponent vectors in {0,1,2}^2 with sum exactly 2: (0,2),(1,1),(2,0)
        assert ext_binom(2, 2, 3) == 3

    def test_degree_zero(self):
        for q in PRIME_POWERS:
            assert ext_binom(7, 0, q) == 1

    @pytest.mark.parametrize("q", [2, 3, 5, 9])
    def test_row_sums(self, q):
        for n in range(0, 31):
            assert sum(ext_binom(n, d, q) for d in range(n * (q - 1) + 1)) \
                == q ** n

    @pytest.mark.parametrize("q", [2, 3, 4, 7])
    def test_reflection_symmetry(self, q):
        # the mirror point is n*(q-1) - delta
        for n in range(0, 12):
            top = n * (q - 1)
            for delta in range(top + 1):
                assert ext_binom(n, delta, q) == ext_binom(n, top - delta, q)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_monotone_up_to_midpoint(self, q):
        for n in (3, 6, 10):
            mid = n * (q - 1) // 2
            row = [ext_binom(n, d, q) for d in range(mid + 1)]
            assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))

    def test_cumulative(self):
        assert ext_binom_cum(3, 2, 3) == 1 + 3 + 6
        assert ext_binom_cum(3, 100, 3) == 27  # saturates at q^n
        assert ext_binom_cum(3, -1, 3) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ext_binom(3, 7, 3)
        with pytest.raises(ValueError):
            ext_binom(3, -1, 3)

    @staticmethod
    def _row_by_convolution(n, q):
        # the direct DP: every degree spreads over the next q degrees
        row = [1]
        for _ in range(n):
            new = [0] * (len(row) + q - 1)
            for deg, cnt in enumerate(row):
                for v in range(q):
                    new[deg + v] += cnt
            row = new
        return tuple(row)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
    def test_row_matches_direct_convolution(self, q):
        for n in range(0, 7):
            assert analysis._ext_binom_row(n, q) \
                == self._row_by_convolution(n, q)

    def test_row_at_the_largest_order(self):
        # three variables over GF(2^16): the entry at D is the number of
        # compositions of D into three parts below q
        q = 1 << 16
        row = analysis._ext_binom_row(3, q)
        assert len(row) == 3 * (q - 1) + 1
        assert sum(row) == q ** 3
        assert row[0] == 1 and row[2] == 6 and row[q - 1] == q * (q + 1) // 2

    def test_table_type(self):
        row = analysis._ext_binom_row(4, 3)
        assert list(row) == [ext_binom(4, d, 3) for d in range(9)]
        assert sum(row) == 3 ** 4


class TestEntropyH:
    def test_binary_matches_closed_form(self):
        for alpha in [0.05 * i for i in range(1, 10)]:
            closed = -alpha * math.log2(alpha) - (1 - alpha) * math.log2(1 - alpha)
            assert abs(entropy_H(2, alpha) - closed) < 1e-6

    def test_spot_value(self):
        assert abs(entropy_H(2, 0.25) - 0.811278) < 1e-6

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_at_most_one(self, q):
        for alpha in (0.05, 0.2, 0.35, 0.49):
            assert 0.0 < entropy_H(q, alpha) <= 1.0

    @pytest.mark.parametrize("q,n", [(2, 20), (3, 15), (5, 12), (9, 10)])
    def test_counting_bound(self, q, n):
        for alpha in (0.1, 0.25, 0.4):
            lhs = ext_binom_cum(n, math.floor(alpha * (q - 1) * n), q)
            assert lhs <= q ** (entropy_H(q, alpha) * n)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_H(2, 0.0)
        with pytest.raises(ValueError):
            entropy_H(2, 0.5)
        with pytest.raises(ValueError):
            entropy_H(1, 0.25)


class TestGapI:
    def test_reference_value(self):
        assert abs(gap_I(1, 0.25) - 0.1308) < 1e-3

    def test_limit(self):
        assert abs(gap_I(10 ** 4, 0.25) - 0.408639) < 1e-3
        assert abs(analysis.gap_I_limit(0.25) - 0.408639) < 1e-5

    def test_positive_and_increasing_in_q(self):
        for alpha in (0.1, 0.25, 0.4):
            vals = [gap_I(q - 1, alpha) for q in PRIME_POWERS]
            assert all(v > 0 for v in vals)
            assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


class TestZeta:
    def test_reference_exponents(self):
        assert zeta(2, 2).zeta <= 0.6950 + 5e-4
        assert zeta(3, 2).zeta <= 0.6960 + 5e-4
        assert zeta(4, 2).zeta <= 0.6980 + 5e-4
        assert zeta(4, 3).zeta <= 0.8130 + 5e-4

    def test_report_invariants(self):
        for q in (2, 3, 4):
            for d in (1, 2, 3):
                rep = zeta(q, d)
                assert 0.0 < rep.zeta <= 1.0
                assert rep.zeta <= rep.theorem1_bound
                assert rep.theorem1_bound == \
                    1 - min(1 / (8 * math.log(q)), 1 / (4 * d))
                assert 0.0 < rep.kappa_star < 1 / (2 * d - 1)

    def test_binary_field_large_degree_conjecture(self):
        d = 2
        while d <= 2 ** 18:
            assert zeta(2, d).zeta <= 1 - 1 / (2 * d)
            d *= 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(NotPrimePowerError):
            zeta(6, 2)
        with pytest.raises(ValueError):
            zeta(2, 0)


def _delta_grid(d, points=512):
    """Interior points of (0, 1/(2d-1)), the range of delta for degree d."""
    kmax = 1 / (2 * d - 1)
    return [kmax * i / points for i in range(1, points)]


class TestZetaExact:
    # the zeta objective's integrand g(delta) = H(q, alpha)(1 - delta),
    # alpha = delta(d-1)/(1-delta), on the q <= 16, d <= 6 table
    PAIRS = [(q, d) for q in analysis.prime_powers(16) for d in range(2, 7)]

    def test_zeta_bounds_the_integrand(self):
        # zeta = max(1 - kappa*, S(kappa*)) is at least g wherever the
        # maximiser delta* lies below kappa*, which it does on this table
        for q, d in self.PAIRS:
            z = zeta(q, d).zeta
            worst = max(entropy_H(q, x * (d - 1) / (1 - x)) * (1 - x)
                        for x in _delta_grid(d))
            assert worst <= z + 1e-12, (q, d, worst - z)

    def test_slope_changes_sign_once(self):
        # g' = -theta*(d-1)/(1-delta) - H, with H'(alpha) = -theta*: the
        # delta* bisection needs g to rise and then fall
        for q, d in self.PAIRS:
            signs = []
            for x in _delta_grid(d):
                theta, h = analysis._theta_H(q, x * (d - 1) / (1 - x))
                signs.append(-theta * (d - 1) / (1 - x) - h > 0)
            assert signs[0] and not signs[-1], (q, d)
            flips = sum(a != b for a, b in zip(signs, signs[1:]))
            assert flips == 1, (q, d, flips)

    def test_kappa_star_is_one_minus_zeta(self):
        for rep in analysis.exponent_table(16, 6):
            assert abs(rep.kappa_star + rep.zeta - 1) < 1e-12, rep

    def test_dinur_quadratic_binary(self):
        # Dinur (SODA 2021): 2^(0.6943n) for quadratic systems over F_2
        assert abs(zeta(2, 2).zeta - 0.694242) < 1e-6


class TestGapILimit:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.45])
    def test_matches_gap_at_large_q(self, alpha):
        assert abs(analysis.gap_I_limit(alpha) - gap_I(65536, alpha)) < 1e-4


class TestCsv:
    def test_format(self):
        text = analysis.format_exponent_csv(analysis.exponent_table(3, 2))
        lines = text.strip().splitlines()
        assert lines[0] == "q,d,kappa_star,zeta,theorem1_bound"
        assert len(lines) == 1 + 2 * 2  # q in {2,3} x d in {1,2}
        row22 = lines[2].split(",")
        assert row22[0] == "2" and row22[1] == "2"
        assert float(row22[3]) <= 0.6955
        assert all(len(cell.split(".")[-1]) == 6
                   for cell in lines[1].split(",")[2:])

    def test_prime_powers(self):
        assert analysis.prime_powers(10) == [2, 3, 4, 5, 7, 8, 9]
