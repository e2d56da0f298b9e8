import math

import numpy as np
import pytest

from fqsolve import make_field
from fqsolve.errors import (FieldTooLargeError, NotPrimePowerError,
                            TooLargeError)
from fqsolve.field import (ENTRY_LIMIT, FLOAT32_LIMIT, REDUCE_LIMIT,
                           _factor_prime_power)

# every prime power up to 64
SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_make_field_rejects_non_prime_powers():
    for q in (6, 10, 12, 15, 100):
        with pytest.raises(NotPrimePowerError):
            make_field(q)


def test_make_field_rejects_oversize():
    # 10^18 + 3 is prime: trial division up to its square root would hang
    for q in (2 ** 17, 10 ** 18 + 3):
        with pytest.raises(FieldTooLargeError):
            make_field(q)


def test_irreducible_choices():
    assert make_field(5).irreducible == (0, 1)  # degenerate for k = 1
    assert make_field(4).irreducible == (1, 1, 1)
    # exhaustive derivation: X^2+X+1 is the only monic irreducible quadratic
    # over F_2 (the others have a root)
    for c0, c1 in [(0, 0), (0, 1), (1, 0)]:
        assert any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))
    assert all((x * x + x + 1) % 2 == 1 for x in (0, 1))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    add, mul = f.add_table, f.mul_table
    idx = np.arange(q)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (add[idx[:, None], idx[None, :]] == add[idx[None, :], idx[:, None]]).all()
    assert (mul[idx[:, None], idx[None, :]] == mul[idx[None, :], idx[:, None]]).all()
    for x in range(q):  # distributivity
        assert (mul[x, add[idx[:, None], idx[None, :]]]
                == add[mul[x, idx][:, None], mul[x, idx][None, :]]).all()
    assert (add[0, idx] == idx).all()
    assert (mul[1, idx] == idx).all()


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_pow_q_fixes_everything(q):
    f = make_field(q)
    for a in range(q):
        assert f.pow(a, q) == a
        if a:
            assert f.pow(a, q - 1) == 1


def _power_sum(f, k):
    """Sum of x^k over every x in the field, by direct summation."""
    acc = 0
    for x in range(f.q):
        acc = f.add(acc, f.pow(x, k))
    return acc


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_fermat_power_sum_exhaustive(q):
    f = make_field(q)
    for k in range(q):
        got = _power_sum(f, k)
        if k == q - 1:
            assert got == f.from_int(q - 1)
        else:
            assert got == 0


def test_fermat_power_sum_examples():
    assert _power_sum(make_field(3), 2) == 2
    assert _power_sum(make_field(3), 0) == 0
    # over F_4 the value (q-1)*1 = 1+1+1 collapses to 1 in characteristic 2
    assert _power_sum(make_field(4), 3) == 1


def test_scalar_examples():
    assert make_field(5).mul(3, 4) == 2
    assert make_field(4).mul(2, 3) == 1  # x*(x+1) = x^2+x = 1 mod x^2+x+1
    assert make_field(7).pow(3, 6) == 1


def test_division_by_zero():
    f = make_field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.mul(5, f.inv(0))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_sub_div_neg_roundtrip(q):
    f = make_field(q)
    for a in range(q):
        for b in range(q):
            assert f.add(f.sub(a, b), b) == a
            if b:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
        assert f.add(a, f.sub(0, a)) == 0


def _generator_walk(f):
    """exp/log by walking the powers of g = 2, 3, ... until one has order
    q - 1."""
    q = f.q
    for g in range(2, q):
        seen = np.zeros(q, dtype=bool)
        exp = np.zeros(q - 1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            if seen[x]:
                break
            seen[x] = True
            exp[i] = x
            x = f._mul_digits(x, g)
        else:
            if x == 1:
                log = np.zeros(q, dtype=np.int64)
                log[exp] = np.arange(q - 1, dtype=np.int64)
                return exp, log


# every extension order up to 1024
EXTENSION_ORDERS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169,
                    243, 256, 289, 343, 361, 512, 529, 625, 729, 841, 961,
                    1024]


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_exp_log_match_generator_walk(q):
    f = make_field(q)
    exp, log = _generator_walk(f)
    assert f._exp.dtype == exp.dtype and (f._exp == exp).all()
    assert f._log.dtype == log.dtype and (f._log == log).all()


def test_large_prime_field_without_tables():
    f = make_field(65521)  # largest prime below 2^16
    assert f.mul_table is None
    assert f.mul(12345, 54321) == (12345 * 54321) % 65521
    assert f.mul(f.inv(777), 777) == 1
    assert f.pow(3, 65520) == 1


def test_large_extension_field_without_tables():
    f = make_field(3 ** 6)  # 729 > table limit
    assert f.mul_table is None
    for a in (1, 2, 5, 100, 728):
        assert f.mul(f.inv(a), a) == 1
        assert f.pow(a, f.q) == a
    assert f.add(1, 2) == 0  # characteristic 3 on the prime subfield


# the reference is digit arithmetic: base-p digits added or negated one by
# one mod p, and _mul_digits, the digit-polynomial product mod the
# irreducible; 289 and 65521 lie above TABLE_LIMIT
@pytest.mark.parametrize("q", [3, 4, 8, 9, 27, 289, 65521])
def test_vector_ops_match_scalar(q):
    f = make_field(q)
    p, k = f.p, f.k
    rng = np.random.default_rng(0)
    a = rng.integers(0, q, size=50)
    b = rng.integers(0, q, size=50)
    a[:3] = b[3:6] = 0

    def digitwise(op, *xs):
        return sum(op(*(x // p ** i % p for x in xs)) % p * p ** i
                   for i in range(k))

    pairs = list(zip(a.tolist(), b.tolist()))
    want = {
        "add": [digitwise(lambda x, y: x + y, x, y) for x, y in pairs],
        "sub": [digitwise(lambda x, y: x - y, x, y) for x, y in pairs],
        "mul": [f._mul_digits(x, y) for x, y in pairs],
    }
    for name, expect in want.items():
        vop, op = getattr(f, "v" + name), getattr(f, name)
        assert vop(a, b).tolist() == expect, name
        assert [op(x, y) for x, y in pairs] == expect, name
    neg = [digitwise(lambda x: -x, x) for x in a.tolist()]
    assert f.vneg(a).tolist() == neg
    assert [f.sub(0, x) for x in a.tolist()] == neg
    assert f.vsum(a) == digitwise(lambda *ds: sum(ds), *a.tolist())


# 243 still has tables; 257 and 289 lie above TABLE_LIMIT: modular and
# exp/log arithmetic
@pytest.mark.parametrize("q", [3, 4, 9, 8, 16, 81, 243, 257, 289])
def test_compiled_matrix_matches_scalar(q):
    f = make_field(q)
    rng = np.random.default_rng(1)
    mat = rng.integers(0, q, size=(4, 4))
    rows = rng.integers(0, q, size=(11, 4))
    got = f.apply_rows(rows, mat)
    for r in range(11):
        for j in range(4):
            acc = 0
            for i in range(4):
                acc = f.add(acc, f.mul(int(mat[j, i]), int(rows[r, i])))
            assert got[r, j] == acc


@pytest.mark.parametrize("q", [2, 5, 4, 9, 16])
def test_matmul_matches_scalar_loop(q):
    f = make_field(q)
    rng = np.random.default_rng(q)
    # a batch, a plain rectangular product, and an empty inner dimension
    for ashape, bshape in [((3, 4, 5), (5, 6)), ((7, 2), (2, 9)),
                           ((2, 3, 0), (0, 4))]:
        a = rng.integers(0, q, size=ashape)
        b = rng.integers(0, q, size=bshape)
        rows = a.reshape(int(np.prod(ashape[:-1])), ashape[-1])
        want = np.zeros((len(rows), bshape[1]), dtype=np.int64)
        for r, row in enumerate(rows):
            for j in range(bshape[1]):
                acc = 0
                for k in range(bshape[0]):
                    acc = f.add(acc, f.mul(int(row[k]), int(b[k, j])))
                want[r, j] = acc
        got = f.matmul(a, b)
        assert got.shape == ashape[:-1] + bshape[1:]
        assert (got.reshape(want.shape) == want).all()


def _scalar_map(f, mat, row):
    """sum_i mat[j, i] * row[i] for every j, by the scalar add/mul loop."""
    out = []
    for mrow in mat:
        acc = 0
        for m, x in zip(mrow, row):
            acc = f.add(acc, f.mul(int(m), int(x)))
        out.append(acc)
    return out


@pytest.mark.parametrize("q", [64, 81, 257, 289])
def test_compiled_matrix_full_blocks(q):
    # full q x q blocks, the size of a transform axis pass, on the table
    # (64 = 2^6, 81 = 3^4), large prime and exp/log (289 = 17^2) branches
    f = make_field(q)
    rng = np.random.default_rng(q)
    mat = rng.integers(0, q, size=(q, q))
    rows = rng.integers(0, q, size=(40, q))
    got = f.apply_rows(rows, mat)
    for r in (0, 17, 39):
        assert got[r].tolist() == _scalar_map(f, mat, rows[r])


@pytest.mark.parametrize("q", [16, 81])
def test_batched_matmul_long_inner_dimension(q):
    f = make_field(q)
    rng = np.random.default_rng(q + 1)
    a = rng.integers(0, q, size=(4, 8, 96))
    b = rng.integers(0, q, size=(96, 24))
    got = f.matmul(a, b)
    assert got.shape == (4, 8, 24)
    for i, j in ((0, 0), (1, 5), (3, 7)):
        assert got[i, j].tolist() == _scalar_map(f, b.T, a[i, j])


# q - 1 has every digit p - 1, and the prime-subfield element p - 1 = -1
# expands to (p - 1) times the identity, so each output digit of that row
# by that matrix row sums L products (p - 1)^2 = 1 mod p before reduction:
# a multiple of p when L = jp, one short of it when L = jp - 1.  At
# p = 103, p * fl(1/p) rounds below 1, so floor(y / p) without the 1/2
# would already be wrong at y = p
@pytest.mark.parametrize("q", [4, 9, 103 ** 2, 251 ** 2])
def test_extension_reduction_at_adversarial_inner_products(q):
    f = make_field(q)
    p = f.p
    rng = np.random.default_rng(q)
    for length in (p, p - 1, 8 * p, 8 * p - 1):
        mat = np.full((3, length), p - 1, dtype=np.int64)
        mat[1:] = rng.integers(0, q, size=(2, length))
        rows = np.full((3, length), q - 1, dtype=np.int64)
        rows[1:] = rng.integers(0, q, size=(2, length))
        got = f.apply_rows(rows, mat)
        for r in range(3):
            assert got[r].tolist() == _scalar_map(f, mat, rows[r])
    # a long row, where every digit sum is L (p - 1)^2 ~ 2^34 at p = 251:
    # the row is -L (q - 1), which is 0 at L = jp and q - 1 at L = jp - 1
    jp = p * ((1 << 18) // p)
    for length, want in ((jp, 0), (jp - 1, q - 1)):
        mat = np.full((1, length), p - 1, dtype=np.int64)
        rows = np.full((1, length), q - 1, dtype=np.int64)
        assert f.apply_rows(rows, mat).tolist() == [[want]]


def test_matmul_is_exact_up_to_the_float64_bound():
    # every product (p-1)^2 is 1 mod p, so a row of L entries p-1 times a
    # column of L entries p-1 is L mod p.  The longest accepted L =
    # 524544 keeps L (p-1)^2 below REDUCE_LIMIT = 2^51, where the floor
    # reduction is exact; at L = 8p - 1 and 8p, just under 2^51, the sum
    # is -1 and 0 mod p, where a reduction off by one quotient would show
    f = make_field(65521)
    p = f.p
    assert 524544 * (p - 1) ** 2 < REDUCE_LIMIT <= 524545 * (p - 1) ** 2
    for length in (8 * p - 1, 8 * p, 524544):
        a = np.full((1, length), p - 1, dtype=np.int64)
        assert f.matmul(a, a.T).tolist() == [[length % p]]


def test_matmul_past_the_float64_bound_raises():
    # one column past the longest accepted product, refused before
    # anything is allocated (the matrix is a zero-byte broadcast view)
    f = make_field(65521)
    with pytest.raises(TooLargeError, match="2\\^51"):
        f.compile_matrix(np.broadcast_to(np.int64(65520), (1, 524545)))
    # the bound counts the digit-expanded length I*k, and it is checked
    # before anything is allocated: over GF(17^2), I = 2^44 inputs give
    # I * 2 * 16^2 = 2^53, past 2^51 (the matrix is a zero-byte broadcast
    # view)
    f = make_field(289)
    with pytest.raises(TooLargeError):
        f.compile_matrix(np.broadcast_to(np.int64(0), (1, 1 << 44)))


def test_entry_limit_keeps_reachable_products_below_the_reduce_limit():
    # a product that fits ENTRY_LIMIT has I*k <= ENTRY_LIMIT / k, so its
    # inner sums stay below ENTRY_LIMIT (p-1)^2 / k.  For every field whose
    # six transform frames fit ENTRY_LIMIT (q <= 3343), that is below
    # REDUCE_LIMIT, and no combination, fresh-point map or VV row that
    # the solver compiles is refused by the reduction bound.  Arithmetic
    # only: nothing is allocated
    fitting = []
    for q in range(2, math.isqrt(ENTRY_LIMIT // 6) + 2):
        try:
            p, k = _factor_prime_power(q)
        except NotPrimePowerError:
            continue
        if 6 * q * q <= ENTRY_LIMIT:
            fitting.append(q)
            assert ENTRY_LIMIT * (p - 1) ** 2 < REDUCE_LIMIT * k, q
    assert fitting[-1] == 3343


def test_float32_reduction_is_exact_below_its_limit():
    # every prime p that a product can take to float32, (p - 1)^2 <
    # FLOAT32_LIMIT (2 to 2039), and every integer y below the limit: the
    # reduction gives y % p, read from the pattern 0, 1, ..., p - 1 at the
    # chunk's offset; chunks keep the arrays in cache
    primes = [p for p in range(2, math.isqrt(FLOAT32_LIMIT) + 2)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    primes = [p for p in primes if (p - 1) ** 2 < FLOAT32_LIMIT]
    chunk = 1 << 15
    base = np.arange(chunk, dtype=np.float32)
    y = np.empty(chunk, dtype=np.float32)
    for p in primes:
        f = make_field(p)
        pattern = np.tile(np.arange(p, dtype=np.float32), chunk // p + 2)
        for start in range(0, FLOAT32_LIMIT, chunk):
            np.add(base, start, out=y)
            off = start % p
            assert np.array_equal(f.reduce_digits(y),
                                  pattern[off:off + chunk]), (p, start)


# the longest product of float32 and the shortest of float64 over prime
# fields on both sides of 157, the largest prime whose transform runs in
# float32, GF(2039), whose products of length 2 are float64 already, and
# extension fields; the exact reference is the field's own elementwise
# vmul and digit sum, which never call compile_matrix
@pytest.mark.parametrize("q", [3, 9, 81, 157, 163, 2039])
def test_products_at_the_float_type_boundary(q):
    f = make_field(q)
    p, k = f.p, f.k
    longest = -(-FLOAT32_LIMIT // (k * (p - 1) ** 2)) - 1
    assert f.float_type(longest) is np.float32
    assert f.float_type(longest + 1) is np.float64
    rng = np.random.default_rng(q)
    for nin in (longest, longest + 1):
        # every entry p - 1 and every row digit p - 1 gives the largest
        # digit sums; the second matrix row and row are random
        mat = np.full((2, nin), p - 1, dtype=np.int64)
        mat[1] = rng.integers(0, q, size=nin)
        rows = np.full((2, nin), q - 1, dtype=np.int64)
        rows[1] = rng.integers(0, q, size=nin)
        want = f.vsum_axis(f.vmul(rows[:, None, :], mat[None]), 2)
        assert (f.compile_matrix(mat)(rows) == want).all(), nin
        # the digit-row halves that the transform calls, in the same type
        digits = f.compile_product(mat)(f.to_digits(rows, f.float_type(nin)))
        f.reduce_digits(digits)
        assert digits.dtype == f.float_type(nin)
        assert (f.from_digits(digits) == want).all(), nin


def test_prime_products_near_the_float64_bound():
    # at q = 65521 products are accepted while their inner sums stay
    # below REDUCE_LIMIT, up to 524544 columns, and reduced by the floor
    # rule; int64 holds the exact reference.  (p - 1)^2 is 1 mod p, so
    # the all-(p - 1) product of length 8p - 1 or 8p, just under 2^51, is
    # -1 or 0 mod p, and the longest is the largest that is accepted
    f = make_field(65521)
    p = f.p
    longest = -(-REDUCE_LIMIT // (p - 1) ** 2) - 1
    assert longest == 524544
    rng = np.random.default_rng(65521)
    for nin in (8 * p - 1, 8 * p, longest):
        mat = np.full((2, nin), p - 1, dtype=np.int64)
        mat[1] = rng.integers(0, p, size=nin)
        rows = np.full((2, nin), p - 1, dtype=np.int64)
        rows[1] = rng.integers(0, p, size=nin)
        want = rows @ mat.T % p
        assert (f.compile_matrix(mat)(rows) == want).all(), nin


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 81, 257, 289])
def test_digit_rows_roundtrip(q):
    f = make_field(q)
    values = np.random.default_rng(q).integers(0, q, size=(3, 7))
    for ftype in (np.float32, np.float64):
        digits = f.to_digits(values, ftype)
        assert digits.shape == (3, 7 * f.k) and digits.dtype == ftype
        assert (f.from_digits(digits) == values).all()
    assert f.to_digits(values[:0], np.float32).shape == (0, 7 * f.k)
    assert f.from_digits(f.to_digits(values[:0], np.float32)).shape == (0, 7)


# refused before the expanded matrix is allocated (the inputs are zero-byte
# broadcast views): 8193 * 8192 entries over a prime field, and the
# 1024-by-1024 full-degree block of GF(2^10), which expands to 1024^2 * 10^2
@pytest.mark.parametrize("q, shape", [(65521, (8193, 8192)),
                                      (1024, (1024, 1024))])
def test_compile_matrix_entry_limit(q, shape):
    f = make_field(q)
    assert shape[0] * shape[1] * f.k ** 2 > ENTRY_LIMIT
    with pytest.raises(TooLargeError, match="entries"):
        f.compile_matrix(np.broadcast_to(np.int64(0), shape))
