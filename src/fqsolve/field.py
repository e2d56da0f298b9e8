"""Exact arithmetic in GF(p^k) with integer-indexed elements.

Elements of the field of order q = p^k are identified with the integers
0..q-1: the base-p digits of an index, read little-endian, are the
coordinates of the element in the polynomial basis 1, x, x^2, ...
Index 0 is the additive identity and index 1 the multiplicative identity,
so the prime subfield occupies indices 0..p-1 with index arithmetic mod p.

Every extension field carries exp/log tables over a multiplicative
generator, and prime fields use modular arithmetic directly.  Fields of
order up to 256 also cache dense q-by-q addition/multiplication tables
and a q-entry negation table: the untabled vadd, vmul and vneg over all
elements, kept because a table lookup is faster than each formula.  Each
operation picks its formula in one place, its vector form: the scalar
add, sub and mul are vadd, vsub and vmul on one element, which take
Python ints as well as arrays.

Every matrix product over the field expands the matrix once, by a table
gather, into an F_p matrix on base-p digit rows, in which each element
stands as its k digits (`to_digits`; `from_digits` recombines them).
Its kernel has two halves: `compile_product` maps float digit rows
(r, Ik) to their unreduced product (r, Jk) with one BLAS matmul, and
`reduce_digits` reduces a product mod p in place by the floor reduction
below.  `compile_matrix`, the index-row map that the solver calls, is
the product and its reduction between one digit gather and one
recombination.  The transform's axis passes call the two halves
themselves: they keep digit rows from their first pass to their last and
reduce them only where the next product needs it (below).  Both factors
of a `compile_matrix` product have entries in 0..p-1, so every partial
sum of an inner product of length L = Ik is an integer of at most
L(p-1)^2; `check_matrix_size` refuses with `TooLargeError` every product
for which that could reach REDUCE_LIMIT (below).

The product y is reduced in place as y - p*floor((y + 1/2) * (1/p)), in
its own float type with 1/p rounded to that type.  With m mantissa bits
(53 in float64, 24 in float32) this is exact for every integer 0 <= y <
2^(m-2): REDUCE_LIMIT = 2^51 in float64, FLOAT32_LIMIT = 2^22 in float32.
y + 1/2 is exact, and (y + 1/2)/p lies at least 1/(2p) from the nearest
integer, since its fractional part is (y mod p + 1/2)/p.  Rounding 1/p
and the product moves it by at most (2u + u^2)(y + 1/2)/p, u = 2^-m,
which is below 1/(2p) because y + 1/2 <= 2^(m-2) - 1/2.  So the floor is
the exact quotient, and the rest is exact integer arithmetic.

The float type is a property of the product (`float_type`): float32 when
L(p-1)^2 < FLOAT32_LIMIT, which also keeps every partial sum below
float32's 2^24, and float64 otherwise.  float32 halves the bytes that a
kernel moves, and a float32 BLAS product gives the same integers.
`digit_limit` pairs each type with its limit, and the float type, the
size check and the transform's rows read the limits only through it.
Every float product is reduced by the floor rule, and `check_matrix_size`
refuses, for every k, a product with L(p-1)^2 >= REDUCE_LIMIT.  No
product that the solver forms comes near it: ENTRY_LIMIT bounds the
IJk^2 entries, so L = Ik <= 2^26/k and L(p-1)^2 < 2^51 for every p <=
5793, while the transform's frames fit ENTRY_LIMIT only for q <= 3343,
where L(p-1)^2 < 2^49.5.  Only a direct call over a larger prime reaches
the limit: at q = 65521 the longest accepted product has 524,544
columns.  Digits and indices lie below 2^16, so both conversions are
exact in either type.

The reduction may wait.  If the rows' entries are integers in 0..B,
every partial sum of a product of length L = Ik is an integer of at most
L(p-1)B.  While L(p-1)B stays below the limit of the rows' type
(`digit_limit`), the product is exact and its later reduction is exact
too.  The transform's digit rows carry such a bound B.  It starts at
p-1; an axis pass multiplies it by L(p-1), for L = ln*k and ln the
pass's longest applied block; and the rows are reduced in place, back to
B = p-1, before any pass that could take it to the limit and before they
are recombined.  So every product that the passes compute has B*L(p-1)
below the limit and is exact, whatever the order of passes.  From
reduced rows one pass reaches at most qk(p-1)^2 (L <= qk).  Where the
rows are float32 that is below FLOAT32_LIMIT by the choice of
`float_type(q)`, and for every q <= ORDER_LIMIT it is below 2^48, under
REDUCE_LIMIT: 65521 * 65520^2 < 2^48 at k = 1, and 251^2 * 2 * 250^2 <
2^33 is the largest at k >= 2.  So a reduction before a pass always
suffices, and no field needs one after every product.

Every digit gather (`to_digits`, `vadd`, `vneg`, `vsum_axis`) uses
`np.take`: a fancy-index gather costs over ten times as much.

Every array whose size grows with the input is counted in entries and
refused, before it is allocated, by one check: `check_entries` raises
TooLargeError over ENTRY_LIMIT (2^26 entries, 512 MiB of float64), and
no other module reads the limit.  Each caller names what it would build:
the IJk^2 entries of `compile_matrix`'s expanded matrix, the 6q^2 of the
transform's frames, the point sets, the evaluated rows, the recursion's
arrays, the oracles' grids and power table, and the CNF reduction's
terms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import FieldTooLargeError, NotPrimePowerError, TooLargeError

ORDER_LIMIT = 1 << 16  # largest supported field order
TABLE_LIMIT = 256      # largest order that gets dense q*q tables
REDUCE_LIMIT = 1 << 51  # the float64 mod-p reduction is exact below this
FLOAT32_LIMIT = 1 << 22  # the float32 mod-p reduction is exact below this
ENTRY_LIMIT = 1 << 26  # most entries one array may hold (check_entries)


# ---------------------------------------------------------------------------
# small helpers over F_p (coefficient lists, little-endian, not necessarily
# normalised)
# ---------------------------------------------------------------------------

def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"field order must be >= 2, got {q}")
    p = None
    m = q
    for cand in range(2, q + 1):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    if p is None:
        p = q  # q itself is prime
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, k


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo monic g, coefficients in F_p."""
    f = [c % p for c in f]
    dg = len(g) - 1
    while len(f) > dg:
        c = f[-1]
        if c:
            off = len(f) - 1 - dg
            for i in range(dg):
                f[off + i] = (f[off + i] - c * g[i]) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    k = len(f) - 1
    for t in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=t):
            g = list(lower) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidate coefficient tuples (c_0, ..., c_{k-1}) are compared low
    degree first.
    """
    for lower in itertools.product(range(p), repeat=k):
        if lower[0] == 0:
            continue  # root at 0
        f = list(lower) + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def digit_limit(ftype) -> int:
    """The exact limit of float digit rows of type ftype: a product of
    rows whose partial sums stay below it is exact, and so is its floor
    reduction (module docstring)."""
    return FLOAT32_LIMIT if ftype == np.float32 else REDUCE_LIMIT


def check_entries(entries: int, what: str) -> None:
    """Raise TooLargeError, before the caller allocates, when what would
    hold more than ENTRY_LIMIT entries."""
    if entries > ENTRY_LIMIT:
        raise TooLargeError(f"{what} would hold {entries} entries, over "
                            f"{ENTRY_LIMIT}")


class FieldSpec:
    """A concrete GF(p^k); construct through :func:`make_field`."""

    def __init__(self, p: int, k: int, irreducible: list[int]):
        self.p = p
        self.k = k
        self.q = p ** k
        self.irreducible = tuple(irreducible)
        q = self.q
        self._ppow = np.array([p ** i for i in range(k)], dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        if k >= 2:
            # base-p digit matrix: digits[a, i] = i-th digit of index a
            self.digits = np.stack(
                [(idx // p ** i) % p for i in range(k)], axis=1
            )
            # digit and power tables in both float types of the kernel
            types = (np.float32, np.float64)
            self._fdigits = {t: self.digits.astype(t) for t in types}
            self._fppow = {t: self._ppow.astype(t) for t in types}
            self._exp, self._log = self._build_exp_log()
        else:
            self.digits = self._fdigits = self._fppow = None
            self._exp = self._log = None
        # vadd, vneg and vmul run untabled while the tables are still None
        self.add_table = self.neg_table = self.mul_table = None
        if q <= TABLE_LIMIT:
            self.add_table = self.vadd(idx[:, None], idx)
            self.neg_table = self.vneg(idx)
            self.mul_table = self.vmul(idx[:, None], idx)

    # -- construction helpers ------------------------------------------------

    def _mul_digits(self, a: int, b: int) -> int:
        da = [(a // self.p ** i) % self.p for i in range(self.k)]
        db = [(b // self.p ** i) % self.p for i in range(self.k)]
        prod = _poly_mod(_poly_mul(da, db, self.p), list(self.irreducible), self.p)
        return sum(c * self.p ** i for i, c in enumerate(prod))

    def _pow_digits(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_digits(out, a)
            a = self._mul_digits(a, a)
            e >>= 1
        return out

    def _build_exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i and its inverse log, for g the smallest primitive
        element index: g^((q-1)/r) != 1 for every prime r dividing q-1."""
        q, p = self.q, self.p
        primes, m = [], q - 1
        for r in range(2, math.isqrt(m) + 1):
            if m % r == 0:
                primes.append(r)
                while m % r == 0:
                    m //= r
        if m > 1:
            primes.append(m)
        g = next(g for g in range(2, q)
                 if all(self._pow_digits(g, (q - 1) // r) != 1
                        for r in primes))
        # doubling: exp[2^j + i] = exp[i] * g^(2^j), where multiplying by
        # the fixed element c = g^(2^j) maps digit rows through the F_p
        # matrix whose row i holds the digits of x^i * c
        exp, c = np.ones(1, dtype=np.int64), g
        while len(exp) < q - 1:
            mat = self.digits[[self._mul_digits(int(b), c) for b in self._ppow]]
            exp = np.concatenate((exp, self.digits[exp] @ mat % p @ self._ppow))
            c = self._mul_digits(c, c)
        exp = exp[:q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        return exp, log

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.vsub(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.k == 1:
            return pow(a, e, self.p)
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    # -- vectorised arithmetic on int64 index arrays (or ints) ----------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.add_table is not None:
            return self.add_table[a, b]
        if self.k == 1:
            return (a + b) % self.p
        digits = self.digits
        return ((np.take(digits, a, axis=0) + np.take(digits, b, axis=0))
                % self.p) @ self._ppow

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.neg_table is not None:
            return self.neg_table[a]
        if self.k == 1:
            return (-a) % self.p
        return (-np.take(self.digits, a, axis=0) % self.p) @ self._ppow

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b) -> np.ndarray:
        if self.mul_table is not None:
            return self.mul_table[a, b]
        if self.k == 1:
            return (a * b) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def vsum(self, a: np.ndarray) -> int:
        """Field sum of all entries."""
        return int(self.vsum_axis(np.ravel(a), 0))

    def vsum_axis(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along one axis."""
        if self.k == 1:
            return a.sum(axis=axis) % self.p
        return (np.take(self.digits, a, axis=0).sum(axis=axis) % self.p
                @ self._ppow)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product a @ b over the field; leading axes of a are a
        batch."""
        rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
        return self.compile_matrix(b.T)(rows).reshape(a.shape[:-1] + b.shape[1:])

    def apply_rows(self, rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Row-wise linear map: out[r, j] = sum_i mat[j, i] * rows[r, i]."""
        return self.compile_matrix(mat)(rows)

    def check_matrix_size(self, nout: int, nin: int) -> None:
        """Raise TooLargeError unless `compile_matrix` can take an
        nout-by-nin matrix: its inner products must stay below
        REDUCE_LIMIT, where the float64 floor reduction is exact, and
        `check_entries` must accept its expanded entries."""
        p, k = self.p, self.k
        limit = digit_limit(np.float64)
        if nin * k * (p - 1) ** 2 >= limit:
            raise TooLargeError(
                f"an inner product of length {nin * k} over F_{p} can "
                f"reach 2^{limit.bit_length() - 1} and would not be "
                f"reduced exactly in float64")
        check_entries(nout * nin * k * k, f"the expansion of a {nout}x{nin} "
                      f"matrix over GF({self.q})")

    def float_type(self, nin: int) -> type:
        """The float type of a product of length nin over the field:
        float32 while its inner products stay below the float32 limit
        (`digit_limit`), else float64."""
        if nin * self.k * (self.p - 1) ** 2 < digit_limit(np.float32):
            return np.float32
        return np.float64

    def to_digits(self, values: np.ndarray, ftype: type) -> np.ndarray:
        """Digit rows of ftype for an integer index array: (..., N) becomes
        (..., N*k), each element's k base-p digits in place of it."""
        if self.k == 1:
            return values.astype(ftype)
        shape = values.shape[:-1] + (values.shape[-1] * self.k,)
        return np.take(self._fdigits[ftype], values, axis=0).reshape(shape)

    def from_digits(self, digits: np.ndarray) -> np.ndarray:
        """The int64 indices of reduced float digit rows, the inverse of
        to_digits."""
        k = self.k
        if k == 1:
            return digits.astype(np.int64)
        shape = digits.shape[:-1] + (digits.shape[-1] // k,)
        # 2-D @ 1-D: a stacked (r, n, k) @ ppow runs ten times slower
        out = digits.reshape(-1, k) @ self._fppow[digits.dtype.type]
        return out.astype(np.int64).reshape(shape)

    def compile_product(self, mat: np.ndarray):
        """The unreduced half of `compile_matrix`: the map of float digit
        rows (r, Ik) to their product (r, Jk) with the F_p matrix that the
        J-by-I matrix expands to, in the rows' type or wider.

        Multiplication by a fixed field element is F_p-linear on base-p
        digit vectors, so the matrix expands to an Ik-by-Jk matrix over
        F_p (for k = 1, the matrix itself) with entries in 0..p-1, in the
        float type `float_type(I)`, checked by `check_matrix_size` before
        anything is allocated.  For rows with entries in 0..B every
        product entry is an integer of at most Ik(p-1)B, exact while that
        stays below the type's limit (`digit_limit`); it is then the same
        for any BLAS summation order or thread count.
        """
        p, k = self.p, self.k
        nout, nin = mat.shape
        self.check_matrix_size(nout, nin)
        ftype = self.float_type(nin)
        if k == 1:
            mt = (mat.T % p).astype(ftype)
        else:
            # mt[i, c, j, d] = digit d of mat[j, i] * p^c
            mt = self._fdigits[ftype][self.vmul(mat[..., None], self._ppow)]
            mt = mt.transpose(1, 2, 0, 3).reshape(nin * k, nout * k)

        def product(rows: np.ndarray) -> np.ndarray:
            return rows @ mt
        return product

    def reduce_digits(self, y: np.ndarray) -> np.ndarray:
        """y mod p in place, for a float array of nonnegative integers
        below the limit of its type (`digit_limit`): y - p*floor((y +
        1/2) * (1/p)) in y's own type, which is exact there (module
        docstring)."""
        t = y.dtype.type
        z = y + t(0.5)
        z *= t(1) / t(self.p)
        np.floor(z, out=z)
        z *= t(self.p)
        y -= z
        return y

    def compile_matrix(self, mat: np.ndarray):
        """Bake the linear map of a J-by-I matrix into one float matmul:
        the returned map takes integer index rows (r, I) to int64 index rows
        (r, J) by `compile_product` and `reduce_digits` between
        `to_digits` and `from_digits`.  Its products are at most
        Ik(p-1)^2 < REDUCE_LIMIT, so they and their reductions are exact.
        """
        product = self.compile_product(mat)
        ftype = self.float_type(mat.shape[1])

        def apply(rows: np.ndarray) -> np.ndarray:
            digits = self.to_digits(rows, ftype)
            return self.from_digits(self.reduce_digits(product(digits)))
        return apply

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldSpec(q={self.q}, p={self.p}, k={self.k})"


_FIELDS: dict[int, FieldSpec] = {}


def make_field(q: int) -> FieldSpec:
    """Return the canonical GF(q), cached per order.

    The defining irreducible polynomial is the lexicographically smallest
    monic irreducible of degree k over F_p (coefficients compared low
    degree first); for k = 1 the degenerate polynomial X is recorded.
    """
    if q in _FIELDS:
        return _FIELDS[q]
    if q > ORDER_LIMIT:
        raise FieldTooLargeError(f"field order {q} exceeds limit {ORDER_LIMIT}")
    p, k = _factor_prime_power(q)
    irreducible = [0, 1] if k == 1 else _smallest_irreducible(p, k)
    spec = FieldSpec(p, k, irreducible)
    _FIELDS[q] = spec
    return spec
