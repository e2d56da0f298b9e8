"""Sparse multivariate polynomials over GF(q).

Exponents always lie in 0..q-1 per variable, the unique representative
of a function on GF(q)^n.  Terms are stored sparsely in a dict keyed by
exponent tuples of length n (Python ints); coefficients are nonzero
field-element indices.  Polynomials appear only at the edges: parsing,
formatting, embedding and the witnesses; the solver works on value
vectors.

The module also owns the canonical point sets: T(m, D) is the set of
vectors in {0..q-1}^m whose natural-number coordinate sum is at most D,
enumerated in plain lexicographic order with the first coordinate most
significant, optionally crossed with a full grid suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis
from .errors import PesFormatError, TooLargeError
from .field import FieldSpec, check_entries, make_field


def check_key_width(q: int, n: int) -> None:
    """The transform keys every point of GF(q)^n by an int64 (its base-q
    value), so n variables of ceil(log2 q) bits each must fit in 63 bits."""
    bits = n * max(1, (q - 1).bit_length())
    if bits > 63:
        raise TooLargeError(f"{n} variables over GF({q}) need "
                            f"{bits}-bit keys; the limit is 63")


class Polynomial:
    """Immutable-by-convention sparse polynomial over a fixed field."""

    __slots__ = ("field", "n", "_terms", "_deg")

    def __init__(self, field: FieldSpec, n: int,
                 terms: dict[tuple[int, ...], int]):
        self.field = field
        self.n = n
        self._terms = terms
        self._deg = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Polynomial":
        return cls(field, n, {})

    @classmethod
    def constant(cls, field: FieldSpec, n: int, c: int) -> "Polynomial":
        return cls(field, n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, field: FieldSpec, n: int, i: int) -> "Polynomial":
        """The monomial X_{i+1} (0-based variable index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for arity {n}")
        return cls(field, n, {tuple(int(j == i) for j in range(n)): 1})

    @classmethod
    def from_terms(cls, field: FieldSpec, n: int, pairs) -> "Polynomial":
        """Build from (exponent-tuple, coefficient) pairs, merging duplicates."""
        q = field.q
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in pairs:
            if len(exps) != n:
                raise ValueError("exponent vector arity mismatch")
            if any(not 0 <= e <= q - 1 for e in exps):
                raise ValueError("exponent out of range")
            if not 0 <= c <= q - 1:
                raise ValueError("coefficient out of range")
            key = tuple(map(int, exps))
            c = field.add(terms.get(key, 0), int(c))
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return cls(field, n, terms)

    # -- inspection -----------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, coefficient) pairs in lexicographic exponent order."""
        return sorted(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Max total degree of stored monomials; 0 for the zero polynomial."""
        if self._deg is None:
            self._deg = max(map(sum, self._terms), default=0)
        return self._deg

    def term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix (T, n), coefficient vector (T,)) as int64."""
        t = len(self._terms)
        exps = np.array(list(self._terms), dtype=np.int64).reshape(t, self.n)
        coeffs = np.fromiter(self._terms.values(), dtype=np.int64, count=t)
        return exps, coeffs

    @classmethod
    def from_term_arrays(cls, field: FieldSpec, n: int, exps: np.ndarray,
                         coeffs: np.ndarray) -> "Polynomial":
        """Trusted fast path: distinct in-range exponent rows, nonzero
        coefficients."""
        return cls(field, n, dict(zip(map(tuple, exps.tolist()),
                                      coeffs.tolist())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.field is other.field
                and self.n == other.n and self._terms == other._terms)

    def __hash__(self):
        return hash((id(self.field), self.n, frozenset(self._terms.items())))

    def __repr__(self) -> str:  # pragma: no cover
        ts = self.terms()
        if not ts:
            return "Polynomial(0)"
        frag = " + ".join(f"{c}*X^{list(e)}" for e, c in ts[:4])
        more = f" (+{len(ts) - 4} terms)" if len(ts) > 4 else ""
        return f"Polynomial({frag}{more} over GF({self.field.q}))"

    # -- arithmetic -----------------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        if self.field is not other.field or self.n != other.n:
            raise ValueError("field or arity mismatch")
        f = self.field
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = f.add(out.get(k, 0), c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Polynomial(f, self.n, out)

    def scale(self, c: int) -> "Polynomial":
        f = self.field
        if c == 0:
            return Polynomial.zero(f, self.n)
        return Polynomial(f, self.n,
                          {k: f.mul(c, v) for k, v in self._terms.items()})

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point) -> int:
        """Value at a point of GF(q)^n (indices)."""
        if len(point) != self.n:
            raise ValueError("point arity mismatch")
        f = self.field
        acc = 0
        for exps, c in self._terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    if x == 0:
                        v = 0
                        break
                    v = f.mul(v, f.pow(x, e))
            if v:
                acc = f.add(acc, v)
        return acc

    def embed(self, new_n: int, var_map: list[int]) -> "Polynomial":
        """Re-home onto new_n variables; old variable i becomes var_map[i]."""
        if len(var_map) != self.n:
            raise ValueError("var_map arity mismatch")
        if len(set(var_map)) != len(var_map):
            raise ValueError("var_map must be injective")
        pairs = []
        for exps, c in self._terms.items():
            new = [0] * new_n
            for i, e in enumerate(exps):
                new[var_map[i]] = e
            pairs.append((tuple(new), c))
        return Polynomial.from_terms(self.field, new_n, pairs)


def symbolic_coefficient(poly: Polynomial, n2: int) -> Polynomial:
    """Keep the terms whose last n2 exponents all equal q-1, drop those
    coordinates.  The result P1 over the first n-n2 variables satisfies
    P1(x) = (q-1)^{n2} * sum over y in GF(q)^{n2} of P(x, y)."""
    if not 0 <= n2 <= poly.n:
        raise ValueError("n2 out of range")
    q = poly.field.q
    n1 = poly.n - n2
    pairs = []
    for exps, c in poly.terms():
        if all(e == q - 1 for e in exps[n1:]):
            pairs.append((exps[:n1], c))
    return Polynomial.from_terms(poly.field, n1, pairs)


# ---------------------------------------------------------------------------
# polynomial systems
# ---------------------------------------------------------------------------

class PolySystem:
    """Degree-bounded polynomials sharing one field and arity."""

    __slots__ = ("field", "n", "polys", "d")

    def __init__(self, field: FieldSpec, n: int, polys, d: int):
        if n < 1:
            raise ValueError("system arity must be at least 1")
        if d < 1:
            raise ValueError("declared degree bound must be at least 1")
        polys = tuple(polys)
        for p in polys:
            if p.field is not field or p.n != n:
                raise ValueError("system polynomial field/arity mismatch")
            if p.degree() > d:
                raise ValueError(f"polynomial degree {p.degree()} exceeds bound {d}")
        self.field = field
        self.n = n
        self.polys = polys
        self.d = d

    def __len__(self) -> int:
        return len(self.polys)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PolySystem(q={self.field.q}, n={self.n}, m={len(self.polys)}, "
                f"d={self.d})")


def eval_indicator(system: PolySystem, point) -> int:
    """prod over i of (1 - P_i(x)^(q-1)): 1 at a common root, else 0."""
    f = system.field
    q = f.q
    acc = 1
    for p in system.polys:
        v = p.evaluate(point)
        acc = f.mul(acc, f.sub(1, f.pow(v, q - 1)))
        if acc == 0:
            break
    return acc


# ---------------------------------------------------------------------------
# canonical point sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrimmedPointSet:
    """T(n-b, delta) x GF(q)^b: coordinate sum of the first n-b entries is
    at most delta, the last b entries range over the whole field."""

    q: int
    n: int
    delta: int
    b: int

    def __post_init__(self):
        if not 0 <= self.b <= self.n:
            raise ValueError("need 0 <= b <= n")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def size(self) -> int:
        return (analysis.ext_binom_cum(self.n - self.b, self.delta, self.q)
                * self.q ** self.b)

    def contains(self, point) -> bool:
        if len(point) != self.n:
            return False
        if any(not 0 <= x <= self.q - 1 for x in point):
            return False
        return sum(point[: self.n - self.b]) <= self.delta


@lru_cache(maxsize=512)
def point_matrix(q: int, n: int, delta: int, b: int) -> np.ndarray:
    """All points of TrimmedPointSet(q, n, delta, b) as an (N, n) int64
    array in lexicographic order, first coordinate most significant.
    Before allocating, raises TooLargeError when the points' keys pass 63
    bits or `check_entries` refuses the N * n entries."""
    check_key_width(q, n)
    check_entries(TrimmedPointSet(q, n, delta, b).size() * n,
                  f"the point set T({n - b}, {delta}) x GF({q})^{b}")
    delta = min(delta, (n - b) * (q - 1))
    pts = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for axis in range(n):
        trimmed = axis < n - b
        if trimmed:
            counts = np.minimum(q - 1, delta - sums) + 1
        else:
            counts = np.full(len(pts), q, dtype=np.int64)
        total = int(counts.sum())
        rows = np.repeat(np.arange(len(pts)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        digits = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        pts = np.hstack([pts[rows], digits[:, None]])
        sums = sums[rows] + (digits if trimmed else 0)
    pts.setflags(write=False)
    return pts


def enumerate_points(ps: TrimmedPointSet) -> list[tuple[int, ...]]:
    """Canonical ordered enumeration of a trimmed point set."""
    mat = point_matrix(ps.q, ps.n, ps.delta, ps.b)
    return [tuple(int(v) for v in row) for row in mat]


# ---------------------------------------------------------------------------
# text format:  pes <q> <n> <m>, then m blocks of "poly <t>" + t term lines
# ---------------------------------------------------------------------------

def format_pes(system: PolySystem) -> str:
    lines = [f"pes {system.field.q} {system.n} {len(system.polys)}"]
    for p in system.polys:
        ts = p.terms()
        lines.append(f"poly {len(ts)}")
        for exps, c in ts:
            lines.append(f"{c} " + " ".join(str(e) for e in exps))
    return "\n".join(lines) + "\n"


def parse_pes(text: str) -> PolySystem:
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    if not rows:
        raise PesFormatError("empty input")
    head = rows[0]
    if len(head) != 4 or head[0] != "pes":
        raise PesFormatError("expected header 'pes <q> <n> <m>'")
    try:
        q, n, m = (int(x) for x in head[1:])
    except ValueError as exc:
        raise PesFormatError("non-integer header field") from exc
    field = make_field(q)
    if n < 1 or m < 0:
        raise PesFormatError("need n >= 1 and m >= 0")
    pos = 1
    polys = []
    for pi in range(m):
        if pos >= len(rows) or rows[pos][0] != "poly" or len(rows[pos]) != 2:
            raise PesFormatError(f"expected 'poly <t>' for polynomial {pi + 1}")
        try:
            t = int(rows[pos][1])
        except ValueError as exc:
            raise PesFormatError("non-integer term count") from exc
        if t < 0:
            raise PesFormatError("negative term count")
        pos += 1
        pairs = []
        for _ in range(t):
            if pos >= len(rows):
                raise PesFormatError("unexpected end of input inside a polynomial")
            try:
                c, *exps = map(int, rows[pos])
            except ValueError as exc:
                raise PesFormatError("non-integer term entry") from exc
            if c == 0:
                raise PesFormatError(f"zero coefficient in polynomial {pi + 1}")
            pairs.append((exps, c))
            pos += 1
        try:
            polys.append(Polynomial.from_terms(field, n, pairs))
        except ValueError as exc:
            raise PesFormatError(f"polynomial {pi + 1}: {exc}") from exc
    if pos != len(rows):
        raise PesFormatError("trailing content after the last polynomial")
    d = max([p.degree() for p in polys] + [1])
    return PolySystem(field, n, polys, d)
