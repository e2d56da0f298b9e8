"""Parsimonious mapping reduction from k-SAT to polynomial systems.

Boolean variables are grouped into blocks of vars1 = ceil((2/delta) *
log2(q)) variables, each encoded by vars2 = ceil(vars1 / log2(q)) field
variables; both ceilings are computed with exact integer arithmetic.  A
block's tuple, read as a base-q number v (first coordinate most
significant), decodes to the bits of v mod 2^vars1.  A clause becomes the
product of "literal is falsified" over its literals, built from values:
inside a block, the AND of those 0/1 values on the block grid,
interpolated once per distinct set of (bit position, sign) literals;
across blocks, where factors share no variable, the Cartesian product of
their terms, with no collision and no exponent to reduce.  Cost: one
q^vars2-point interpolation per distinct literal set, then terms x out_vars
entries per product; the whole system's entries are summed and checked
by `field.check_entries` before any product is built.

In parsimonious mode a unit clause "not x" forces each padding bit to 0,
and a one-factor range polynomial per block vanishes exactly when
v < 2^vars1, where the decoding is injective: roots biject with models.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimacsFormatError, InvalidParamsError, TooLargeError
from .field import check_entries, make_field
from .mpoly import Polynomial, PolySystem, TrimmedPointSet, check_key_width
from .transform import TrimmedEvaluation, interpolate_trimmed

MAX_BLOCK_GRID = 1 << 20  # most points q^vars2 a block grid may have


@dataclass
class Cnf:
    n_vars: int
    clauses: list[list[int]]

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)


def parse_dimacs(text: str) -> Cnf:
    """Standard DIMACS CNF: 'p cnf <n> <m>' header, 0-terminated clauses,
    'c' comment lines."""
    header = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsFormatError("duplicate header")
            m = re.fullmatch(r"p\s+cnf\s+(\d+)\s+(\d+)", line)
            if not m:
                raise DimacsFormatError(f"malformed header: {line!r}")
            try:
                header = (int(m.group(1)), int(m.group(2)))
            except ValueError as exc:  # more digits than int() converts
                raise DimacsFormatError("header number too long") from exc
            continue
        if header is None:
            raise DimacsFormatError("clause before header")
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError as exc:
                raise DimacsFormatError(f"bad literal {tok!r}") from exc
    if header is None:
        raise DimacsFormatError("missing 'p cnf' header")
    n_vars, n_clauses = header
    clauses: list[list[int]] = []
    cur: list[int] = []
    for lit in tokens:
        if lit == 0:
            if not cur:
                raise DimacsFormatError("empty clause")
            clauses.append(cur)
            cur = []
            continue
        if not 1 <= abs(lit) <= n_vars:
            raise DimacsFormatError(f"literal {lit} out of range")
        cur.append(lit)
    if cur:
        raise DimacsFormatError("missing clause terminator")
    if len(clauses) != n_clauses:
        raise DimacsFormatError(
            f"header declares {n_clauses} clauses, found {len(clauses)}")
    return Cnf(n_vars, clauses)


def _pow2_at_least(x: int, q: int, y: int) -> bool:
    """2^x >= q^y for positive x and y, decided by comparing x*ln(2) with
    y*ln(q) at growing decimal precision instead of building either power.
    The two sides are equal only when q is a power of two, which is
    compared exactly."""
    s = q.bit_length() - 1
    if q == 1 << s:
        return x >= s * y
    digits = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ln2 = Fraction(decimal.Decimal(2).ln())
            lnq = Fraction(decimal.Decimal(q).ln())
        # ln is correctly rounded, so each value is within a relative
        # 10^(1-digits) of the true one: once |gap| exceeds that error,
        # its sign is the true sign
        gap = x * ln2 - y * lnq
        if abs(gap) * 10 ** (digits - 1) > x * ln2 + y * lnq:
            return gap > 0
        digits *= 2


def _ceil_exact_vars1(q: int, delta: Fraction) -> int:
    """Smallest v with v >= (2/delta) * log2(q): v*a*log2(2) >= 2*b*log2(q)
    for delta = a/b, i.e. 2^(v*a) >= q^(2*b).  The search stops once 2^v,
    and so the block grid q^vars2 >= 2^vars1, exceeds MAX_BLOCK_GRID."""
    a, b = delta.numerator, delta.denominator
    v = 1
    while not _pow2_at_least(v * a, q, 2 * b) and 2 ** v <= MAX_BLOCK_GRID:
        v += 1
    return v


def _ceil_exact_vars2(q: int, vars1: int) -> int:
    """Smallest v2 with q^v2 >= 2^vars1."""
    v2 = 1
    while q ** v2 < 2 ** vars1:
        v2 += 1
    return v2


@dataclass
class ReductionPlan:
    q: int
    delta: Fraction
    k: int
    vars1: int
    vars2: int
    blocks: int
    parsimonious: bool

    @property
    def padded_vars(self) -> int:
        return self.blocks * self.vars1

    @property
    def out_vars(self) -> int:
        return self.blocks * self.vars2

    @property
    def degree_bound(self) -> int:
        return self.k * self.vars2 * (self.q - 1)


def make_plan(n_vars: int, k: int, q: int, delta, parsimonious: bool) -> ReductionPlan:
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidParamsError("delta must be positive")
    if n_vars < 1:
        raise InvalidParamsError("formula must have at least one variable")
    make_field(q)  # validates that q is a supported prime power
    vars1 = _ceil_exact_vars1(q, delta)
    vars2 = _ceil_exact_vars2(q, vars1)
    if q ** vars2 > MAX_BLOCK_GRID:
        raise TooLargeError(f"delta {delta} over GF({q}) needs a block grid "
                            f"of over {MAX_BLOCK_GRID} points")
    blocks = -(-n_vars // vars1)
    try:
        check_key_width(q, blocks * vars2)
    except TooLargeError as exc:
        raise TooLargeError(
            f"{n_vars} Boolean variables reduce to {blocks * vars2} "
            f"variables over GF({q}), more than fqsolve can read back "
            f"({exc})") from None
    return ReductionPlan(q, delta, max(k, 1), vars1, vars2, blocks, parsimonious)


def dec_table(plan: ReductionPlan) -> np.ndarray:
    """dec over the whole block grid: row v holds the vars1 bits of
    v mod 2^vars1, where v counts the canonical block enumeration.
    Column j is Boolean position j+1 inside the block (bit j of v)."""
    count = plan.q ** plan.vars2
    v = np.arange(count, dtype=np.int64) % (1 << plan.vars1)
    return np.stack([(v >> j) & 1 for j in range(plan.vars1)], axis=1)


def _interpolate_block(field, plan: ReductionPlan, values: np.ndarray):
    """Term arrays of the polynomial with these values on the vars2-grid."""
    ps = TrimmedPointSet(plan.q, plan.vars2, plan.vars2 * (plan.q - 1), plan.vars2)
    ev = TrimmedEvaluation(field, ps, np.asarray(values, dtype=np.int64))
    return interpolate_trimmed(ev).term_arrays()


def _product(field, plan: ReductionPlan, factors) -> Polynomial:
    """The product of (block, term arrays) factors on distinct blocks."""
    shape = [len(coeffs) for _, (_, coeffs) in factors]
    terms = math.prod(shape)
    exps = np.zeros((terms, plan.out_vars), dtype=np.int64)
    coeffs = np.ones(terms, dtype=np.int64)
    for (block, (e, c)), pick in zip(
            factors, np.unravel_index(np.arange(terms), shape)):
        exps[:, block * plan.vars2:(block + 1) * plan.vars2] = e[pick]
        coeffs = field.vmul(coeffs, c[pick])
    return Polynomial.from_term_arrays(field, plan.out_vars, exps, coeffs)


def reduce_cnf(cnf: Cnf, q: int, delta, parsimonious: bool = False) -> PolySystem:
    """Map a CNF to an equisatisfiable polynomial system over GF(q); with
    the parsimonious flag the number of common roots equals the number of
    satisfying assignments exactly."""
    plan = make_plan(cnf.n_vars, cnf.width, q, delta, parsimonious)
    field = make_field(q)
    dec = dec_table(plan)
    pads = range(cnf.n_vars + 1, plan.padded_vars + 1) if parsimonious else ()
    ands = {}  # literal set -> term arrays of its AND inside one block
    products = []
    for clause in cnf.clauses + [[-var] for var in pads]:
        per_block: dict[int, set] = {}
        for lit in clause:
            block, pos = divmod(abs(lit) - 1, plan.vars1)
            per_block.setdefault(block, set()).add((pos, lit < 0))
        factors = []
        for block, lits in per_block.items():
            key = frozenset(lits)
            if key not in ands:  # lit is falsified where bit == (lit < 0)
                pos, neg = zip(*key)
                ands[key] = _interpolate_block(
                    field, plan, (dec[:, pos] == neg).all(axis=1))
            factors.append((block, ands[key]))
        products.append(factors)

    if parsimonious:
        bound = _interpolate_block(  # range: zero exactly where v < 2^vars1
            field, plan, np.arange(plan.q ** plan.vars2) >= (1 << plan.vars1))
        products += [[(block, bound)] for block in range(plan.blocks)]

    terms = sum(math.prod(len(coeffs) for _, (_, coeffs) in factors)
                for factors in products)
    check_entries(terms * plan.out_vars,
                  f"the system's {terms} terms x {plan.out_vars} variables")
    polys = [_product(field, plan, factors) for factors in products]
    return PolySystem(field, plan.out_vars, polys, plan.degree_bound)
