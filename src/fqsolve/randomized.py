"""Seeded randomness and the two randomized primitives.

Streams are counter-based: a stream is identified by (seed, path) and
children extend the path, so any two runs with the same seed see exactly
the same draws no matter how the work is scheduled.  Seeds are unsigned
64-bit integers; a stream refuses any other seed.  The two consumers
are random linear combinations of a system's polynomials (complete
always, sound except with probability q^-mu per point) and random affine
equations for solution isolation.

A stream's generator is a `Philox` keyed by the first 128 bits of a
sha256 of (seed, path), with its counter at zero.  Every generator is
built from the fixed seed 0 and then keyed by setting its `state`: the
key, a zero counter and an empty output buffer.  That state is all a
`Philox` and its `Generator` hold, so a generator keyed this way draws
exactly what a fresh `Philox(key=...)` would, and one generator can be
keyed again for each stream in turn: `rs_chunk` draws the coefficients
of a whole vote chunk through one generator that way, instead of
building one per repetition.  (`Philox(key=...)` alone would also seed a
throwaway `SeedSequence` from OS entropy for every build.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParamsError
from .field import FieldSpec
from .mpoly import Polynomial, PolySystem


_WORD = (1 << 64) - 1


def _new_generator() -> np.random.Generator:
    """A Philox generator from the fixed seed 0, to be keyed by _rekey."""
    return np.random.Generator(np.random.Philox(0))


def _rekey(gen: np.random.Generator, key: int) -> np.random.Generator:
    """Reset gen to the Philox stream of a 128-bit key, at counter zero."""
    zeros = np.zeros(4, dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros,
                  "key": np.array([key & _WORD, key >> 64], dtype=np.uint64)},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass
class RngStream:
    """A reproducible random stream addressed by (seed, path)."""

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator | None = dc_field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise InvalidParamsError(
                f"seed {self.seed} is outside 0..2^64-1")

    def child(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.path + (i,))

    def _key(self) -> int:
        h = hashlib.sha256()
        h.update(b"fqsolve-stream")
        h.update(self.seed.to_bytes(8, "little", signed=False))
        for p in self.path:
            h.update(p.to_bytes(8, "little", signed=True))
        return int.from_bytes(h.digest()[:16], "little")

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = _rekey(_new_generator(), self._key())
        return self._gen

    def integers(self, low: int, high: int, size=None) -> np.ndarray | int:
        """Uniform integers in [low, high); draws advance this stream."""
        out = self.generator().integers(low, high, size=size)
        return out if size is not None else int(out)


def rs_coefficients(q: int, mu: int, m: int, rng: RngStream) -> np.ndarray:
    """The (mu, m) coefficient matrix of mu random combinations of m
    polynomials over GF(q), as razborov_smolensky draws it from rng."""
    if mu < 1:
        raise ValueError("mu must be positive")
    return rng.integers(0, q, size=(mu, m))


def rs_chunk(q: int, mu: int, m: int, rngs: list[RngStream]) -> np.ndarray:
    """The stacked rs_coefficients(q, mu, m, r) of each stream r, drawn
    through one generator keyed for each stream in turn; the streams
    themselves are left untouched."""
    if mu < 1:
        raise ValueError("mu must be positive")
    gen = _new_generator()
    return np.stack([_rekey(gen, rng._key()).integers(0, q, size=(mu, m))
                     for rng in rngs])


def razborov_smolensky(system: PolySystem, mu: int,
                       rng: RngStream) -> list[Polynomial]:
    """mu random linear combinations of the system's polynomials.

    Every common root of the system is a root of every combination; at a
    point where some polynomial is nonzero, all mu combinations vanish
    with probability exactly q^-mu.
    """
    f = system.field
    m = len(system.polys)
    rho = rs_coefficients(f.q, mu, m, rng)
    out = []
    for i in range(mu):
        acc = Polynomial.zero(f, system.n)
        for j in range(m):
            c = int(rho[i, j])
            if c:
                acc = acc.add(system.polys[j].scale(c))
        out.append(acc)
    return out


def vv_coefficients(q: int, n: int, rng: RngStream) -> np.ndarray:
    """The (ell, n+1) matrix [a | b] of the affine polynomials a.X + b
    that valiant_vazirani draws from rng, ell uniform in {0..n}."""
    if n < 1:
        raise ValueError("n must be positive")
    ell = rng.integers(0, n + 1)
    return rng.integers(0, q, size=(ell, n + 1))


def valiant_vazirani(fieldspec: FieldSpec, n: int,
                     rng: RngStream) -> list[Polynomial]:
    """A uniformly random number ell in {0..n} of uniformly random affine
    polynomials a.X + b.  Appending them to a system never adds solutions;
    if the system is satisfiable, the augmented system has exactly one
    solution with probability Omega(1/n)."""
    coeffs = vv_coefficients(fieldspec.q, n, rng)
    # the exponents of X_1, ..., X_n and of the constant, one per column
    exps = [tuple(int(j == i) for j in range(n)) for i in range(n + 1)]
    return [Polynomial.from_terms(fieldspec, n, zip(exps, row))
            for row in coeffs]
