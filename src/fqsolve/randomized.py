"""Seeded randomness and the two randomized primitives.

Streams are counter-based: a stream is identified by (seed, path) and
children extend the path, so any two runs with the same seed see exactly
the same draws no matter how the work is scheduled.  Seeds are unsigned
64-bit integers; a stream refuses any other seed.  The two consumers
are random linear combinations of a system's polynomials (complete
always, sound except with probability q^-mu per point) and random affine
equations for solution isolation.

A stream's generator is a `Philox` keyed by the first 128 bits of a
sha256 of (seed, path), with its counter at zero.  A stream keeps the
sha256 state of its (seed, path); a child continues a copy of it, and
`RngStream.child_keys` derives the keys of many descendants from it
without building a stream for each, so no key re-hashes the shared
prefix.

`rs_draw` draws the coefficients of many repetitions from their keys in
one pass of Philox4x64-10 (Salmon et al., "Random123", SC 2011) run in
numpy with one key per row, and reproduces what
`Generator.integers(0, q)` makes of its output.  numpy's Philox
increments the counter before each block, so the first block is counter
1; each 64-bit output is read as two 32-bit draws, low half first; and
an order q <= 2^32 maps a draw u to (u*q) >> 32, rejecting u when
(u*q) mod 2^32 < 2^32 mod q (Lemire, ACM TOMACS 2019) and drawing again.
The 128-bit products of a round are formed from 32-bit halves.  Rows
with a rejection are rare (at q = 65521 a draw is rejected with
probability 225/2^32) and are drawn again through a generator keyed
from their key, which follows numpy's redraws exactly.  Since every
repetition has its own key, a vote draws all the repetitions before the
first point where its early stop can fire in one pass; drawing ones the
stop never reads changes no output.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParamsError
from .field import FieldSpec
from .mpoly import Polynomial, PolySystem


_WORD = (1 << 64) - 1


def _keyed_generator(key: int) -> np.random.Generator:
    """The generator of the stream whose key is `key`."""
    return np.random.Generator(np.random.Philox(
        key=np.array([key & _WORD, key >> 64], dtype=np.uint64)))


@dataclass
class RngStream:
    """A reproducible random stream addressed by (seed, path)."""

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator | None = dc_field(
        default=None, repr=False, compare=False)
    # sha256 state after (tag, seed, path), built once and copied into
    # each child, so a child hashes only its own path entry
    _prefix: object | None = dc_field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise InvalidParamsError(
                f"seed {self.seed} is outside 0..2^64-1")

    def child(self, i: int) -> "RngStream":
        out = RngStream(self.seed, self.path + (i,))
        out._prefix = self._hashed().copy()
        out._prefix.update(i.to_bytes(8, "little", signed=True))
        return out

    def _hashed(self):
        if self._prefix is None:
            h = hashlib.sha256()
            h.update(b"fqsolve-stream")
            h.update(self.seed.to_bytes(8, "little", signed=False))
            for p in self.path:
                h.update(p.to_bytes(8, "little", signed=True))
            self._prefix = h
        return self._prefix

    def _key(self) -> int:
        return int.from_bytes(self._hashed().digest()[:16], "little")

    def child_keys(self, indices: Iterable[int]) -> list[int]:
        """The keys of self.child(i) for each i in indices, without
        building the children."""
        prefix = self._hashed()
        keys = []
        for i in indices:
            h = prefix.copy()
            h.update(i.to_bytes(8, "little", signed=True))
            keys.append(int.from_bytes(h.digest()[:16], "little"))
        return keys

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = _keyed_generator(self._key())
        return self._gen

    def integers(self, low: int, high: int, size=None) -> np.ndarray | int:
        """Uniform integers in [low, high); draws advance this stream."""
        out = self.generator().integers(low, high, size=size)
        return out if size is not None else int(out)


# Philox4x64-10's multipliers and Weyl key increments, one row for each
# of the two products of a round.  The masks are 0-d arrays: numpy
# scalars cost a conversion in every operation.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64).reshape(2, 1, 1)
_LOW = np.array(0xFFFFFFFF, dtype=np.uint64)
_32 = np.array(32, dtype=np.uint64)
_M_LO, _M_HI = _PHILOX_M & _LOW, _PHILOX_M >> _32


def _mulhi(b: np.ndarray) -> np.ndarray:
    """The high 64-bit words of the 128-bit products _PHILOX_M * b, from
    32-bit halves (Hacker's Delight, mulhu)."""
    b_lo, b_hi = b & _LOW, b >> _32
    t = _M_HI * b_lo + ((_M_LO * b_lo) >> _32)
    w = (t & _LOW) + _M_LO * b_hi
    return _M_HI * b_hi + (t >> _32) + (w >> _32)


def _philox_words(keys: list[int], blocks: int) -> np.ndarray:
    """The first 8*blocks 32-bit draws of the Philox stream of each
    128-bit key, one row per key, in the order numpy returns them."""
    key = np.array([[k & _WORD for k in keys], [k >> 64 for k in keys]],
                   dtype=np.uint64).reshape(2, -1, 1)
    # the counter words (c0, c2) and (c1, c3); block i has c0 = i + 1
    even = np.zeros((2, len(keys), blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        even, odd = _mulhi(even)[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    out = np.stack([even, odd], axis=1).reshape(4, len(keys), blocks)
    out = out.transpose(1, 2, 0)
    return np.stack([out & _LOW, out >> _32], axis=3).reshape(
        len(keys), 8 * blocks)


def rs_draw(q: int, mu: int, m: int, keys: list[int]) -> np.ndarray:
    """The stacked (mu, m) coefficient matrices that razborov_smolensky
    draws from the stream of each key, integers(0, q, size=(mu, m)), for
    1 <= q <= 2^32.

    The draws are numpy's, reproduced by one vectorised Philox over all
    keys (see the module docstring), so they rely on numpy keeping the
    `Philox` stream and the `Generator.integers` algorithm stable, as its
    policy on stream compatibility documents.
    test_chunk_draw_matches_fresh_streams fails if either changes.
    """
    if mu < 1:
        raise ValueError("mu must be positive")
    if not 1 <= q <= 1 << 32:
        raise ValueError("q must be in 1..2^32")
    size = mu * m
    scaled = _philox_words(keys, -(-size // 8))[:, :size] * np.uint64(q)
    out = (scaled >> _32).astype(np.int64).reshape(len(keys), mu, m)
    rejected = np.any((scaled & _LOW) < (1 << 32) % q, axis=1)
    for i in np.flatnonzero(rejected):
        out[i] = _keyed_generator(keys[i]).integers(0, q, size=(mu, m))
    return out


def razborov_smolensky(system: PolySystem, mu: int,
                       rng: RngStream) -> list[Polynomial]:
    """mu random linear combinations of the system's polynomials.

    Every common root of the system is a root of every combination; at a
    point where some polynomial is nonzero, all mu combinations vanish
    with probability exactly q^-mu.
    """
    if mu < 1:
        raise ValueError("mu must be positive")
    f = system.field
    m = len(system.polys)
    rho = rng.integers(0, f.q, size=(mu, m))
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
