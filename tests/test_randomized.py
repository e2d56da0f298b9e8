import ast
import hashlib
import pathlib

import numpy as np
import pytest

from conftest import full_grid, random_system
from fqsolve import (PolySystem, RngStream, count_common_roots, make_field,
                     razborov_smolensky, valiant_vazirani)
from fqsolve import randomized
from fqsolve.mpoly import point_matrix
from fqsolve.randomized import _keyed_generator, rs_draw, vv_coefficients


def _draws(stream, high, size=None):
    return _keyed_generator(stream._key()).integers(0, high, size=size)


def _spied_draw(monkeypatch, q, mu, m, keys):
    """rs_draw's matrices and the keys it built a generator from."""
    built, keyed = [], randomized._keyed_generator
    with monkeypatch.context() as mp:
        mp.setattr(randomized, "_keyed_generator",
                   lambda key: built.append(key.tolist()) or keyed(key))
        return rs_draw(q, mu, m, keys), built


def _rejected_keys(q, keys, size):
    """The keys whose first size 32-bit draws, low half of each 64-bit
    Philox output first, hold one that Generator.integers(0, q) rejects."""
    out = []
    for key in keys:
        raw = np.random.Philox(key=key).random_raw(-(-size // 2)).tolist()
        draws = [w >> s & 0xFFFFFFFF for w in raw for s in (0, 32)][:size]
        if any(u * q % 2 ** 32 < 2 ** 32 % q for u in draws):
            out.append(key.tolist())
    return out


class TestRngStream:
    def test_same_path_same_draws(self):
        a = _draws(RngStream(42, (1, 2)), 100, 16)
        b = _draws(RngStream(42, (1, 2)), 100, 16)
        assert (a == b).all()

    def test_child_is_pure(self):
        a = RngStream(42).child(3).child(0)
        b = RngStream(42).child(3).child(0)
        assert (_draws(a, 7, 8) == _draws(b, 7, 8)).all()

    def test_distinct_paths_decorrelate(self):
        a = _draws(RngStream(42, (0,)), 2 ** 30, 32)
        b = _draws(RngStream(42, (1,)), 2 ** 30, 32)
        c = _draws(RngStream(43, (0,)), 2 ** 30, 32)
        assert (a != b).any() and (a != c).any()

    def test_keys_match_a_fresh_sha256(self):
        # children continue a copy of their parent's hash state; every
        # key must still be the sha256 of (tag, seed, path) from scratch,
        # read as two little-endian 64-bit words
        def fresh_key(seed, path):
            data = b"fqsolve-stream" + seed.to_bytes(8, "little") + b"".join(
                p.to_bytes(8, "little", signed=True) for p in path)
            digest = hashlib.sha256(data).digest()
            return [int.from_bytes(digest[:8], "little"),
                    int.from_bytes(digest[8:16], "little")]

        for seed in (0, 42, 2 ** 64 - 1):
            root = RngStream(seed, (5,))
            assert root._key().dtype == np.dtype("<u8")
            assert root._key().tolist() == fresh_key(seed, (5,))
            for i in (0, 1, 63, -2, 2 ** 62):
                child = root.child(i)
                assert child._key().tolist() == fresh_key(seed, (5, i))
                for j in (0, 7):
                    assert child.child(j)._key().tolist() == \
                        fresh_key(seed, (5, i, j))
                direct = RngStream(seed, (5, i, 3))
                assert direct._key().tolist() == fresh_key(seed, (5, i, 3))
                assert direct == child.child(3)
            assert root._key().tolist() == fresh_key(seed, (5,))

    def test_child_keys_match_the_children(self):
        for seed in (0, 2 ** 64 - 1):
            root = RngStream(seed, (5,))
            ix = [0, 1, 63, -2, 2 ** 62]
            keys = root.child_keys(ix)
            assert keys.shape == (len(ix), 2) and keys.dtype == np.dtype("<u8")
            assert keys.tolist() == [root.child(i)._key().tolist() for i in ix]

    def test_seed_must_fit_64_bits(self):
        from fqsolve.errors import InvalidParamsError
        for bad in (-1, 2 ** 64):
            with pytest.raises(InvalidParamsError):
                RngStream(bad)
        assert 0 <= _draws(RngStream(2 ** 64 - 1).child(3), 5) < 5

    # (3, 5): fifteen draws run past the four words of one Philox block,
    # which also hold eight 32-bit draws for orders up to 2^32
    @pytest.mark.parametrize("q", [2, 3, 4, 256, 65521, 65536])
    def test_chunk_draw_matches_fresh_streams(self, q, monkeypatch):
        for seed in (0, 7, 2 ** 63, 2 ** 64 - 1):
            rngs = [RngStream(seed, (3, j)) for j in range(6)]
            keys = np.stack([r._key() for r in rngs])
            for mu, m in ((1, 1), (3, 5)):
                want = np.stack([_draws(RngStream(seed, r.path), q, (mu, m))
                                 for r in rngs])
                got, built = _spied_draw(monkeypatch, q, mu, m, keys)
                assert got.dtype == want.dtype and (got == want).all()
                # a generator is built only for the rows drawn again
                assert built == _rejected_keys(q, keys, mu * m)

    # at q = 2^31 + 1 about half of all 32-bit draws are rejected and
    # drawn again, at q = 2^32 - 1 one in 2^32; field orders are far rarer
    @pytest.mark.parametrize("q", [2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32])
    def test_chunk_draw_redraws_rejected_rows(self, q, monkeypatch):
        for seed in (0, 5, 2 ** 64 - 1):
            rngs = [RngStream(seed, (j,)) for j in range(40)]
            keys = np.stack([r._key() for r in rngs])
            for mu, m in ((1, 1), (2, 3), (4, 5)):
                want = np.stack([_draws(RngStream(seed, r.path), q, (mu, m))
                                 for r in rngs])
                got, built = _spied_draw(monkeypatch, q, mu, m, keys)
                assert got.dtype == want.dtype and (got == want).all()
                assert built == _rejected_keys(q, keys, mu * m)

    def test_chunk_draw_refuses_orders_beyond_32_bits(self):
        with pytest.raises(ValueError):
            rs_draw(2 ** 32 + 1, 1, 1, RngStream(0)._key()[None])


class TestRazborovSmolensky:
    def test_completeness_is_exact(self):
        rng = np.random.default_rng(1)
        stream = RngStream(9)
        for trial in range(25):
            q = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(2, 5))
            system = random_system(rng, q, n, int(rng.integers(1, 4)), 2)
            roots = [pt for pt in full_grid(q, n)
                     if all(p.evaluate(pt) == 0 for p in system.polys)]
            combos = razborov_smolensky(system, 3, stream.child(trial))
            for pt in roots:
                assert all(c.evaluate(pt) == 0 for c in combos)

    def test_degree_never_grows(self):
        rng = np.random.default_rng(2)
        stream = RngStream(10)
        for trial in range(25):
            system = random_system(rng, 3, 4, 3, 2)
            combos = razborov_smolensky(system, 4, stream.child(trial))
            assert all(c.degree() <= 2 for c in combos)

    def test_constant_system_gives_random_constants(self):
        f = make_field(5)
        from fqsolve import Polynomial, PolySystem
        system = PolySystem(f, 1, [Polynomial.constant(f, 1, 1)], 1)
        seen = set()
        stream = RngStream(11)
        for trial in range(60):
            for c in razborov_smolensky(system, 2, stream.child(trial)):
                assert c.degree() == 0
                seen.add(c.evaluate((0,)))
        assert seen == set(range(5))

    @pytest.mark.parametrize("q,mu", [(2, 3), (3, 2)])
    def test_soundness_rate(self, q, mu):
        # quick version; the acceptance suite runs 10,000 trials per config
        from fqsolve import Polynomial, PolySystem
        f = make_field(q)
        n = 2
        polys = [Polynomial.variable(f, n, 0),
                 Polynomial.variable(f, n, 1)]
        system = PolySystem(f, n, polys, 1)
        x = (1, 1)
        trials = 3000
        stream = RngStream(100 + q)
        hits = sum(
            all(c.evaluate(x) == 0
                for c in razborov_smolensky(system, mu, stream.child(t)))
            for t in range(trials))
        p = q ** -mu
        sigma = (p * (1 - p) / trials) ** 0.5
        assert hits / trials <= p + 3 * sigma


class TestValiantVazirani:
    def test_ell_distribution_uniform(self):
        f = make_field(3)
        n = 4
        stream = RngStream(5)
        counts = np.zeros(n + 1)
        trials = 10000
        for t in range(trials):
            counts[len(valiant_vazirani(f, n, stream.child(t)))] += 1
        p = 1.0 / (n + 1)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert (abs(counts / trials - p) <= 3 * sigma).all()

    def test_polynomials_are_affine(self):
        f = make_field(4)
        stream = RngStream(6)
        for t in range(50):
            for poly in valiant_vazirani(f, 3, stream.child(t)):
                assert poly.degree() <= 1

    @pytest.mark.parametrize("q, n, delta, b", [(2, 5, 2, 3), (3, 4, 3, 0),
                                                (4, 3, 2, 1), (9, 3, 4, 2),
                                                (16, 2, 3, 1)])
    def test_coefficient_rows_give_polynomial_values(self, q, n, delta, b):
        # the rows [a | b] give the values a.x + b of the valiant_vazirani
        # polynomials drawn from the same stream, at every point of
        # T(n-b, delta) x GF(q)^b
        f = make_field(q)
        pts = point_matrix(q, n, delta, b)
        for t in range(12):
            rows_rng, polys_rng = RngStream(4, (t,)), RngStream(4, (t,))
            coeffs = vv_coefficients(q, n, rows_rng)
            polys = valiant_vazirani(f, n, polys_rng)
            values = f.vadd(f.matmul(pts, coeffs[:, :n].T).T, coeffs[:, n:])
            assert values.shape == (len(polys), len(pts))
            for row, poly in zip(values, polys):
                assert row.tolist() == [poly.evaluate(x)
                                        for x in pts.tolist()]
            assert _draws(rows_rng, 1 << 30) == _draws(polys_rng, 1 << 30)
            # drawing leaves the stream where it was
            assert (vv_coefficients(q, n, rows_rng) == coeffs).all()

    def test_unsat_stays_unsat(self):
        from fqsolve import Polynomial, PolySystem
        f = make_field(3)
        x = Polynomial.variable(f, 2, 0)
        system = PolySystem(f, 2, [x, x.add(Polynomial.constant(f, 2, 1))], 1)
        assert count_common_roots(system).count == 0
        stream = RngStream(7)
        for t in range(40):
            extra = valiant_vazirani(f, 2, stream.child(t))
            aug = PolySystem(system.field, system.n,
                             system.polys + tuple(extra), system.d)
            assert count_common_roots(aug).count == 0

    def test_isolation_rate_on_satisfiable_systems(self):
        rng = np.random.default_rng(3)
        stream = RngStream(8)
        isolated = trials = 0
        for inst in range(25):
            q = int(rng.choice([2, 3]))
            n = int(rng.integers(3, 6))
            while True:
                system = random_system(rng, q, n, 2, 2, min_terms=2,
                                       max_terms=4)
                if count_common_roots(system).count > 0:
                    break
            for t in range(40):
                extra = valiant_vazirani(system.field, n,
                                         stream.child(inst * 40 + t))
                aug = PolySystem(system.field, system.n,
                                 system.polys + tuple(extra), system.d)
                trials += 1
                isolated += count_common_roots(aug).count == 1
        # measured rate is far above this floor; the contract is Omega(1/n)
        assert isolated / trials >= 0.05


def test_streams_draw_only_through_keyed_generators():
    # a stream is its key: numpy generators and Philox bit generators are
    # built in one place, from key words, and RngStream holds no way to
    # draw of its own
    building = set()
    for path in pathlib.Path(randomized.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("Generator", "Philox"):
                    building.add((path.name, getattr(top, "name", None),
                                  ast.unparse(func)))
    assert building == {
        ("randomized.py", "_keyed_generator", "np.random.Generator"),
        ("randomized.py", "_keyed_generator", "np.random.Philox")}
    (stream,) = [node for node in ast.parse(pathlib.Path(
        randomized.__file__).read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "RngStream"]
    members = {getattr(node, "name", None) for node in stream.body} | {
        node.target.id for node in stream.body
        if isinstance(node, ast.AnnAssign)}
    assert not members & {"integers", "generator", "_gen"}
