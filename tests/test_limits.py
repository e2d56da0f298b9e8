"""Every size refusal happens before the allocation it guards.

One row per refusal site: the smallest input that site refuses under the
real limits, built outside the measurement.  The refusal must raise
TooLargeError while tracemalloc's peak stays under 4 MiB: a site that
allocated first would reach at least 8 bytes per refused entry.
"""

import ast
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fqsolve
from conftest import random_system
from fqsolve import (Cnf, Polynomial, PolySystem, RngStream, SolverParams,
                     brute_partial_sum, count_common_roots, full_sum,
                     make_field, reduce_cnf)
from fqsolve.errors import TooLargeError
from fqsolve.mpoly import point_matrix
from fqsolve.oracle import grid_interpolate
from fqsolve.reduction import make_plan
from fqsolve.transform import evaluate_trimmed, evaluate_values

PEAK = 4 << 20


def _power(q, n, var, e):
    return Polynomial.from_terms(make_field(q), n, [((0,) * var + (e,) +
                                                     (0,) * (n - var - 1), 1)])


def _x1(q, n):
    return _power(q, n, 0, 1)


def _matrix_entries():
    # 8193 x 8192 entries over GF(2), as a zero-byte broadcast view
    f = make_field(2)
    mat = np.broadcast_to(np.int64(0), (8193, 8192))
    return lambda: f.compile_matrix(mat)


def _matrix_reduce():
    # the first length whose inner products over F_65521 reach 2^51
    f = make_field(65521)
    mat = np.broadcast_to(np.int64(0), (1, 2 ** 51 // 65520 ** 2 + 1))
    return lambda: f.compile_matrix(mat)


def _frames():
    # 6 q^2 > 2^26 from q = 3345 on, and 3347 is the first prime power
    const = Polynomial.constant(make_field(3347), 2, 5)
    return lambda: evaluate_trimmed(const, 0, 0)


def _rows():
    # one row on the 2^26 points of GF(2)^26 fits, two do not
    f = make_field(2)
    polys = [_x1(2, 26)] * 2
    return lambda: evaluate_values(f, 26, polys, 26, 0)


def _points():
    # 2^22 points x 22 coordinates; GF(2)^21 holds 2^21 x 21
    return lambda: point_matrix(2, 22, 22, 0)


def _keys():
    # 16 variables of 4 bits each need 64-bit keys
    return lambda: point_matrix(16, 16, 0, 0)


def _recursion():
    # a (2,24,12,2) system at default parameters: a chunk's root table
    # would hold 64 x 1,587,520 entries
    system = random_system(np.random.default_rng(0), 2, 24, 12, 2)
    return lambda: full_sum(system, SolverParams(seed=0), RngStream(0))


def _grid():
    # 6 arrays of 2^24 points; GF(2)^23 fits
    system = PolySystem(make_field(2), 24, [_x1(2, 24)], 1)
    return lambda: count_common_roots(system)


def _power_table():
    # q^2 > 2^26 from q = 8193 on, and 8209 is the first prime power
    f = make_field(8209)
    system = PolySystem(f, 1, [_x1(8209, 1).add(
        Polynomial.constant(f, 1, 8208))], 1)
    return lambda: count_common_roots(system)


def _count_walk():
    # X1^1030 + X2^1030 walks 2 x 1031 planes of 1031^2 products, over
    # 2^31; the same walk over GF(1024) reaches 2^31 exactly
    system = PolySystem(make_field(1031), 2, [
        _power(1031, 2, 0, 1030).add(_power(1031, 2, 1, 1030))], 2060)
    return lambda: count_common_roots(system)


def _interpolation_walk():
    values = np.broadcast_to(np.int64(0), (1031 ** 2,))
    return lambda: grid_interpolate(make_field(1031), values, 2)


def _partial_sum_walk():
    # the interpolation of a beta = 0 sum over GF(1031)^2 walks 2 x 1031
    # planes: refused before the indicator's grid is evaluated
    system = PolySystem(make_field(1031), 2, [_x1(1031, 2)], 1)
    return lambda: brute_partial_sum(system, 0)


def _system_terms():
    # one clause over three blocks of 10 Boolean variables, each encoded
    # by 7 variables of GF(3) at delta 1/3: 2187^3 terms x 21 variables
    cnf = Cnf(21, [[1, 11, 21]])
    return lambda: reduce_cnf(cnf, 3, Fraction(1, 3))


def _block_grid():
    # delta 2/21 over GF(2) needs blocks of 21 variables: 2^21 points
    return lambda: make_plan(21, 3, 2, Fraction(2, 21), False)


SITES = {
    "field.check_matrix_size entries": _matrix_entries,
    "field.check_matrix_size reduce limit": _matrix_reduce,
    "transform._matrices": _frames,
    "transform.evaluate_values": _rows,
    "mpoly.point_matrix": _points,
    "mpoly.check_key_width": _keys,
    "core._check_sizes": _recursion,
    "oracle._indicator_values": _grid,
    "oracle._pow_matrix": _power_table,
    "oracle count walk": _count_walk,
    "oracle.grid_interpolate walk": _interpolation_walk,
    "oracle.brute_partial_sum walk": _partial_sum_walk,
    "reduction.reduce_cnf": _system_terms,
    "reduction.make_plan block grid": _block_grid,
}


@pytest.mark.parametrize("site", SITES)
def test_refused_before_allocation(site):
    call = SITES[site]()
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK, f"{site}: {peak} bytes before the refusal"


def test_entry_limit_named_only_in_field():
    # one entry check: every other module calls field.check_entries
    src = pathlib.Path(fqsolve.__file__).parent
    naming = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "ENTRY_LIMIT" or \
                    isinstance(node, ast.Attribute) and \
                    node.attr == "ENTRY_LIMIT" or \
                    isinstance(node, ast.alias) and \
                    node.name == "ENTRY_LIMIT":
                naming.add(path.name)
    assert naming == {"field.py"}
