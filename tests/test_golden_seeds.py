"""Seeded solver outputs, pinned.

The same system, parameters and seed must give the same `partial_sum`
polynomial, `full_sum` value and `solve_pes` answer whatever the solver
does inside: the values in `golden/seed_outputs.json` were recorded with
one recursive call per repetition, and a kernel that batches the
repetitions, composes the random combinations or stops voting early has
to reproduce them exactly, including the wrong answers that small
repetition counts give.  The cases cover the C3 shapes, q = 5, 8, 9, one
to three recursive levels, a leaf that still sums a grid suffix, a child
partial sum of higher degree than its parent's point set, and the m = 0
and n <= 3 branches.  Regenerate the file only when a change is meant to
alter seeded output:

    PYTHONPATH=src:tests python tests/test_golden_seeds.py > tests/golden/seed_outputs.json
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_system
from fqsolve import (PolySystem, RngStream, SolverParams, full_sum,
                     make_field, partial_sum, solve_pes)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "seed_outputs.json"

C3 = dict(kappa="3/10", lam="3/20")

# name -> (q, n, m, d), system seed, solver keywords; `beta` defaults to
# floor(kappa * n), the split full_sum starts from
SUM_CASES = {
    # the C3 shapes: t = 4-5 leaves ties and wrong votes, t = 150 spans
    # several vote chunks
    "c3-q2-n6-t5": ((2, 6, 3, 2), 1, dict(C3, t=5, seed=1)),
    "c3-q2-n6-t150": ((2, 6, 3, 2), 2, dict(C3, t=150, seed=2)),
    "c3-q3-n5-t4": ((3, 5, 3, 2), 3, dict(C3, t=4, seed=3)),
    "c3-q3-n5-t150": ((3, 5, 3, 2), 4, dict(C3, t=150, seed=4)),
    "c3-q4-n4-t5": ((4, 4, 3, 2), 5, dict(C3, t=5, seed=5)),
    "c3-q4-n4-t70": ((4, 4, 3, 2), 6, dict(C3, t=70, seed=6)),
    "c3-q2-n8-t5": ((2, 8, 3, 2), 7, dict(C3, t=5, seed=7)),
    "q5-n4": ((5, 4, 3, 2), 8, dict(C3, t=6, seed=8)),
    "q8-n4": ((8, 4, 2, 2), 9, dict(C3, t=4, seed=9)),
    "q9-n4": ((9, 4, 2, 2), 10, dict(C3, t=4, seed=10)),
    # the system and parameters of test_deeper_recursion_matches_oracle
    "deeper-q2-n9": ((2, 9, 3, 2), 8, dict(kappa="30/100", lam="12/100",
                                           t=25, seed=5)),
    # beta 2 -> 1 -> 0: two recursive levels over a leaf
    "two-levels-q3-n7": ((3, 7, 3, 2), 11, dict(kappa="3/10", lam="1/7",
                                                t=4, seed=11)),
    # beta 3 -> 2 -> 1 -> 0: three recursive levels
    "three-levels-q2-n10": ((2, 10, 3, 2), 12, dict(kappa="3/10",
                                                    lam="1/10", t=3,
                                                    seed=12)),
    # beta 5 -> 3 -> 1: two recursive levels, the leaf sums a grid suffix
    "suffix-leaf-q2-n17": ((2, 17, 6, 2), 31, dict(kappa="3/10",
                                                   lam="2/17", t=3,
                                                   seed=13)),
    # beta 3 -> 1: one recursive level, the leaf sums a grid suffix
    "suffix-leaf-q3-n10": ((3, 10, 4, 2), 43, dict(kappa="3/10",
                                                   lam="1/5", t=4,
                                                   seed=14)),
    # d = 1: the parent point set has degree 0, the child partial sums 4
    "child-above-parent-q3-n8": ((3, 8, 2, 1), 15, dict(kappa="1/4",
                                                        lam="1/4", t=5,
                                                        seed=15)),
    # n <= 3 always takes the leaf branch
    "leaf-q5-n3": ((5, 3, 2, 2), 16, dict(C3, beta=1, t=5, seed=16)),
    "leaf-q7-n2": ((7, 2, 2, 2), 17, dict(C3, beta=1, t=5, seed=17)),
    # beta below one step: leaf branch at n > 3
    "leaf-beta0-q3-n5": ((3, 5, 3, 2), 18, dict(C3, beta=0, t=5, seed=18)),
    # m = 0
    "empty-q3-n4": ((3, 4, 0, 1), 19, dict(C3, beta=2, t=5, seed=19)),
    "empty-q3-n4-beta0": ((3, 4, 0, 1), 20, dict(C3, beta=0, t=5,
                                                 seed=20)),
}

SOLVE_CASES = {
    "solve-q2-n5": ((2, 5, 3, 2), 21, dict(t=6, outer_reps=5, seed=21)),
    "solve-q3-n4": ((3, 4, 2, 2), 22, dict(t=6, outer_reps=4, seed=22)),
    "solve-q4-n3": ((4, 3, 3, 2), 23, dict(t=6, outer_reps=4, seed=23)),
    "solve-q5-n4": ((5, 4, 4, 2), 24, dict(kappa="3/10", lam="3/10", t=5,
                                           outer_reps=3, seed=24)),
    "solve-empty": ((3, 4, 0, 1), 25, dict(t=6, outer_reps=3, seed=25)),
}


def _system(shape, sys_seed) -> PolySystem:
    q, n, m, d = shape
    if m == 0:
        return PolySystem(make_field(q), n, [], d)
    return random_system(np.random.default_rng(sys_seed), q, n, m, d)


def _params(kw) -> SolverParams:
    frac = lambda key: Fraction(kw[key]) if key in kw else None
    return SolverParams(kappa=frac("kappa"), lam=frac("lam"),
                        t_override=kw["t"], outer_reps=kw.get("outer_reps"),
                        seed=kw["seed"])


def sum_outputs(name: str) -> dict:
    shape, sys_seed, kw = SUM_CASES[name]
    system = _system(shape, sys_seed)
    params = _params(kw)
    beta = kw.get("beta", math.floor(Fraction(kw["kappa"]) * system.n))
    zp = partial_sum(system, beta, params, RngStream(kw["seed"]))
    return {"beta": beta,
            "partial_sum": [[list(e), c] for e, c in zp.terms()],
            "full_sum": full_sum(system, params, RngStream(kw["seed"]))}


def solve_output(name: str) -> bool:
    shape, sys_seed, kw = SOLVE_CASES[name]
    return solve_pes(_system(shape, sys_seed), _params(kw))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SUM_CASES))
def test_sum_outputs_are_pinned(name):
    assert sum_outputs(name) == _golden()["sums"][name]


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_outputs_are_pinned(name):
    assert solve_output(name) == _golden()["solve"][name]


def test_every_case_is_recorded():
    golden = _golden()
    assert set(golden["sums"]) == set(SUM_CASES)
    assert set(golden["solve"]) == set(SOLVE_CASES)


if __name__ == "__main__":
    # one case per line, so a change to one output is a one-line diff
    def block(key, items):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in items]
        return f' "{key}": {{\n' + ",\n".join(rows) + "\n }"
    sys.stdout.write(
        "{\n"
        + block("solve", ((k, solve_output(k)) for k in sorted(SOLVE_CASES)))
        + ",\n"
        + block("sums", ((k, sum_outputs(k)) for k in sorted(SUM_CASES)))
        + "\n}\n")
