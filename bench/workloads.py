"""Seeded workloads of the benchmark.

Each workload turns the benchmark seed into a fixed corpus of inputs, one
warm-up input per instance shape, a `call` that runs one top-level
operation of the program and an independent oracle `check`.  The program
only ever sees the generated inputs; every oracle runs outside the timed
region.  Calls look their targets up through the module at call time, so
the tracer's patches (see tracer.py) are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import fqsolve.cli
from fqsolve import core, field, mpoly, oracle, randomized, transform


@dataclass
class Instance:
    shape: tuple
    data: object
    truth: object = None
    argv: list | None = None


# ---------------------------------------------------------------------------
# generators (mirroring the C3/C4 acceptance generators, on their own code)
# ---------------------------------------------------------------------------

def random_system(rng, q, n, m, d, min_terms, max_terms) -> mpoly.PolySystem:
    """m random polynomials of total degree <= d with min..max terms."""
    f = field.make_field(q)
    pts = mpoly.point_matrix(q, n, min(d, n * (q - 1)), 0)
    polys = []
    for _ in range(m):
        k = int(rng.integers(min_terms, max_terms + 1))
        take = rng.integers(0, len(pts), size=k)
        pairs = [(tuple(int(v) for v in pts[i]), int(rng.integers(1, q)))
                 for i in take]
        polys.append(mpoly.Polynomial.from_terms(f, n, pairs))
    return mpoly.PolySystem(f, n, polys, d)


def random_sparse_poly(rng, q, n, delta, terms) -> mpoly.Polynomial:
    f = field.make_field(q)
    pts = mpoly.point_matrix(q, n, delta, 0)
    take = rng.choice(len(pts), size=min(terms, len(pts)), replace=False)
    pairs = [(tuple(int(v) for v in pts[i]), int(rng.integers(1, q)))
             for i in take]
    return mpoly.Polynomial.from_terms(f, n, pairs)


def random_cnf_text(rng, n_vars, n_clauses, width=3) -> str:
    lines = [f"p cnf {n_vars} {n_clauses}"]
    for _ in range(n_clauses):
        vs = rng.choice(n_vars, size=width, replace=False) + 1
        lits = [int(v) if rng.integers(2) else -int(v) for v in vs]
        lines.append(" ".join(str(x) for x in lits) + " 0")
    return "\n".join(lines) + "\n"


def brute_sat_count(cnf_text: str) -> int:
    """Satisfying assignments by enumeration, parsing DIMACS on its own."""
    rows = [ln.split() for ln in cnf_text.splitlines()
            if ln.strip() and not ln.startswith(("c", "p"))]
    clauses = [[int(t) for t in row if t != "0"] for row in rows]
    n_vars = int(cnf_text.split("\n", 1)[0].split()[2])
    return sum(1 for bits in itertools.product((False, True), repeat=n_vars)
               if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl)
                      for cl in clauses))


def run_process(argv: list[str], timeout: float) -> tuple[int, str]:
    """(exit code, stdout) of a child process, killed after `timeout`.

    subprocess.run(timeout=...) polls for the exit with sleeps of up to
    50 ms, which would show in the timings; a timer thread kills instead,
    and the wait blocks until the exit.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _solver_seed(rng) -> int:
    return int(rng.integers(0, 1 << 31))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    salt = 0
    fields: tuple[int, ...] = ()
    # solver error allowance: the share of corpus instances, rounded up,
    # that may disagree with the oracle in the way `excusable` names before
    # the run counts as incorrect
    allowance = 0.0
    # set-up samples per run, spread over the timed loop; setup_s is
    # their median
    setup_samples = 5
    # the oracle evaluates the same polynomials on the dense grid, which
    # gives transform.vs_grid_ratio
    grid_compare = False
    per_shape = 1
    # whether calls run in the benchmark's own process, whose speed the
    # calibration loop measures (see run.Speed)
    calls_in_process = True

    def shapes(self) -> list[tuple]:
        raise NotImplementedError

    def make(self, rng, shape) -> Instance:
        raise NotImplementedError

    def corpus(self, seed: int) -> list[Instance]:
        """per_shape inputs for every shape, in rounds over the shapes."""
        rng = _rng(seed, self.salt)
        return [self.make(rng, s)
                for _ in range(self.per_shape) for s in self.shapes()]

    def warmups(self, seed: int) -> list[Instance]:
        """One untimed input per shape, drawn apart from the corpus."""
        rng = _rng(seed, self.salt + 1)
        return [self.make(rng, s) for s in self.shapes()]

    def prepare(self, instances: list[Instance], workdir: str) -> None:
        """Outside-the-timed-region preparation (files, oracle truths)."""

    def call(self, inst: Instance, in_process: bool = False):
        raise NotImplementedError

    def check(self, inst: Instance, result) -> bool:
        raise NotImplementedError

    def excusable(self, inst: Instance, result) -> bool:
        """Whether a wrong result is an error the solver's stated error
        bound allows."""
        return False

    def encode(self, result) -> bytes:
        """Canonical bytes of one result, for the output digest."""
        return repr(result).encode()

    def same(self, a, b) -> bool:
        return a == b


C3_PARAMS = dict(kappa=Fraction(3, 10), lam=Fraction(3, 20))


class FullSumRecursive(Workload):
    name = "fullsum-recursive"
    why = ("full_sum at the C3 shapes with paper-default t: the only "
           "workload where the recursion (RS, votes, suffix sum) does the work")
    salt = 101
    fields = (2, 3, 4)
    # the median call falls among the (3,5) and (2,8) systems, so it
    # varies with their costs; more systems per shape narrow that
    per_shape = 6
    # C3 allows max(5, 2*200*q^-n) mismatches in 200 sums
    allowance = 5 / 200

    def shapes(self):
        return [(2, 6, 3, 2), (3, 5, 3, 2), (4, 4, 3, 2), (2, 8, 3, 2)]

    def make(self, rng, shape):
        q, n, m, d = shape
        system = random_system(rng, q, n, m, d, 3, 7)
        return Instance(shape, (system, _solver_seed(rng)))

    def call(self, inst, in_process=False):
        system, s = inst.data
        params = core.SolverParams(seed=s, **C3_PARAMS)
        return core.full_sum(system, params, randomized.RngStream(s))

    def check(self, inst, result):
        return result == oracle.brute_Z(inst.data[0])

    def excusable(self, inst, result):
        # C3 bounds the share of wrong sums, in either direction
        return True


class TransformBulk(Workload):
    name = "transform-bulk"
    why = ("evaluate->interpolate round trips on large trimmed sets and at "
           "q=64, 81: per-point kernel cost and per-field table setup")
    salt = 303
    fields = (2, 3, 4, 5, 8, 9, 16, 64, 81)
    per_shape = 2
    terms = 12
    grid_compare = True
    setup_samples = 7

    def shapes(self):
        # (q, n, delta, b): |T| between 1e3 and 4e4, full grid q^n <= 2^18
        # so the dense oracle stays cheap; q = 64, 81 at full degree
        return [(2, 18, 5, 2), (2, 18, 4, 0), (3, 10, 6, 1), (4, 8, 6, 1),
                (5, 7, 7, 1), (8, 5, 9, 1), (9, 5, 10, 1), (16, 4, 14, 1),
                (64, 2, 126, 0), (81, 2, 160, 0)]

    def make(self, rng, shape):
        q, n, delta, b = shape
        return Instance(shape, random_sparse_poly(rng, q, n, delta, self.terms))

    def call(self, inst, in_process=False):
        _, _, delta, b = inst.shape
        ev = transform.evaluate_trimmed(inst.data, delta, b)
        return ev.values, transform.interpolate_trimmed(ev)

    def check(self, inst, result):
        q, n, delta, b = inst.shape
        values, back = result
        pts = mpoly.point_matrix(q, n, delta, b)
        flat = pts @ (q ** np.arange(n - 1, -1, -1, dtype=np.int64))
        dense = oracle.grid_evaluate(inst.data)
        return back == inst.data and np.array_equal(values, dense[flat])

    def encode(self, result):
        values, back = result
        return values.astype("<i8").tobytes() + repr(back.terms()).encode()

    def same(self, a, b):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]


class CliCnf(Workload):
    name = "cli-cnf"
    why = ("fqsolve reduce-cnf, count-roots and solve as subprocesses: "
           "per-process import and field setup, parsing, the reduction and "
           "the leaf-only solve path with its VV trials")
    salt = 404
    fields = (2, 3, 4)
    per_shape = 2
    # C4 requires at least 99 of 100 decisions correct
    allowance = 1 / 100
    # every call is a child process
    calls_in_process = False
    # bare imports of fqsolve.cli are cheap, so take more of them
    setup_samples = 9
    steps = ("reduce-cnf", "count-roots", "solve")

    def shapes(self):
        # (q, boolean variables, clauses)
        return [(2, 5, 12), (3, 5, 12), (4, 6, 14)]

    def make(self, rng, shape):
        q, nv, nc = shape
        return Instance(shape, random_cnf_text(rng, nv, nc))

    def _steps(self, formulas: list[Instance]) -> list[Instance]:
        # one call per CLI subprocess; the steps of a formula run in order
        return [Instance(c.shape + (step,), c.data)
                for c in formulas for step in self.steps]

    def corpus(self, seed):
        return self._steps(super().corpus(seed))

    def warmups(self, seed):
        return self._steps(super().warmups(seed))

    def prepare(self, instances, workdir):
        os.makedirs(workdir, exist_ok=True)
        counts: dict[str, int] = {}
        for i, inst in enumerate(instances):
            stem = os.path.join(workdir, f"f{i // len(self.steps)}")
            with open(stem + ".cnf", "w", encoding="utf-8") as fh:
                fh.write(inst.data)
            if inst.data not in counts:
                counts[inst.data] = brute_sat_count(inst.data)
            inst.truth = counts[inst.data]
            inst.argv = self._argv(inst.shape, stem)

    def _argv(self, shape, stem):
        q, step = shape[0], shape[-1]
        if step == "reduce-cnf":
            return ["reduce-cnf", stem + ".cnf", stem + ".pes", "--q", str(q),
                    "--delta", "1", "--parsimonious"]
        if step == "count-roots":
            return ["count-roots", stem + ".pes"]
        return ["solve", stem + ".pes", "--kappa", "1/100",
                "--lambda", "1/100"]

    def call(self, inst, in_process=False):
        if in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = fqsolve.cli.main(inst.argv)
            return code, out.getvalue()
        return run_process([sys.executable, "-m", "fqsolve.cli"] + inst.argv,
                           timeout=120)

    def check(self, inst, result):
        code, stdout = result
        step = inst.shape[-1]
        if step == "reduce-cnf":
            return code == 0 and stdout == ""
        if step == "count-roots":
            return code == 0 and stdout == f"{inst.truth}\n"
        sat = inst.truth > 0
        return (code, stdout) == ((10, "SAT\n") if sat else (20, "UNSAT\n"))

    def excusable(self, inst, result):
        # isolation errs one way only: it can miss every root of a SAT
        # system; reduce-cnf and count-roots are exact
        return inst.shape[-1] == "solve" and inst.truth > 0 and \
            result == (20, "UNSAT\n")


# The benchmark's workloads, in BENCHMARK.json order.
WORKLOADS = {w.name: w for w in (FullSumRecursive(), TransformBulk(),
                                 CliCnf())}
