"""Batch command-line interface.

Subcommands: solve, count-roots, full-sum, partial-sum, reduce-cnf,
exponent-table, selftest.  `solve` exits 10 for SAT and 20 for UNSAT
(SAT-competition convention); parse and I/O failures exit 1 with a
one-line diagnostic on stderr.  The seed comes from --seed, falling back
to the FQSOLVE_SEED environment variable, then 0; it must lie in
0..2^64-1.  --threads is still accepted and has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis, mpoly, oracle, reduction
from .core import SolverParams, full_sum, partial_sum, solve_pes
from .errors import (DimacsFormatError, FqsolveError, InvalidParamsError,
                     PesFormatError)
from .randomized import RngStream

EXIT_SAT = 10
EXIT_UNSAT = 20


def _fraction(text: str) -> Fraction:
    # Fraction builds 10^e exactly for text like 1e9999999, so exponents
    # past int()'s 4300-digit limit are refused before it runs, and terms
    # longer than that, which no message could print, after
    _, marker, exponent = text.strip().lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdigit() and (len(digits) > 4 or int(digits) > 4300):
        raise argparse.ArgumentTypeError(
            f"exponent of {text!r} exceeds 4300 in magnitude")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) >= 10 ** 4300:
        raise argparse.ArgumentTypeError(
            f"{text!r} has a term of over 4300 digits")
    return value


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", type=_fraction, default=None,
                     help="initial split fraction, 0 < kappa < 1/(2d-1)")
    sub.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                     help="per-level decrement fraction, 0 < lambda <= kappa")
    sub.add_argument("--t-override", type=int, default=None,
                     help="repetition count (default ceil(96*n*ln q))")
    sub.add_argument("--outer-reps", type=int, default=None,
                     help="isolation trials (default ceil(9*n))")
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit seed (default: FQSOLVE_SEED or 0)")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored")
    sub.add_argument("--format", choices=["text", "json-lines"],
                     default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqsolve",
        description="Solve, sum and analyze polynomial equation systems "
                    "over finite fields.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="decide satisfiability; exit 10=SAT, "
                                      "20=UNSAT")
    p.add_argument("pes", help="system in PES text format")
    _add_solver_flags(p)

    p = subs.add_parser("count-roots",
                        help="exact common-root count by brute force")
    p.add_argument("pes")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")

    p = subs.add_parser("full-sum",
                        help="randomized field sum of the indicator")
    p.add_argument("pes")
    _add_solver_flags(p)

    p = subs.add_parser("partial-sum",
                        help="randomized partial-sum polynomial")
    p.add_argument("pes")
    p.add_argument("--beta", type=int, required=True,
                   help="number of trailing variables summed out")
    _add_solver_flags(p)

    p = subs.add_parser("reduce-cnf",
                        help="reduce a DIMACS CNF to a polynomial system")
    p.add_argument("cnf")
    p.add_argument("out", help="output path for the PES text")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--parsimonious", action="store_true")

    p = subs.add_parser("exponent-table",
                        help="CSV of running-time exponents")
    p.add_argument("--qmax", type=int, default=9)
    p.add_argument("--dmax", type=int, default=4)

    subs.add_parser("selftest", help="run the embedded oracle-equivalence "
                                     "suite; nonzero exit on failure")
    return parser


def _resolve_seed(args) -> int:
    """--seed, else FQSOLVE_SEED, else 0; RngStream rejects seeds outside
    the unsigned 64-bit range."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FQSOLVE_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidParamsError(
            f"FQSOLVE_SEED is not an integer: {env!r}") from None


def _params(args) -> SolverParams:
    return SolverParams(kappa=args.kappa, lam=args.lam,
                        t_override=args.t_override,
                        outer_reps=args.outer_reps, seed=_resolve_seed(args))


def _read_text(path: str, error: type[FqsolveError]) -> str:
    """The file's text; bytes that are not UTF-8 raise `error`."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 (byte {exc.start})") from None


def _load_system(path: str) -> mpoly.PolySystem:
    return mpoly.parse_pes(_read_text(path, PesFormatError))


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json-lines":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            system = _load_system(args.pes)
            sat = solve_pes(system, _params(args))
            _emit(args, {"result": "SAT" if sat else "UNSAT"},
                  "SAT" if sat else "UNSAT")
            return EXIT_SAT if sat else EXIT_UNSAT

        if args.command == "count-roots":
            system = _load_system(args.pes)
            rc = oracle.count_common_roots(system)
            _emit(args, {"count": rc.count}, str(rc.count))
            return 0

        if args.command == "full-sum":
            system = _load_system(args.pes)
            params = _params(args)
            z = full_sum(system, params, RngStream(params.seed))
            _emit(args, {"full_sum": z}, str(z))
            return 0

        if args.command == "partial-sum":
            system = _load_system(args.pes)
            params = _params(args)
            zp = partial_sum(system, args.beta, params,
                             RngStream(params.seed))
            if zp.n == 0:  # a PES system has at least one variable
                zp = zp.embed(1, [])
            out = mpoly.PolySystem(system.field, zp.n, [zp],
                                   max(zp.degree(), 1))
            pes = mpoly.format_pes(out)
            _emit(args, {"partial_sum": pes}, pes.removesuffix("\n"))
            return 0

        if args.command == "reduce-cnf":
            cnf = reduction.parse_dimacs(
                _read_text(args.cnf, DimacsFormatError))
            system = reduction.reduce_cnf(cnf, args.q, args.delta,
                                          args.parsimonious)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(mpoly.format_pes(system))
            return 0

        if args.command == "exponent-table":
            reports = analysis.exponent_table(args.qmax, args.dmax)
            sys.stdout.write(analysis.format_exponent_csv(reports))
            return 0

        if args.command == "selftest":
            return _selftest()
    except FqsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def _selftest() -> int:
    """Quick oracle-equivalence sweep across the stack."""
    import numpy as np

    from .field import make_field
    from .oracle import brute_Z, count_common_roots
    from .transform import evaluate_trimmed, interpolate_trimmed

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"selftest {name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    for q in (2, 3, 4, 5, 8, 9):
        f = make_field(q)
        ok = all(f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                 and f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                 for a in range(q) for b in range(q) for c in range(q))
        ok = ok and all(f.pow(a, q) == a for a in range(q))
        check(f"field-axioms-q{q}", ok)

    rng = np.random.default_rng(7)

    def transform_cases():
        for _ in range(40):
            q = int(rng.choice([2, 3, 4, 5]))
            n = int(rng.integers(1, 5))
            delta = int(rng.integers(0, min(6, n * (q - 1)) + 1))
            yield q, n, delta, int(rng.integers(0, n + 1))
        # full-degree sets with b < n, which take the direct frames
        yield from ((2, 3, 2, 1), (3, 3, 4, 1), (4, 2, 5, 1))

    ok = True
    for q, n, delta, b in transform_cases():
        f = make_field(q)
        pts = mpoly.point_matrix(q, n, delta, 0)
        take = rng.integers(0, len(pts), size=min(6, len(pts)))
        pairs = [(tuple(int(v) for v in pts[i]), int(rng.integers(1, q)))
                 for i in take]
        poly = mpoly.Polynomial.from_terms(f, n, pairs)
        back = interpolate_trimmed(evaluate_trimmed(poly, delta, b))
        ok = ok and back == poly
    check("transform-roundtrip", ok)

    ok = True
    for seed in range(6):
        srng = np.random.default_rng(100 + seed)
        f = make_field(2)
        n = 4
        pts = mpoly.point_matrix(2, n, 2, 0)
        polys = []
        for _ in range(3):
            take = srng.integers(0, len(pts), size=4)
            polys.append(mpoly.Polynomial.from_terms(
                f, n, [(tuple(int(v) for v in pts[i]), 1) for i in take]))
        system = mpoly.PolySystem(f, n, polys, 2)
        params = SolverParams(seed=seed)
        got = full_sum(system, params, RngStream(seed))
        ok = ok and got == brute_Z(system)
    check("full-sum-vs-brute", ok)

    cnf = reduction.parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    system = reduction.reduce_cnf(cnf, 3, 1, parsimonious=True)
    sat_count = sum(1 for bits in range(8)
                    if (bits & 1 or not bits & 2) and (bits & 2 or bits & 4))
    check("reduction-parsimony",
          count_common_roots(system).count == sat_count)

    rep = analysis.zeta(2, 2)
    check("exponent-eta22",
          0.6942 <= rep.zeta <= 0.6955 and rep.zeta <= rep.theorem1_bound)

    print(f"selftest: {'all ok' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 2


def main_entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    main_entry()
