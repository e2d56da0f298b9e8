import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fqsolve
from conftest import random_cnf, random_system
from fqsolve import PolySystem, make_field
from fqsolve.cli import build_parser, main
from fqsolve.mpoly import format_pes

UNSAT_PES = "pes 2 1 2\npoly 1\n1 1\npoly 2\n1 0\n1 1\n"
SAT_PES = "pes 3 2 1\npoly 2\n1 0 0\n1 1 1\n"  # X1*X2 + 1
EMPTY_PES = "pes 3 3 0\n"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "unsat.pes").write_text(UNSAT_PES)
    (tmp_path / "sat.pes").write_text(SAT_PES)
    (tmp_path / "empty.pes").write_text(EMPTY_PES)
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_limited(argv: list[str], child=("-m", "fqsolve.cli"),
                 stdin: str | None = None) -> subprocess.CompletedProcess:
    """A Python child, by default fqsolve argv, in a subprocess with a 1 GiB
    address space."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(fqsolve.__file__).parents[1]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run([sys.executable, *child, *argv], input=stdin,
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=120)


class TestSolve:
    def test_unsat_exit_20(self, workdir, capsys):
        code, out, _ = run(capsys, ["solve", str(workdir / "unsat.pes")])
        assert code == 20 and out == "UNSAT\n"

    def test_sat_exit_10(self, workdir, capsys):
        code, out, _ = run(capsys, ["solve", str(workdir / "sat.pes"),
                                    "--seed", "5"])
        assert code == 10 and out == "SAT\n"

    def test_json_lines(self, workdir, capsys):
        code, out, _ = run(capsys, ["solve", str(workdir / "unsat.pes"),
                                    "--format", "json-lines"])
        assert code == 20 and json.loads(out) == {"result": "UNSAT"}

    def test_env_seed_fallback(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("FQSOLVE_SEED", "123")
        code, out, _ = run(capsys, ["solve", str(workdir / "sat.pes")])
        assert code == 10


class TestCountRoots:
    def test_empty_system(self, workdir, capsys):
        code, out, _ = run(capsys, ["count-roots", str(workdir / "empty.pes")])
        assert code == 0 and out == "27\n"

    # a degree-2 system over GF(3343)^2: evaluation walks exponent planes
    # 0..2 of each axis, not all 3343; y = +-2 and x^2 + xy - 1 = 0
    def test_low_degree_over_a_large_grid(self, tmp_path):
        q = 3343
        pes = tmp_path / "low.pes"
        pes.write_text(f"pes {q} 2 2\npoly 3\n1 2 0\n1 1 1\n{q - 1} 0 0\n"
                       f"poly 2\n1 0 2\n{q - 4} 0 0\n")
        want = sum((x * x + x * y - 1) % q == 0
                   for x in range(q) for y in (2, q - 2))
        proc = _run_limited(["count-roots", str(pes)])
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"{want}\n", "")


class TestFullSum:
    def test_prints_field_element(self, workdir, capsys):
        code, out, _ = run(capsys, ["full-sum", str(workdir / "unsat.pes"),
                                    "--seed", "7"])
        assert code == 0 and out == "0\n"

    def test_threads_do_not_change_output(self, workdir, capsys):
        _, base, _ = run(capsys, ["full-sum", str(workdir / "sat.pes"),
                                  "--seed", "9", "--t-override", "20"])
        _, threaded, _ = run(capsys, ["full-sum", str(workdir / "sat.pes"),
                                      "--seed", "9", "--t-override", "20",
                                      "--threads", "4"])
        assert base == threaded


class TestPartialSum:
    def test_prints_polynomial(self, workdir, capsys):
        code, out, _ = run(capsys, ["partial-sum", str(workdir / "unsat.pes"),
                                    "--beta", "1", "--seed", "1"])
        assert code == 0
        assert out.splitlines()[0].startswith("pes 2 1 1")
        assert out.splitlines()[1] == "poly 0"  # unsatisfiable: zero sum

    def test_json_lines(self, workdir, capsys):
        argv = ["partial-sum", str(workdir / "sat.pes"), "--beta", "1",
                "--seed", "1"]
        _, text, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--format", "json-lines"])
        assert code == 0 and out.count("\n") == 1
        assert json.loads(out) == {"partial_sum": text}


class TestReduceCnf:
    def test_writes_parsable_output(self, workdir, capsys):
        out_path = workdir / "out.pes"
        code, _, _ = run(capsys, ["reduce-cnf", str(workdir / "f.cnf"),
                                  str(out_path), "--q", "3", "--delta", "1",
                                  "--parsimonious"])
        assert code == 0
        from fqsolve import count_common_roots, parse_pes
        system = parse_pes(out_path.read_text())
        # (x1 or x2) and (not x1) has exactly one satisfying assignment
        assert count_common_roots(system).count == 1


class TestExponentTable:
    def test_csv_shape_and_reference_row(self, capsys):
        code, out, _ = run(capsys, ["exponent-table", "--qmax", "2",
                                    "--dmax", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,d,kappa_star,zeta,theorem1_bound"
        row = lines[2].split(",")
        assert row[:2] == ["2", "2"]
        assert float(row[3]) <= 0.6955

    @pytest.mark.parametrize("argv", [["--qmax", "2", "--dmax", "20000"],
                                      ["--qmax", "10000", "--dmax", "1"],
                                      ["--qmax", str(10 ** 12)],
                                      ["--dmax", "-1"], ["--qmax", "-5"]])
    def test_refused_before_any_row(self, capsys, argv):
        # (qmax - 1) * dmax above analysis.CELL_LIMIT = 4096, or negative
        start = time.perf_counter()
        code, out, err = run(capsys, ["exponent-table", *argv])
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_table_prints_its_header_at_once(self, capsys):
        # no cells, so no prime power up to qmax is enumerated
        start = time.perf_counter()
        code, out, err = run(capsys, ["exponent-table", "--qmax",
                                      str(10 ** 9), "--dmax", "0"])
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (0, "q,d,kappa_star,zeta,theorem1_bound\n",
                                    "")

    def test_table_at_the_limit_is_accepted(self, capsys):
        from fqsolve.analysis import prime_powers
        code, out, _ = run(capsys, ["exponent-table", "--qmax", "4097",
                                    "--dmax", "1"])
        assert code == 0
        assert out.count("\n") == 1 + len(prime_powers(4097))


def test_exponent_table_matches_golden(capsys):
    code, out, _ = run(capsys, ["exponent-table", "--qmax", "16",
                                "--dmax", "6"])
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "exponent_table_q16_d6.csv"
    assert out == golden.read_text()


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["solve", "/no/such/file.pes"])
        assert code == 1 and out == "" and err.startswith("error:")

    def test_malformed_pes(self, workdir, capsys):
        bad = workdir / "bad.pes"
        bad.write_text("pes 2 1 1\npoly 1\n0 1\n")
        code, _, err = run(capsys, ["count-roots", str(bad)])
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("full-sum", "--kappa", "1/3"), ("solve", "--outer-reps", "0")],
        ids=["kappa", "outer-reps"])
    def test_invalid_params(self, workdir, capsys, command, flag, value):
        code, _, err = run(capsys, [command, str(workdir / "sat.pes"),
                                    flag, value])
        assert code == 1 and "error:" in err

    def test_reduce_cnf_delta_zero(self, workdir, capsys):
        code, out, err = run(capsys, ["reduce-cnf", str(workdir / "f.cnf"),
                                      str(workdir / "out.pes"),
                                      "--q", "2", "--delta", "0"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # block grids of 2^200 and 65536^2 points: refused before dec_table
    # allocates them
    @pytest.mark.parametrize("q, delta", [("2", "1/100"), ("65536", "1")])
    def test_reduce_cnf_block_grid_too_large(self, workdir, capsys, q, delta):
        code, out, err = run(capsys, ["reduce-cnf", str(workdir / "f.cnf"),
                                      str(workdir / "out.pes"),
                                      "--q", q, "--delta", delta])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # three literals in three blocks of 7 variables over GF(3): their
    # product has 2187^3 terms, refused before any of it is allocated
    def test_reduce_cnf_wide_clause_too_large(self, tmp_path):
        cnf, out_path = tmp_path / "wide.cnf", tmp_path / "out.pes"
        cnf.write_text("p cnf 30 1\n1 11 21 0\n")
        start = time.perf_counter()
        proc = _run_limited(["reduce-cnf", str(cnf), str(out_path),
                             "--q", "3", "--delta", "1/3"])
        assert time.perf_counter() - start < 1
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert not out_path.exists()

    # 2^(v*a) against q^(2*b) for delta = a/b, without building either
    @pytest.mark.parametrize("delta", ["1/1000000000", "1000000000000",
                                       "1000000000001/1000000000000"])
    def test_reduce_cnf_extreme_delta(self, workdir, capsys, delta):
        code, out, err = run(capsys, ["reduce-cnf", str(workdir / "f.cnf"),
                                      str(workdir / "out.pes"),
                                      "--q", "3", "--delta", delta])
        assert out == ""
        assert (code, err) == (0, "") or \
            code == 1 and err.startswith("error:") and err.count("\n") == 1

    # 4,000,000 header variables reduce to 4,000,000 field variables,
    # which no command reads back: refused before any block is built
    def test_reduce_cnf_too_many_variables(self, workdir, capsys):
        cnf, out_path = workdir / "wide.cnf", workdir / "out.pes"
        cnf.write_text("p cnf 4000000 1\n1 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["reduce-cnf", str(cnf), str(out_path),
                                      "--q", "2", "--delta", "1",
                                      "--parsimonious"])
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    # Fraction would build 10^e exactly; 1e-4300 has a 4301-digit term
    @pytest.mark.parametrize("argv", [
        ["reduce-cnf", "{cnf}", "{out}", "--q", "2", "--delta", "1e10000000"],
        ["full-sum", "{pes}", "--kappa", "1e-10000000"],
        ["full-sum", "{pes}", "--lambda", "1e-4300"]])
    def test_rational_with_huge_exponent(self, workdir, capsys, argv):
        argv = [a.format(cnf=workdir / "f.cnf", out=workdir / "out.pes",
                         pes=workdir / "sat.pes") for a in argv]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        assert "4300" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_rational_not_parsed(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["full-sum", str(workdir / "sat.pes"), "--kappa", value])
        assert exc.value.code == 2
        assert "not a rational" in capsys.readouterr().err

    def test_rational_in_exponent_notation(self):
        args = build_parser().parse_args(["full-sum", "x.pes",
                                          "--kappa", "1e-2"])
        assert args.kappa == Fraction(1, 100)

    @pytest.mark.parametrize("argv", [["count-roots", "{path}"],
                                      ["reduce-cnf", "{path}", "{out}",
                                       "--q", "2", "--delta", "1"]])
    def test_input_not_utf8(self, workdir, capsys, argv):
        bad = workdir / "bad.txt"
        bad.write_bytes(b"pes 2 1 1\n\xff\xfe\n")
        argv = [a.format(path=bad, out=workdir / "out.pes") for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exponent_keys_wider_than_int64(self, workdir, capsys):
        # 17 variables over GF(16) need 68-bit exponent keys
        pes = workdir / "wide.pes"
        pes.write_text("pes 16 17 1\npoly 1\n1 " + "0 " * 16 + "1\n")
        code, out, err = run(capsys, ["partial-sum", str(pes), "--beta", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # X1 over 70 variables: solve must refuse the 70-bit keys before it
    # builds any point matrix, so a 1 GiB address space is plenty
    def test_solve_key_width_checked_before_allocation(self, workdir):
        pes = workdir / "wide.pes"
        pes.write_text("pes 2 70 1\npoly 1\n1 1" + " 0" * 69 + "\n")
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(fqsolve.__file__).parents[1]))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        proc = subprocess.run(
            [sys.executable, "-m", "fqsolve.cli", "solve", str(pes)],
            capture_output=True, text=True, env=env, preexec_fn=limit,
            timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    # X1 over 31 variables of GF(3) fits 63-bit keys, but the solver's
    # first point set holds 3.4e11 entries: refused before it is built
    def test_solve_point_set_checked_before_allocation(self, workdir):
        pes = workdir / "x31.pes"
        pes.write_text("pes 3 31 1\npoly 1\n1 1" + " 0" * 30 + "\n")
        proc = _run_limited(["solve", str(pes)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    # X1 over 25 variables of GF(2) and over 2 of GF(3125): the oracle's
    # grid evaluation would hold about 5 int64 arrays of 2^25 points, or
    # 13 of 3125^2 over GF(5^5), over a GiB either way; refused first
    @pytest.mark.parametrize("text", [
        "pes 2 25 1\npoly 1\n1 1" + " 0" * 24 + "\n",
        "pes 3125 2 1\npoly 1\n1 1 0\n"], ids=["gf2-n25", "gf3125-n2"])
    def test_count_grid_checked_before_allocation(self, workdir, text):
        pes = workdir / "grid.pes"
        pes.write_text(text)
        proc = _run_limited(["count-roots", str(pes)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    # X1^3342 + X2^3342 over GF(3343)^2 fits the grid's working set, but
    # its evaluation walks every exponent plane, 2 * 3343^3 products, about
    # 17 minutes: refused before any allocation
    def test_count_walk_refused_at_once(self, tmp_path):
        pes = tmp_path / "high.pes"
        pes.write_text("pes 3343 2 1\npoly 2\n1 3342 0\n1 0 3342\n")
        start = time.perf_counter()
        proc = _run_limited(["count-roots", str(pes)])
        assert time.perf_counter() - start < 5
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    # X1 - 1 over the two largest supported orders, inside a 1 GiB address
    # space: count-roots builds only the powers x^0 and x^1 it reads and
    # counts the one root, and the transform frames of the solver commands
    # are refused before they are allocated
    @pytest.mark.parametrize("q", [65521, 65536])
    @pytest.mark.parametrize("command", ["count-roots", "full-sum", "solve",
                                         "partial-sum --beta 0"])
    def test_large_order_checked_before_allocation(self, workdir, command, q):
        pes = workdir / "large.pes"
        pes.write_text(f"pes {q} 1 1\npoly 2\n1 1\n{q - 1} 0\n")
        sub, *flags = command.split()
        proc = _run_limited([sub, str(pes), *flags])
        if sub == "count-roots":
            assert (proc.returncode, proc.stdout, proc.stderr) == \
                (0, "1\n", "")
            return
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_solve_below_the_entry_limit(self, workdir):
        pes = workdir / "x1031.pes"
        pes.write_text("pes 1031 1 1\npoly 2\n1 1\n1030 0\n")
        proc = _run_limited(["solve", str(pes)])
        assert proc.returncode == 10
        assert (proc.stdout, proc.stderr) == ("SAT\n", "")


    # the recursion's array sizes are checked before the system is
    # evaluated: X1*X2 + 1 over GF(3) has 9 leaf points
    def test_full_sum_vote_sizes_checked(self, workdir, capsys, monkeypatch):
        from fqsolve import field
        monkeypatch.setattr(field, "ENTRY_LIMIT", 8)
        code, out, err = run(capsys, ["full-sum", str(workdir / "sat.pes")])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSeedDomain:
    @pytest.mark.parametrize("seed, env", [("-1", None),
                                           (str(2 ** 64), None),
                                           (None, "abc")])
    def test_rejected_with_one_line_error(self, workdir, capsys, monkeypatch,
                                          seed, env):
        argv = ["solve", str(workdir / "sat.pes")]
        if seed is not None:
            argv += ["--seed", seed]
        if env is None:
            monkeypatch.delenv("FQSOLVE_SEED", raising=False)
        else:
            monkeypatch.setenv("FQSOLVE_SEED", env)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_largest_seed_is_accepted(self, workdir, capsys):
        code, out, _ = run(capsys, ["full-sum", str(workdir / "sat.pes"),
                                    "--seed", str(2 ** 64 - 1)])
        assert code == 0 and out.strip().isdigit()


class TestDeterminism:
    def test_identical_argv_identical_stdout(self, workdir, capsys):
        argv = ["full-sum", str(workdir / "sat.pes"), "--seed", "11",
                "--t-override", "25"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert all(line.startswith("selftest ") for line in lines[:-1])
        assert all(line.endswith(": ok") for line in lines[:-1])
        assert lines[-1] == "selftest: all ok"


class TestHelp:
    GOLDEN = pathlib.Path(__file__).parent / "golden"

    @pytest.mark.parametrize("sub", ["solve", "count-roots", "full-sum",
                                     "partial-sum", "reduce-cnf",
                                     "exponent-table", "selftest"])
    def test_subcommand_help_matches_golden(self, sub, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        golden = (self.GOLDEN / f"help_{sub.replace('-', '_')}.txt").read_text()
        assert out == golden

    def test_top_level_help_matches_golden(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert out == (self.GOLDEN / "help_top.txt").read_text()
        for sub in ("solve", "count-roots", "full-sum", "partial-sum",
                    "reduce-cnf", "exponent-table", "selftest"):
            assert sub in out


@st.composite
def _pes_texts(draw, qs=(2, 3, 4, 5, 7, 8, 9), ns=(1, 2, 3), ms=(0, 1, 2, 3),
               ds=(1, 2)):
    # by default one level and no vote: n <= 3
    q = draw(st.sampled_from(qs))
    n, m, d = (draw(st.sampled_from(ns)), draw(st.sampled_from(ms)),
               draw(st.sampled_from(ds)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if m == 0:
        return format_pes(PolySystem(make_field(q), n, [], d))
    return format_pes(random_system(rng, q, n, m, d))


@st.composite
def _cnf_texts(draw):
    n = draw(st.integers(1, 4))
    clauses = draw(st.lists(st.lists(
        st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1, max_size=3), max_size=4))
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


@st.composite
def _mutated(draw, texts):
    data = bytearray(draw(texts).encode())
    for _ in range(draw(st.integers(1, 4))):
        op, at = draw(st.sampled_from("rid")), draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        if op == "i":
            data.insert(at, byte)
        elif at < len(data):
            if op == "r":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


_JUNK = st.sampled_from(["", "x", "-1", "0", "1e5", "1/0", "--seed",
                         "é", "99999999999999999999999"])
_SEEDS = st.none() | st.integers(0, 2 ** 64).map(str) | st.text(
    st.characters(blacklist_characters="\x00", blacklist_categories=["Cs"]),
    max_size=30)
_SOLVER_FLAGS = {
    "--kappa": ["3/10", "1/5", "1/2", "0", "1"],
    "--lambda": ["3/20", "1/10", "3/10"],
    "--t-override": ["1", "3"],
    "--outer-reps": ["1", "2"],
    "--seed": ["0", "7", str(2 ** 64 - 1), str(2 ** 64)],
    "--threads": ["1", "2"],
    "--format": ["text", "json-lines"],
}
_FLAGS = {
    "solve": _SOLVER_FLAGS,
    "full-sum": _SOLVER_FLAGS,
    "partial-sum": dict(_SOLVER_FLAGS, **{"--beta": ["0", "1", "2", "4"]}),
    "count-roots": {"--format": ["text", "json-lines"]},
    "reduce-cnf": {"--q": ["2", "3", "4", "5", "6"],
                   "--delta": ["1/3", "1/2", "1", "2"],
                   "--parsimonious": []},
    "exponent-table": {"--qmax": ["2", "5", "16"], "--dmax": ["1", "2", "4"]},
}


def _sometimes(data, junk, usual):
    """One draw from junk in about a fifth of the draws, else from usual."""
    return data.draw(junk if data.draw(st.integers(0, 4)) == 0 else usual)


def _assert_result_or_one_error_line(code: int, err: str) -> None:
    assert code in (0, 1, 10, 20)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")


def _mutate(rng, data: bytes) -> bytes:
    """1-4 random byte replacements, insertions or deletions."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        op, at = rng.integers(3), int(rng.integers(0, len(data) + 1))
        byte = int(rng.integers(0, 256))
        if op == 0:
            data.insert(at, byte)
        elif at < len(data):
            if op == 1:
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


# calls cli.main once per argv read as a json list from stdin and prints
# each exit code and stderr; an uncaught error ends the child with a
# traceback on its own stderr
_BATCH_CHILD = """
import contextlib, io, json, sys
from fqsolve.cli import main
report = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        report.append((main(argv), err.getvalue()))
print(json.dumps(report))
"""


class TestRobustness:
    # every subcommand but selftest, on valid, mutated and random input
    # files, flags with valid and junk values and any FQSOLVE_SEED: each
    # run returns an exit code or argparse's SystemExit(2), and exit 1
    # comes with exactly one `error: ` line
    @given(st.sampled_from(sorted(_FLAGS)), st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_ends_in_a_result_or_one_error_line(self, tmp_path, capsys,
                                                     sub, data):
        valid = _cnf_texts() if sub == "reduce-cnf" else _pes_texts()
        source = tmp_path / "input"
        source.write_bytes(data.draw(st.one_of(
            valid.map(str.encode), _mutated(valid), st.binary(max_size=200))))
        path = _sometimes(data, st.sampled_from(
            [str(tmp_path / "missing"), str(tmp_path)]), st.just(str(source)))
        argv = [sub] if sub == "exponent-table" else [sub, path]
        if sub == "reduce-cnf":
            argv.append(_sometimes(data, st.just(str(tmp_path)),
                                   st.just(str(tmp_path / "out.pes"))))
        flags = _FLAGS[sub]
        chosen = data.draw(st.lists(st.sampled_from(sorted(flags)),
                                    max_size=4))
        required = {"partial-sum": ["--beta"],
                    "reduce-cnf": ["--q", "--delta"]}.get(sub, [])
        for flag in _sometimes(data, st.just(chosen),
                               st.just(required + chosen)):
            argv.append(flag)
            if flags[flag]:
                argv.append(_sometimes(data, _JUNK,
                                       st.sampled_from(flags[flag])))
        if data.draw(st.integers(0, 9)) == 0:
            argv.insert(data.draw(st.integers(0, len(argv))), data.draw(_JUNK))
        env = data.draw(_SEEDS)
        with pytest.MonkeyPatch.context() as mp:
            if env is None:
                mp.delenv("FQSOLVE_SEED", raising=False)
            else:
                mp.setenv("FQSOLVE_SEED", env)
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                return
            err = capsys.readouterr().err
        _assert_result_or_one_error_line(code, err)

    # systems of n = 4 and 5 variables and m*d >= 4, which recurse, so
    # the runs that parse reach the votes and their re-evaluation
    @given(st.sampled_from(["full-sum", "partial-sum", "solve"]), st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_votes_end_in_a_result_or_one_error_line(self, tmp_path, capsys,
                                                     sub, data):
        valid = _pes_texts(qs=(2, 3, 4, 5), ns=(4, 5), ms=(2, 3), ds=(2,))
        source = tmp_path / "input"
        source.write_bytes(_sometimes(data, _mutated(valid),
                                      valid.map(str.encode)))
        argv = [sub, str(source), "--t-override",
                data.draw(st.sampled_from(["1", "2", "3"]))]
        if sub == "solve":
            argv += ["--outer-reps", data.draw(st.sampled_from(["1", "2"]))]
        if sub == "partial-sum":
            argv += ["--beta", str(data.draw(st.integers(0, 5)))]
        capsys.readouterr()
        code = main(argv)
        _assert_result_or_one_error_line(code, capsys.readouterr().err)

    # a fixed batch of valid, mutated and random-byte files for the five
    # file subcommands, in one child process under a 1 GiB address space:
    # an out-of-memory crash ends the child instead of being caught here
    def test_batch_under_a_memory_cap(self, tmp_path):
        rng = np.random.default_rng(2024)
        argvs = []
        for i in range(100):
            sub = ["solve", "count-roots", "full-sum", "partial-sum",
                   "reduce-cnf"][i % 5]
            if sub == "reduce-cnf":
                cnf = random_cnf(rng, int(rng.integers(1, 5)),
                                 int(rng.integers(0, 5)))
                text = f"p cnf {cnf.n_vars} {len(cnf.clauses)}\n" + "".join(
                    " ".join(map(str, c)) + " 0\n" for c in cnf.clauses)
            else:
                q, n = int(rng.choice([2, 3, 4, 5])), int(rng.integers(1, 6))
                text = format_pes(random_system(
                    rng, q, n, int(rng.integers(1, 4)),
                    int(rng.integers(1, 3))))
            kind = i // 5 % 3
            data = (text.encode() if kind == 0 else
                    _mutate(rng, text.encode()) if kind == 1 else
                    rng.bytes(int(rng.integers(0, 200))))
            path = tmp_path / f"input{i}"
            path.write_bytes(data)
            argv = [sub, str(path)]
            if sub == "reduce-cnf":
                argv += [str(tmp_path / "out.pes"), "--q",
                         str(rng.choice([2, 3, 4, 5])), "--delta",
                         str(rng.choice(["1/3", "1/2", "1"]))]
            elif sub != "count-roots":
                argv += ["--t-override", str(rng.integers(1, 4))]
            if sub == "solve":
                argv += ["--outer-reps", str(rng.integers(1, 3))]
            if sub == "partial-sum":
                argv += ["--beta", str(rng.integers(0, 6))]
            argvs.append(argv)
        proc = _run_limited([], child=("-c", _BATCH_CHILD),
                            stdin=json.dumps(argvs))
        assert "Traceback" not in proc.stderr
        assert "MemoryError" not in proc.stderr
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert len(report) == len(argvs)
        for code, err in report:
            _assert_result_or_one_error_line(code, err)
        assert {code for code, _ in report} >= {0, 1, 10, 20}
