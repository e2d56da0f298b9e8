"""Tests of the benchmark itself (not part of the repository's test suite).

  PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fqsolve import core, mpoly, transform  # noqa: E402


class SmallTransform(workloads.TransformBulk):
    """transform-bulk on small shapes, one per field kind."""

    per_shape = 1

    def shapes(self):
        return [(2, 6, 3, 1), (3, 4, 4, 0), (4, 3, 5, 1)]


class SmallFullSum(workloads.FullSumRecursive):
    per_shape = 1

    def shapes(self):
        return [(2, 6, 3, 2)]


class SmallCli(workloads.CliCnf):
    per_shape = 1

    def shapes(self):
        return [(2, 4, 6)]


def _canon(inst) -> str:
    data = inst.data
    if isinstance(data, tuple):
        return f"{inst.shape} {mpoly.format_pes(data[0])} {data[1]}"
    if isinstance(data, mpoly.Polynomial):
        return f"{inst.shape} {data.terms()}"
    return f"{inst.shape} {data}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_instances(name):
    wl = workloads.WORKLOADS[name]
    a = [_canon(i) for i in wl.corpus(7)]
    assert a == [_canon(i) for i in wl.corpus(7)]
    assert a != [_canon(i) for i in wl.corpus(8)]
    assert [_canon(i) for i in wl.warmups(7)] != \
        [_canon(i) for i in wl.warmups(8)]


def test_oracle_catches_injected_wrong_answer(monkeypatch):
    wl = SmallTransform()
    corpus = wl.corpus(3)
    assert run.run_untraced(wl, 0, corpus)["wrong"] == 0
    real = transform.interpolate_trimmed

    def off_by_one(ev, *args, **kwargs):
        poly = real(ev, *args, **kwargs)
        return poly.add(mpoly.Polynomial.constant(poly.field, poly.n, 1))

    monkeypatch.setattr(transform, "interpolate_trimmed", off_by_one)
    res = run.run_untraced(wl, 0, corpus)
    assert res["wrong"] == len(corpus)


def test_oracle_catches_wrong_full_sum(monkeypatch):
    wl = SmallFullSum()
    corpus = wl.corpus(3)
    real = core.full_sum
    monkeypatch.setattr(core, "full_sum",
                        lambda s, p, r: (real(s, p, r) + 1) % s.field.p)
    res = run.run_untraced(wl, 0, corpus)
    assert res["wrong"] == 1 and res["raised"] == 0


def _cli_answers(corpus) -> list:
    """The answers a correct fqsolve CLI gives on a prepared corpus."""
    out = []
    for inst in corpus:
        step = inst.shape[-1]
        if step == "reduce-cnf":
            out.append((0, ""))
        elif step == "count-roots":
            out.append((0, f"{inst.truth}\n"))
        else:
            out.append((10, "SAT\n") if inst.truth else (20, "UNSAT\n"))
    return out


def _judge(wl, corpus, results) -> bool:
    oracle = run._oracle(wl, corpus, results)
    return run.is_correct(wl, {"raised": 0, "unstable": 0, **oracle},
                          len(corpus))


def test_cli_allowance_covers_only_a_missed_sat(tmp_path):
    wl = workloads.CliCnf()
    unsat = workloads.Instance((2, 1, 2), "p cnf 1 2\n1 0\n-1 0\n")
    corpus = wl.corpus(5) + wl._steps([unsat])
    wl.prepare(corpus, str(tmp_path))
    good = _cli_answers(corpus)
    assert _judge(wl, corpus, good)
    by_step = {}
    for i, inst in enumerate(corpus):
        by_step.setdefault((inst.shape[-1], inst.truth > 0), i)
    # one SAT formula answered UNSAT: the one-sided isolation error
    missed = list(good)
    missed[by_step[("solve", True)]] = (20, "UNSAT\n")
    assert _judge(wl, corpus, missed)
    # a wrong root count is never excused
    miscount = list(good)
    i = by_step[("count-roots", True)]
    miscount[i] = (0, f"{corpus[i].truth + 1}\n")
    assert not _judge(wl, corpus, miscount)
    # nor is a failed reduction
    broken = list(good)
    broken[by_step[("reduce-cnf", True)]] = (1, "")
    assert not _judge(wl, corpus, broken)
    # nor a false SAT
    false_sat = list(good)
    false_sat[by_step[("solve", False)]] = (10, "SAT\n")
    assert not _judge(wl, corpus, false_sat)
    # and two missed SATs exceed the allowance of one
    sat_solves = [i for i, inst in enumerate(corpus)
                  if inst.shape[-1] == "solve" and inst.truth > 0]
    twice = list(good)
    for i in sat_solves[:2]:
        twice[i] = (20, "UNSAT\n")
    assert len(sat_solves) >= 2 and not _judge(wl, corpus, twice)


def test_setup_samples_spread_over_the_loop():
    wl = SmallTransform()
    marks = []

    def sample():
        marks.append(len(marks))
        return float(len(marks))

    res = run.run_untraced(wl, 0.2, wl.corpus(3), sample, run.WallClock())
    assert res["detail"]["setup_samples"] == \
        [float(i + 1) for i in range(wl.setup_samples)]
    assert res["metrics"]["setup_s"] == (wl.setup_samples + 1) / 2
    assert res["detail"]["loop_s"] >= 0.2


def test_times_are_scaled_to_the_reference_speed():
    wl = SmallTransform()
    half_speed = run.Speed(lambda: 2 * run.REF_CAL_S)
    res = run.run_untraced(wl, 0.2, wl.corpus(3), lambda: 1.0, half_speed)
    m, wall = res["metrics"], res["detail"]["wall"]
    assert res["detail"]["speed_scale"] == 0.5
    assert m["setup_s"] == 0.5 and wall["setup_s"] == 1.0
    assert m["call_s_p50"] == pytest.approx(wall["call_s_p50"] / 2)
    assert m["call_s_tail"] == pytest.approx(wall["call_s_tail"] / 2)
    # scaled throughput counts call time only, so it is at least twice the
    # wall-clock rate over the loop
    assert m["calls_per_s"] >= 2 * wall["calls_per_s"]


def test_raising_call_counts_as_failed(monkeypatch):
    wl = SmallTransform()

    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(transform, "evaluate_trimmed", boom)
    res = run.run_untraced(wl, 0, wl.corpus(3))
    assert res["raised"] == len(wl.corpus(3))


@pytest.mark.parametrize("wl", [SmallTransform(), SmallFullSum()],
                         ids=lambda w: w.name)
def test_traced_and_untraced_digests_match(wl):
    corpus = wl.corpus(5)
    plain = run.run_untraced(wl, 0, corpus)
    traced = run.run_traced(wl, 0, corpus, tracer.Tracer(), {})
    assert plain["digest"] == traced["digest"]
    assert plain["wrong"] == traced["wrong"] == 0


def test_cli_subprocess_and_in_process_digests_match(tmp_path):
    wl = SmallCli()
    corpus = wl.corpus(5)
    wl.prepare(corpus, str(tmp_path))
    plain = run.run_untraced(wl, 0, corpus)
    traced = run.run_traced(wl, 0, corpus, tracer.Tracer(), {})
    assert plain["digest"] == traced["digest"]
    assert plain["wrong"] == traced["wrong"] == 0
    assert traced["metrics"]["cli.main.self_s"] > 0


def _attributes() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fqsolve" or name.startswith("fqsolve."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for owner, attr in tracer.patch_targets():
        out[(repr(owner), attr)] = getattr(owner, attr)
    return out


def test_tracer_restores_every_patch():
    before = _attributes()
    wl = SmallFullSum()
    t = tracer.Tracer()
    with t:
        patched = _attributes()
    assert sum(1 for k in before if patched[k] is not before[k]) >= \
        len(tracer.patch_targets())
    run.run_traced(wl, 0, wl.corpus(2), t, {})
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    # only counters may differ, never a function
    assert changed == [("fqsolve.transform", "FIELD_OPS")]


@pytest.mark.parametrize("wl", [SmallTransform(), SmallFullSum()],
                         ids=lambda w: w.name)
def test_layer_counts_repeat_exactly(wl):
    corpus = wl.corpus(9)
    run.run_untraced(wl, 0, corpus)    # warm every cache first
    a = run.run_traced(wl, 0, corpus, tracer.Tracer(), {})["metrics"]
    b = run.run_traced(wl, 0, corpus, tracer.Tracer(), {})["metrics"]
    counts = [k for k in tracer.COUNT_METRICS if a[k]]
    assert "field.apply.calls" in counts
    assert "transform.evaluate.ops_per_point" in counts
    assert {k: a[k] for k in tracer.COUNT_METRICS} == \
        {k: b[k] for k in tracer.COUNT_METRICS}
    assert set(a) == set(tracer.LAYER_UNITS)


def test_partial_sum_depths_and_leaves():
    wl = SmallFullSum()
    m = run.run_traced(wl, 0, wl.corpus(4), tracer.Tracer(), {})["metrics"]
    # (2,6,3,2) at kappa=3/10: one recursive level, then t leaves
    assert m["core.partial_sum.depth0.self_s"] > 0
    assert m["core.partial_sum.depth1.self_s"] > 0
    assert m["core.leaf.calls"] == m["core.partial_sum.calls"] - 1
    assert m["randomized.razborov_smolensky.calls"] == m["core.leaf.calls"]


def test_tail_leaves_ten_samples_above():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert sum(1 for t in times if t > value) == 10
    assert pct == 90.0


def _record(workload, seed, value, digest="d"):
    return {"workload": workload, "seed": seed, "trace": 0, "digest": digest,
            "metrics": {"call_s_p50": value}}


def test_compare_flags_regression_unresolved_and_output_change():
    metric = [{"name": "call_s_p50", "unit": "s", "better": "lower",
               "bound": 0.1}]
    before = [_record("w", s, 1.0 + 0.01 * s) for s in range(5)]
    same = [_record("w", s, 1.0 + 0.01 * s) for s in range(5)]
    lines, bad = compare.compare(before, same, metric)
    assert not bad and "ok" in lines[1]
    slower = [_record("w", s, 1.5 + 0.01 * s) for s in range(5)]
    lines, bad = compare.compare(before, slower, metric)
    assert bad and "regression" in lines[1]
    noisy = [_record("w", s, v)
             for s, v in enumerate([0.5, 0.8, 1.0, 1.3, 1.6])]
    lines, bad = compare.compare(before, noisy, metric)
    assert not bad and "unresolved" in lines[1]
    # a median beyond the bound is a regression however wide the spread
    noisy_slow = [_record("w", s, v) for s, v in enumerate([0.5, 1, 2, 3, 4])]
    lines, bad = compare.compare(before, noisy_slow, metric)
    assert bad and "regression" in lines[1]
    changed = [_record("w", s, 1.0, digest="x" if s == 2 else "d")
               for s in range(5)]
    lines, bad = compare.compare(before, changed, metric)
    assert bad and "output changed on seeds [2]" in lines[2]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    import shutil
    import subprocess
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "fullsum-recursive", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
