#!/usr/bin/env python3
"""fqsolve benchmark: seeded, closed-loop, single-process workloads.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all [--repeat K] [--out FILE]
  python3 bench/run.py compare BEFORE.jsonl AFTER.jsonl

One client issues calls back to back.  Untraced runs report the end-to-end
metrics; traced runs (--trace 1) patch the program from the outside (see
tracer.py) and report the per-layer metrics.  End-to-end times are scaled
to a reference machine speed (see Speed).  Every result is checked
against fqsolve's brute-force oracles outside the timed region.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TAIL_BEYOND = 10           # samples the tail percentile must leave above it
CAL_SMALL_ITERS = 750      # iterations of the calibration loop's two parts
CAL_LARGE_ITERS = 12
# the calibration loop's median time on the 2-vCPU Xeon VM that recorded
# the baseline, so that scaled times read close to that VM's wall seconds
REF_CAL_S = 0.009
CAL_EVERY_S = 0.3          # seconds between calibrations in the timed loop
CAL_WINDOW = 3             # calibrations whose median sets the speed

END_TO_END_UNITS = {
    "call_s_p50": "s",
    "call_s_tail": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _use_src() -> bool:
    """Put src/ first on the import path of this process and its children."""
    if not (SRC / "fqsolve" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return True


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            **{v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it."""
    s = sorted(times)
    rank = max(len(s) - TAIL_BEYOND, 1)
    return s[rank - 1], 100.0 * rank / len(s)


def _setup(wl, seed: int, workdir: Path, in_process: bool) -> None:
    from fqsolve import field
    for q in wl.fields:
        field.make_field(q)
    warm = wl.warmups(seed)
    wl.prepare(warm, str(workdir / "warm"))
    for inst in warm:
        wl.call(inst, in_process)


def _child_setup(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _import_time() -> float:
    from workloads import run_process
    t0 = time.perf_counter()
    code, _ = run_process([sys.executable, "-c", "import fqsolve.cli"], 60)
    if code != 0:
        raise RuntimeError(f"import fqsolve.cli exited {code}")
    return time.perf_counter() - t0


class CalibrationLoop:
    """A fixed loop in the benchmark's own code, so that no change to
    fqsolve changes it: small numpy operations with Python arithmetic
    around them, as in fqsolve's inner loops, then in-place passes over a
    512 KiB array, which also feel a neighbour's pressure on the caches.
    The arrays are made once, so the loop allocates no pages."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.arange(64, dtype=np.int64)
        self.large = np.arange(1 << 16, dtype=np.int64)
        self.out = np.empty_like(self.large)

    def __call__(self) -> float:
        """Wall seconds of one run of the loop."""
        np, small, large, out = self.np, self.small, self.large, self.out
        s = 0
        for i in range(CAL_SMALL_ITERS // 10):   # untimed: wake the caches
            s += int((small * i % 7).sum())
        t0 = time.perf_counter()
        for i in range(CAL_SMALL_ITERS):
            s += int((small * i % 7).sum())
        for i in range(CAL_LARGE_ITERS):
            np.multiply(large, i, out=out)
            np.remainder(out, 7, out=out)
            s += int(out.sum())
        return time.perf_counter() - t0


class Speed:
    """The machine's current speed, from the calibration loop.

    A shared VM runs the same code up to ~40% slower for stretches of
    seconds to minutes.  Scaling every measured wall time by
    REF_CAL_S / (median of the last CAL_WINDOW calibration times) turns it
    into seconds at the reference speed, which cancels most of that swing
    but none of a change in fqsolve's own speed."""

    def __init__(self, loop=None):
        self.loop = loop or CalibrationLoop()
        self.recent: list[float] = []
        self.last = -math.inf
        self.spent = 0.0         # wall seconds spent calibrating

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.recent = (self.recent + [self.loop()])[-CAL_WINDOW:]
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.calibrate()

    def scale(self) -> float:
        return REF_CAL_S / statistics.median(self.recent)


class WallClock(Speed):
    """No scaling, for workloads whose calls run in child processes: a
    calibration in the parent, which sat idle while the child ran, does
    not see the child's speed (it read 20% slow on some runs and not on
    others)."""

    def calibrate(self) -> None:
        pass

    def scale(self) -> float:
        return 1.0


class Raised(str):
    """The result of a call that raised: the exception's repr."""


def _timed_call(wl, inst, in_process: bool):
    t0 = time.perf_counter()
    try:
        result = wl.call(inst, in_process)
    except Exception as exc:  # a raise is a failed call, not a crash
        result = Raised(repr(exc))
    return result, time.perf_counter() - t0


def _pass(wl, corpus, in_process: bool) -> tuple[list, float]:
    t0 = time.perf_counter()
    results = [_timed_call(wl, inst, in_process)[0] for inst in corpus]
    return results, time.perf_counter() - t0


def _is_raise(result) -> bool:
    return isinstance(result, Raised)


def digest(wl, results) -> str:
    h = hashlib.sha256()
    for r in results:
        blob = b"raised " + r.encode() if _is_raise(r) else wl.encode(r)
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def verdicts(wl, corpus, results) -> list[str]:
    """Oracle verdict per corpus instance (outside the timed region): "ok",
    "excused" (wrong in the one way the solver's error bound allows) or
    "wrong"."""
    out = []
    for inst, r in zip(corpus, results):
        if _is_raise(r):
            out.append("wrong")
        elif wl.check(inst, r):
            out.append("ok")
        else:
            out.append("excused" if wl.excusable(inst, r) else "wrong")
    return out


def _oracle(wl, corpus, results) -> dict:
    v = verdicts(wl, corpus, results)
    return {"wrong": len(v) - v.count("ok"), "excused": v.count("excused"),
            "wrong_shapes": [str(inst.shape) for inst, x in zip(corpus, v)
                             if x != "ok"]}


def is_correct(wl, res: dict, corpus_size: int) -> bool:
    """Nothing raised, every repeat agreed, and every wrong answer is
    excusable, with at most the workload's allowance of them."""
    allowed = math.ceil(wl.allowance * corpus_size)
    return (res["raised"] == 0 and res["unstable"] == 0
            and res["wrong"] == res["excused"] <= allowed)


def setup_sample(wl, args) -> float:
    """One set-up time: for the CLI workload a bare import of fqsolve.cli,
    which every CLI call pays again; otherwise a fresh set-up-only
    interpreter."""
    return _import_time() if wl.name == "cli-cnf" else _child_setup(args)


def run_untraced(wl, seconds: float, corpus, sample_setup=None,
                 speed: Speed | None = None) -> dict:
    """Closed loop over the corpus: one whole pass, then on in rounds
    until `seconds` of loop time have passed and at least TAIL_BEYOND + 1
    calls were made.  The corpus is wl.per_shape rounds of one input per
    shape, so stopping at the end of a round keeps every shape equally
    often in the mix whatever the speed.

    Every call time and set-up time is scaled by `speed` (see Speed;
    WallClock leaves them as they are); calibrations run between calls,
    every CAL_EVERY_S seconds.  The wall-clock figures are kept under
    detail["wall"].

    With `sample_setup`, wl.setup_samples set-up times are taken, spread
    evenly over the loop (the first before the first call, the last at its
    end), so that setup_s sees the same stretch of the machine as the
    calls.  Neither they nor the calibrations count as loop time."""
    speed = speed or Speed()
    for _ in range(CAL_WINDOW):
        speed.calibrate()
    n = len(corpus)
    k = wl.setup_samples if sample_setup else 0
    setups: list[float] = []
    wall_setups: list[float] = []
    first: list = [None] * n
    times: list[float] = []
    wall_times: list[float] = []
    scales: list[float] = []
    unstable = 0
    paused = 0.0
    cal_before = speed.spent
    t_loop = time.perf_counter()
    i = 0

    def loop_s() -> float:
        return (time.perf_counter() - t_loop - paused
                - (speed.spent - cal_before))

    def take_due_setups(final: bool) -> None:
        nonlocal paused
        while len(setups) < k and (
                final or loop_s() >= seconds * len(setups) / max(k - 1, 1)):
            speed.calibrate()
            t0 = time.perf_counter()
            wall_setups.append(sample_setup())
            setups.append(wall_setups[-1] * speed.scale())
            paused += time.perf_counter() - t0

    round_len = n // wl.per_shape
    while i < n or i % round_len or i <= TAIL_BEYOND or loop_s() < seconds:
        take_due_setups(False)
        speed.calibrate_if_due()
        result, dt = _timed_call(wl, corpus[i % n], False)
        scales.append(speed.scale())
        wall_times.append(dt)
        times.append(dt * scales[-1])
        if i < n:
            first[i] = result
        elif not _is_raise(result) and not _is_raise(first[i % n]) and \
                not wl.same(result, first[i % n]):
            unstable += 1
        i += 1
    loop_time = loop_s()
    take_due_setups(True)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli-cnf" \
        else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    oracle = _oracle(wl, corpus, first)
    value, pct = tail(times)
    metrics = {"call_s_p50": statistics.median(times),
               "call_s_tail": value,
               "calls_per_s": len(times) / sum(times),
               "peak_rss_mb": peak_mb}
    wall = {"call_s_p50": statistics.median(wall_times),
            "call_s_tail": tail(wall_times)[0],
            "calls_per_s": len(times) / loop_time}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        wall["setup_s"] = statistics.median(wall_setups)
    return {
        "metrics": metrics, "attempted": len(times),
        "raised": sum(1 for r in first if _is_raise(r)), "unstable": unstable,
        "wrong": oracle["wrong"], "excused": oracle["excused"],
        "digest": digest(wl, first),
        "detail": {"wrong_shapes": oracle["wrong_shapes"],
                   "tail_pct": pct, "samples": len(times),
                   "tail_beyond": TAIL_BEYOND, "corpus": n,
                   "loop_s": loop_time, "setup_samples": setups,
                   "wall": wall, "scaled": not isinstance(speed, WallClock),
                   "speed_scale": statistics.median(scales),
                   "calibration_s": speed.spent},
    }


def run_traced(wl, seconds: float, corpus, tracer, setup_snap) -> dict:
    """Pairs of one untraced and one traced pass over the corpus, at least
    one pair, until `seconds` have passed."""
    from tracer import COUNT_METRICS, layer_metrics
    passes = []          # (untraced wall, traced wall, run records)
    first = None
    unstable = 0
    t_loop = time.perf_counter()
    while not passes or time.perf_counter() - t_loop < seconds:
        plain, plain_s = _pass(wl, corpus, True)
        tracer.install()
        try:
            traced, traced_s = _pass(wl, corpus, True)
        finally:
            tracer.uninstall()
        passes.append((plain_s, traced_s, tracer.take()))
        first = first or traced
        unstable += sum(1 for other in (plain, traced)
                        for a, b in zip(first, other)
                        if not (_is_raise(a) or _is_raise(b))
                        and not wl.same(a, b))
    tracer.install()
    try:
        oracle = _oracle(wl, corpus, first)
    finally:
        tracer.uninstall()
    check_snap = tracer.take()
    per_pass = [layer_metrics(setup_snap, recs, check_snap,
                              traced_s / plain_s - 1.0,
                              wl.grid_compare)
                for plain_s, traced_s, recs in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                unstable += 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return {
        "metrics": metrics, "attempted": 2 * len(corpus) * len(passes),
        "raised": sum(1 for r in first if _is_raise(r)), "unstable": unstable,
        "wrong": oracle["wrong"], "excused": oracle["excused"],
        "digest": digest(wl, first),
        "detail": {"wrong_shapes": oracle["wrong_shapes"],
                   "passes": len(passes), "corpus": len(corpus)},
    }


def run_one(args) -> int:
    from tracer import LAYER_UNITS, Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_tmp" / f"{wl.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        try:
            _setup(wl, args.seed, workdir, bool(tracer))
        finally:
            if tracer:
                tracer.uninstall()
        setup_own = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        corpus = wl.corpus(args.seed)
        wl.prepare(corpus, str(workdir / "run"))
        if tracer:
            res = run_traced(wl, args.seconds, corpus, tracer, tracer.take())
            units = LAYER_UNITS
        else:
            speed = Speed() if wl.calls_in_process else WallClock()
            res = run_untraced(wl, args.seconds, corpus,
                               lambda: setup_sample(wl, args), speed)
            res["detail"]["own_setup_s"] = setup_own
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    allowed = math.ceil(wl.allowance * len(corpus))
    failed = res["wrong"] + res["raised"] + res["unstable"]
    correct = is_correct(wl, res, len(corpus))
    wrong_frac = res["wrong"] / len(corpus)
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"corpus {len(corpus)}  attempted {res['attempted']}")
    for name, value in res["metrics"].items():
        extra = ""
        if name == "call_s_tail":
            d = res["detail"]
            extra = (f"  (p{d['tail_pct']:.1f} of {d['samples']} samples, "
                     f"{d['tail_beyond']} beyond)")
        wall = res["detail"].get("wall", {}).get(name)
        if wall is not None and res["detail"]["scaled"]:
            extra += f"  (wall clock {wall:.6g})"
        print(f"  {name:40s} {value:.6g} {units[name]}{extra}")
    if res["detail"].get("scaled"):
        print(f"  times above are scaled to the reference speed; the median "
              f"scale was {res['detail']['speed_scale']:.4g}")
    print(f"  {'wrong_frac':40s} {wrong_frac:.6g} ratio  "
          f"({res['wrong']}/{len(corpus)} corpus instances disagree with "
          f"the oracle, {res['excused']} of them within the solver's "
          f"error bound, {allowed} allowed; {res['raised']} raised, "
          f"{res['unstable']} unstable)")
    for shape in res["detail"]["wrong_shapes"]:
        print(f"  wrong answer on an instance of shape {shape}")
    print(f"  digest sha256:{res['digest']}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "attempted": res["attempted"], "failed": failed,
              "wrong_frac": wrong_frac, "digest": res["digest"],
              "metrics": res["metrics"], "detail": res["detail"], "env": env}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()}}))
    return 0


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each benchmark workload in a fresh interpreter, alternating the
    order."""
    from workloads import WORKLOADS
    names = list(WORKLOADS)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for rep in range(args.repeat):
        seed = args.seed + rep
        for name in (names if rep % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            if rep == 0:
                for k, v in res["metrics"].items():
                    total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25,
                        help="length of the timed loop (BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: runs per workload, "
                             "seeds seed..seed+repeat-1")
    parser.add_argument("--out", help="append one JSON record per run here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _use_src():
        print(f"error: no fqsolve sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
