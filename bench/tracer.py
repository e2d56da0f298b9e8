"""Outside-in per-layer tracing by monkeypatching fqsolve's public functions.

The program itself carries no tracing.  While a `Tracer` is installed,
the functions and methods listed in `_FUNCTIONS` / `_METHODS` are replaced
in every fqsolve module that holds them (by identity, so names imported
with `from .x import f` are covered too), and the closures that
`FieldSpec.compile_matrix` returns are wrapped where the transform fetches
them from its cache.  Each wrapper records one span: calls, inclusive
time, self time (inclusive minus child spans) and, where the layer has
them, rows, points and `transform.FIELD_OPS` deltas.  Spans are folded
into per-name records as they close, so memory stays flat.  Uninstalling
restores every patched attribute.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

from fqsolve import (cli, core, field, mpoly, oracle, randomized, reduction,
                     transform)


@dataclass
class Record:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    points: int = 0
    ops: int = 0


def _rows_arg0(rec, args, out):
    rec.rows += args[0].shape[0]


def _rows_arg1(rec, args, out):
    rec.rows += args[1].shape[0]


def _points_out(rec, args, out):
    rec.points += len(out.values)


def _points_arg0(rec, args, out):
    rec.points += len(args[0].values)


def _points_grid(rec, args, out):
    rec.points += len(out)


# (module, attribute, span name, extra measurement)
_FUNCTIONS = [
    (field, "make_field", "field.make_field", None),
    (transform, "evaluate_trimmed", "transform.evaluate", _points_out),
    (transform, "interpolate_trimmed", "transform.interpolate", _points_arg0),
    (oracle, "grid_evaluate", "oracle.grid_evaluate", _points_grid),
    (oracle, "count_common_roots", "oracle.count_common_roots", None),
    (randomized, "razborov_smolensky", "randomized.razborov_smolensky", None),
    (randomized, "valiant_vazirani", "randomized.valiant_vazirani", None),
    (mpoly, "parse_pes", "mpoly.parse_pes", None),
    (core, "partial_sum", "core.partial_sum", None),
    (core, "full_sum", "core.full_sum", None),
    (core, "solve_pes", "core.solve_pes", None),
    (reduction, "parse_dimacs", "reduction.parse_dimacs", None),
    (reduction, "reduce_cnf", "reduction.reduce_cnf", None),
    (cli, "main", "cli.main", None),
]

# (class, attribute, span name, extra measurement)
_METHODS = [
    (field.FieldSpec, "compile_matrix", "field.compile_matrix", None),
    (field.FieldSpec, "apply_rows", "field.apply", _rows_arg1),
    (field.FieldSpec, "vsum_axis", "field.vsum_axis", None),
    (mpoly.Polynomial, "add", "mpoly.add", None),
    (mpoly.Polynomial, "scale", "mpoly.scale", None),
    (mpoly.Polynomial, "degree", "mpoly.degree", None),
]

_OPS_SPANS = ("transform.evaluate", "transform.interpolate")


class Tracer:
    """Collects span records per name; use as a context manager."""

    def __init__(self):
        self.records: dict[str, Record] = {}
        self._stack: list[list] = []   # [child seconds, name, made RS call]
        self._restore: list[tuple[object, str, object]] = []
        self._apply_wrappers: dict[int, object] = {}
        self._warm: set[tuple[str, int]] = set()   # (span, q) seen

    # -- records ----------------------------------------------------------

    def take(self) -> dict[str, Record]:
        """Return the records collected so far and start afresh."""
        out, self.records = self.records, {}
        return out

    def _record(self, name: str) -> Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, extra=None):
        stack = self._stack
        count_ops = name in _OPS_SPANS
        is_ps = name == "core.partial_sum"
        is_rs = name == "randomized.razborov_smolensky"

        def wrapper(*args, **kwargs):
            key = name
            if is_ps:
                depth = sum(1 for f in stack if f[1] == name)
                key = f"{name}.depth{depth}"
            if is_rs and stack and stack[-1][1] == "core.partial_sum":
                stack[-1][2] = True
            frame = [0.0, name, False]
            stack.append(frame)
            ops0 = transform.FIELD_OPS if count_ops else 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = self._record(key)
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - frame[0]
                if is_ps and not frame[2]:
                    self._record("core.leaf").calls += 1
            if extra is not None:
                extra(rec, args, out)
            if count_ops:
                rec.ops += transform.FIELD_OPS - ops0
                if (name, out.field.q) not in self._warm:
                    self._warm.add((name, out.field.q))
                    cold = self._record("transform.cold")
                    cold.calls += 1
                    cold.total_s += dt
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _compiled_block(self, orig):
        def fetch(fieldspec, name, ln):
            fn = orig(fieldspec, name, ln)
            w = self._apply_wrappers.get(id(fn))
            if w is None:
                w = self.wrap("field.apply", fn, _rows_arg0)
                self._apply_wrappers[id(fn)] = (w, fn)
                return w
            return w[0]
        return fetch

    # -- install / restore -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fqsolve" or n.startswith("fqsolve.")]
        for module, attr, name, extra in _FUNCTIONS:
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        for cls, attr, name, extra in _METHODS:
            self._set(cls, attr, self.wrap(name, vars(cls)[attr], extra))
        self._set(transform, "_compiled_block",
                  self._compiled_block(transform._compiled_block))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._apply_wrappers.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer may replace, for restore checks."""
    owners = [(m, a) for m, a, _, _ in _FUNCTIONS]
    owners += [(c, a) for c, a, _, _ in _METHODS]
    return owners + [(transform, "_compiled_block")]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PS_DEPTHS = (0, 1, 2)

# name -> unit; every traced run reports every one of these
LAYER_UNITS = {
    "field.apply.calls": "count",
    "field.apply.rows_per_call": "rows/call",
    "field.apply.self_s": "s",
    "field.apply.ns_per_row": "ns/row",
    "field.compile_matrix.calls": "count",
    "field.compile_matrix.self_s": "s",
    "field.make_field.self_s": "s",
    "field.vsum_axis.self_s": "s",
    "transform.evaluate.calls": "count",
    "transform.evaluate.self_s": "s",
    "transform.evaluate.ns_per_point": "ns/point",
    "transform.evaluate.ops_per_point": "ops/point",
    "transform.interpolate.calls": "count",
    "transform.interpolate.self_s": "s",
    "transform.interpolate.ns_per_point": "ns/point",
    "transform.interpolate.ops_per_point": "ops/point",
    "transform.cold_s": "s",
    "transform.vs_grid_ratio": "ratio",
    "oracle.grid_evaluate.calls": "count",
    "oracle.grid_evaluate.ns_per_point": "ns/point",
    "oracle.count_common_roots.self_s": "s",
    "randomized.razborov_smolensky.calls": "count",
    "randomized.razborov_smolensky.self_s": "s",
    "randomized.valiant_vazirani.calls": "count",
    "randomized.valiant_vazirani.self_s": "s",
    "mpoly.add.calls": "count",
    "mpoly.scale.calls": "count",
    "mpoly.degree.calls": "count",
    "mpoly.degree.self_s": "s",
    "mpoly.parse_pes.self_s": "s",
    "core.partial_sum.calls": "count",
    **{f"core.partial_sum.depth{d}.self_s": "s" for d in PS_DEPTHS},
    "core.leaf.calls": "count",
    "core.solve.trials_per_call": "ratio",
    "reduction.parse_dimacs.self_s": "s",
    "reduction.reduce_cnf.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items()
                      if u in ("count", "rows/call", "ops/point"))


def _merge(*snaps: dict[str, Record]) -> dict[str, Record]:
    out: dict[str, Record] = {}
    for snap in snaps:
        for name, rec in snap.items():
            acc = out.setdefault(name, Record())
            acc.calls += rec.calls
            acc.total_s += rec.total_s
            acc.self_s += rec.self_s
            acc.rows += rec.rows
            acc.points += rec.points
            acc.ops += rec.ops
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(setup: dict[str, Record], run: dict[str, Record],
                  check: dict[str, Record], overhead_frac: float,
                  grid_compare: bool) -> dict[str, float]:
    """The per-layer metrics from the traced setup, one traced pass over
    the corpus and the traced oracle check."""
    r = run.get
    empty = Record()
    both = _merge(setup, run)
    after = _merge(run, check)
    m: dict[str, float] = {}

    apply = r("field.apply", empty)
    m["field.apply.calls"] = apply.calls
    m["field.apply.rows_per_call"] = _ratio(apply.rows, apply.calls)
    m["field.apply.self_s"] = apply.self_s
    m["field.apply.ns_per_row"] = _ratio(apply.self_s * 1e9, apply.rows)
    comp = both.get("field.compile_matrix", empty)
    m["field.compile_matrix.calls"] = comp.calls
    m["field.compile_matrix.self_s"] = comp.self_s
    m["field.make_field.self_s"] = both.get("field.make_field", empty).self_s
    m["field.vsum_axis.self_s"] = r("field.vsum_axis", empty).self_s

    for span in ("evaluate", "interpolate"):
        rec = r(f"transform.{span}", empty)
        m[f"transform.{span}.calls"] = rec.calls
        m[f"transform.{span}.self_s"] = rec.self_s
        m[f"transform.{span}.ns_per_point"] = _ratio(rec.total_s * 1e9,
                                                    rec.points)
        m[f"transform.{span}.ops_per_point"] = _ratio(rec.ops, rec.points)
    m["transform.cold_s"] = setup.get("transform.cold", empty).total_s
    grid = after.get("oracle.grid_evaluate", empty)
    m["transform.vs_grid_ratio"] = (
        _ratio(r("transform.evaluate", empty).total_s, grid.total_s)
        if grid_compare else 0.0)
    m["oracle.grid_evaluate.calls"] = grid.calls
    m["oracle.grid_evaluate.ns_per_point"] = _ratio(grid.total_s * 1e9,
                                                    grid.points)
    m["oracle.count_common_roots.self_s"] = after.get(
        "oracle.count_common_roots", empty).self_s

    for span in ("razborov_smolensky", "valiant_vazirani"):
        rec = r(f"randomized.{span}", empty)
        m[f"randomized.{span}.calls"] = rec.calls
        m[f"randomized.{span}.self_s"] = rec.self_s

    m["mpoly.add.calls"] = r("mpoly.add", empty).calls
    m["mpoly.scale.calls"] = r("mpoly.scale", empty).calls
    m["mpoly.degree.calls"] = r("mpoly.degree", empty).calls
    m["mpoly.degree.self_s"] = r("mpoly.degree", empty).self_s
    m["mpoly.parse_pes.self_s"] = r("mpoly.parse_pes", empty).self_s

    depths = {int(k.rsplit("depth", 1)[1]): rec for k, rec in run.items()
              if k.startswith("core.partial_sum.depth")}
    m["core.partial_sum.calls"] = sum(rec.calls for rec in depths.values())
    for d in PS_DEPTHS:
        m[f"core.partial_sum.depth{d}.self_s"] = depths.get(d, empty).self_s
    m["core.leaf.calls"] = r("core.leaf", empty).calls
    m["core.solve.trials_per_call"] = _ratio(
        r("core.full_sum", empty).calls, r("core.solve_pes", empty).calls)

    m["reduction.parse_dimacs.self_s"] = r("reduction.parse_dimacs",
                                           empty).self_s
    m["reduction.reduce_cnf.self_s"] = r("reduction.reduce_cnf", empty).self_s
    m["cli.main.self_s"] = r("cli.main", empty).self_s
    m["trace.overhead_frac"] = overhead_frac
    return m
