"""The benchmark's tracer patches fqsolve by name; a name that the package
drops must fail here rather than break a traced benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_patch_target_exists(monkeypatch):
    if not TRACER.exists():
        pytest.skip("no bench/ directory beside tests/")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    targets = tracer.patch_targets()
    assert targets
    for owner, attr in targets:
        if isinstance(owner, type):  # install reads vars(cls)[attr]
            assert attr in vars(owner), (owner.__name__, attr)
        else:
            assert hasattr(owner, attr), (owner.__name__, attr)
