"""The package surface: the public names and the names the benchmark wraps."""

import sys
import types
from pathlib import Path

import ngg
from ngg import cli, engine, harness, metrics, netgen

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ngg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ngg.__all__)
    assert len(set(ngg.__all__)) == len(ngg.__all__)
    for name in ngg.__all__:
        assert not isinstance(getattr(ngg, name), types.ModuleType), name


def test_benchmark_tracer_resolves_every_wrapped_name(monkeypatch):
    # bench/spans.py wraps layer functions by name and fails on a missing
    # one; a name must leave the benchmark before it leaves the package.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    tracer = spans.Tracer(spans.layer_targets(engine, metrics, netgen,
                                              harness, cli))
    tracer.assert_removed()
