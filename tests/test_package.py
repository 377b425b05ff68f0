"""The package surface: the public names and the names the benchmark wraps."""

import ast
import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
import types
import typing
from pathlib import Path

import pytest

import ngg
from ngg import cli, engine, harness, metrics, netgen

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = Path(ngg.__file__).resolve().parent


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


@pytest.mark.parametrize("path", [
    *sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("demos/*.py"))],
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    # __init__.py imports only to re-export; every other module, test and
    # demo must use each name it binds by an import statement.
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []


def test_every_error_class_is_raised():
    # an error type that no raise in the package uses is a concept no caller
    # can meet; NggError is the base callers catch, never raised itself
    defined = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = {node.exc.func.id for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    assert sorted(defined - raised - {"NggError"}) == []


# the parameter classes whose validate() type-checks every field
_CHECKED = (engine.GameParams, netgen.NetworkSpec, harness.ExperimentConfig)


@pytest.mark.parametrize("cls", _CHECKED, ids=lambda cls: cls.__name__)
def test_every_field_is_annotated_with_a_class(cls):
    # netgen._check_types tests each field with isinstance against its
    # annotation, or against Optional's one class: an annotation such as
    # tuple[int, ...] must fail here, not as a TypeError inside validate()
    hints = typing.get_type_hints(cls)
    assert sorted(hints) == sorted(f.name for f in dataclasses.fields(cls))
    for name, hint in hints.items():
        kinds = [a for a in typing.get_args(hint) if a is not type(None)]
        if typing.get_origin(hint) is typing.Union and len(kinds) == 1:
            hint = kinds[0]  # Optional[X]
        assert isinstance(hint, type) and not typing.get_args(hint), (name, hint)


def test_every_class_with_validate_checks_types():
    # a parameter class whose validate() skips _check_types would accept a
    # field of the wrong type; the classes found here must be _CHECKED
    modules = [importlib.import_module(f"ngg.{path.stem}")
               for path in SRC.glob("*.py") if path.stem != "__init__"]
    with_validate = {obj for module in modules for obj in vars(module).values()
                     if isinstance(obj, type) and obj.__module__ == module.__name__
                     and callable(vars(obj).get("validate"))}
    assert with_validate == set(_CHECKED)
    for cls in with_validate:
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls.validate)))
        calls = {node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_check_types" in calls, cls.__name__


# the XML, HTTP, e-mail, TLS, socket and process-pool stacks: a bare
# interpreter loads none of them, and neither may the CLI or a sequential run
HEAVY = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket",
         "multiprocessing", "concurrent.futures.process")


def test_cli_and_a_sequential_run_load_no_heavy_stack(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "network": {"model": "rg", "m": 12, "p": 0.4},
        "game": {"n": 3, "beta": 0.5}, "repetitions": 2, "master_seed": 1}))
    code = (f"import sys, ngg.cli\n"
            f"loaded = [m for m in {HEAVY!r} if m in sys.modules]\n"
            f"ngg.cli.main(['run', '--config', {str(config)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            f"print(loaded, [m for m in {HEAVY!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"
