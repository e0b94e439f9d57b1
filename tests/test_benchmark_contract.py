"""Every name the benchmark in perfbench/ reaches for in otfair exists.

perfbench's tracer raises LookupError when a traced function is gone, and its
workloads call harness helpers by attribute, so a deleted or renamed public
name would only show up when the benchmark runs. These tests read perfbench's
files; they import the tracer but change nothing there.
"""
import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _perfbench_attributes():
    """(module, name) for every `<otfair module>.<name>` perfbench's code uses,
    where the module was imported with `from otfair import ...`."""
    found = set()
    for fname in ("workloads.py", "run.py", "test_smoke.py"):
        with open(os.path.join(PERFBENCH, fname)) as fh:
            tree = ast.parse(fh.read())
        modules = {alias.asname or alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "otfair"
                   for alias in node.names}
        found |= {(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return sorted(found)


TRACER = _load_tracer()
USED = _perfbench_attributes()


@pytest.mark.parametrize("qual", sorted(TRACER.TRACED))
def test_traced_function_exists(qual):
    modname, fname = qual.split(".")
    mod = importlib.import_module(f"{TRACER.PACKAGE}.{modname}")
    assert callable(getattr(mod, fname, None)), f"otfair.{qual} is gone"


def test_tracer_resolves_every_traced_function():
    assert len(TRACER.resolve()) == len(TRACER.TRACED)


def test_perfbench_harness_calls_are_found():
    # The workloads' set-up and the smoke test's reference runs go through
    # these; an empty parse would make the test below vacuous.
    names = {name for mod, name in USED if mod == "harness"}
    assert {"_load_and_split", "build_target", "run_drift",
            "run_experiment"} <= names


@pytest.mark.parametrize("modname,name", USED,
                         ids=[f"{m}.{n}" for m, n in USED])
def test_perfbench_attribute_exists(modname, name):
    mod = importlib.import_module(f"otfair.{modname}")
    assert hasattr(mod, name), f"perfbench uses otfair.{modname}.{name}"
