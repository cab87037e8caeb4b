"""Imports kept only for the benchmark tracer stay the tracer's.

``perfbench/tracing.py`` patches some names on modules that do not use
them (``# noqa: F401``).  Each such binding must be a name the tracer
patches on that module, so that no unused import hides behind the
marker.
"""

import ast
import importlib
import os
import sys

import switchctl

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402


class PatchRecorder(tracing.Tracer):
    """A tracer that records what ``instrument`` patches and patches
    nothing."""

    def __init__(self):
        super().__init__()
        self.patched = set()

    def patch(self, owner, attr, make):
        self.patched.add((owner, attr))

    def patch_item(self, mapping, key, make):
        pass


def noqa_imports():
    """(module, bound name) of every import marked ``# noqa: F401`` in
    the package."""
    package = os.path.dirname(switchctl.__file__)
    found = []
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package, fname), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        module = importlib.import_module(f"switchctl.{fname[:-3]}")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    "# noqa: F401" in lines[node.end_lineno - 1]:
                found += [(module, alias.asname or alias.name)
                          for alias in node.names]
    return found


def test_unused_imports_are_tracer_patch_points():
    recorder = PatchRecorder()
    tracing.instrument(recorder)
    bindings = noqa_imports()
    assert {(mod.__name__, name) for mod, name in bindings} >= {
        ("switchctl.partition", "solve_hjb"),
        ("switchctl.partition", "solve_representation"),
        ("switchctl.cli", "equilibrium_residual")}
    for module, name in bindings:
        assert (module, name) in recorder.patched, \
            f"{module.__name__}.{name} is marked unused but the tracer " \
            f"does not patch it there"
