"""The names the benchmark tracer wraps still exist in the package.

``perfbench/tracing.py`` lists each ``(module, function or Class.method)``
it replaces with a timed wrapper, and splits the norm spans by their
``mode`` argument.  A name that no longer resolves breaks traced runs and
``perfbench/selfcheck.py`` but nothing else, so the two tables are read
here as data, without importing the tracer.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


WRAPPED = _table("WRAPPED")
SPLIT = _table("SPLIT")
NAMES = [(layer, qual) for layer, qual, _ in WRAPPED]
# every split span but the CLI's is named by the wrapped call's mode
SPLIT_NORMS = [(layer, qual) for layer, qual, span in WRAPPED if span in SPLIT and layer != "cli"]


def _resolve(layer, qual):
    obj = importlib.import_module(f"bmolab.{layer}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("layer, qual", NAMES, ids=[qual for _, qual in NAMES])
def test_every_wrapped_name_resolves(layer, qual):
    assert callable(_resolve(layer, qual))


@pytest.mark.parametrize("layer, qual", SPLIT_NORMS, ids=[qual for _, qual in SPLIT_NORMS])
def test_every_split_norm_has_a_mode_with_a_default(layer, qual):
    mode = inspect.signature(_resolve(layer, qual)).parameters.get("mode")
    assert mode is not None and mode.default is not inspect.Parameter.empty
