"""The benchmark harness names program functions as (module, attribute)
pairs: the layers it times and the calls whose outputs it captures for its
checks. A name that no longer resolves only prints "not traced" when the
benchmark runs, and a missing capture target empties the capture, so every
output reads as incorrect. These tests import the harness without writing
into it and check every name against the program."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from perfbench import perlayer, tracer, workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _write_bytecode

TRACED = sorted({target for targets in tracer.LAYER_FUNCTIONS.values()
                 for target in targets})
HOOKED = sorted(workloads.Capture().hooks().keys() | perlayer.LayerCounts().hooks().keys())


def _resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_layer_function_exists(module, attr):
    assert _resolves(module, attr)


@pytest.mark.parametrize("module, attr", HOOKED)
def test_capture_hook_target_is_traced_and_exists(module, attr):
    # `tracer.instrument` attaches hooks only to the layer functions.
    assert (module, attr) in TRACED
    assert _resolves(module, attr)
