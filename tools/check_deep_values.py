"""Check that the parser gives typed errors for any value, on any Python.

A trace document built in memory can hold a value nested far deeper than a
JSON file decodes, an int past int()'s digit limit, a cycle or a set. The
parser must still raise MalformedTrace: its messages render such values
with `ingest.bounded_repr`, and `hashing.canonical_json` refuses what the
derived tx hash cannot encode. The package imports numpy, which not every
interpreter has, so this script loads `errors.py`, `hashing.py` and
`ingest.py` alone, as a stub `bridgeguard` package whose `__init__.py` never
runs. It needs nothing beyond the standard library.

    python tools/check_deep_values.py

prints one line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgeguard"
DEPTH = 5000
BOUNDED = "[[[[[[[...]]]]]]]"  # a list nested past reprlib's six levels
HUGE = 10 ** 5000  # past int()'s 4300-digit limit
# Values an error renders exactly as `repr` does: the rejected quantities of
# tests/test_ingest.py, among them a string past int()'s digit limit.
PLAIN = [True, False, -5, -1, 1.5, "\uff11", "\u0663", "0x\uff11F", "1_000", " 12 ",
         "+5", "-5", "-0x5", "0X1F", "0x", "", "12\n", [], "9" * 5000]


def load_ingest() -> types.ModuleType:
    stub = types.ModuleType("bridgeguard")
    stub.__path__ = [str(PACKAGE)]
    sys.modules["bridgeguard"] = stub
    return importlib.import_module("bridgeguard.ingest")


def nest(value: object, depth: int) -> object:
    for _ in range(depth):
        value = [value]
    return value


def frame(**values: object) -> dict:
    trace = {"type": "CALL", "from": "0x" + "aa" * 20, "to": "0x" + "bb" * 20}
    trace.update(values)
    return trace


def documents():
    """(case, document, text its MalformedTrace must hold) for each case."""
    for key in ("from", "value", "type"):
        yield f"{key} nested {DEPTH} deep", {"trace": frame(**{key: nest([], DEPTH)})}, BOUNDED
    yield "huge from", {"trace": frame(**{"from": HUGE})}, f"<int of {HUGE.bit_length()} bits>"
    unwritable = "cannot be written as JSON"  # by the derived tx hash's encode
    yield "huge value", {"trace": frame(value=HUGE)}, unwritable
    log = {"address": "0x" + "bb" * 20, "logIndex": HUGE}
    yield "huge logIndex", {"trace": frame(), "logs": [log]}, unwritable
    cyclic = frame()
    cyclic["x"] = cyclic
    yield "cycle", {"trace": cyclic}, unwritable
    yield "set", {"trace": frame(x={1, 2})}, unwritable


def main() -> int:
    ingest = load_ingest()
    errors = sys.modules["bridgeguard.errors"]
    failures = 0

    def report(case: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {detail}")

    print(f"Python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}")
    for case, doc, expected in documents():
        try:
            ingest.record_from_document(doc)
        except errors.MalformedTrace as exc:
            report(case, expected in str(exc), f"MalformedTrace: {exc}")
        except Exception as exc:  # a crash of any kind is what this script reports
            report(case, False, f"{type(exc).__name__}: {exc}")
        else:
            report(case, False, "parsed")
    differ = [value for value in PLAIN if ingest.bounded_repr(value) != repr(value)]
    report(f"{len(PLAIN)} plain values render as repr", not differ, f"differ: {differ!r:.80}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
