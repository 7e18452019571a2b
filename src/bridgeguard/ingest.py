"""Normalize transaction execution data (call traces + receipt logs).

The canonical on-disk format is one transaction per JSON file with keys
``trace`` (a call-tracer tree: type/from/to/input/value/calls) and ``logs``
(the receipt log array), hex strings 0x-prefixed lowercase. Optional
metadata keys ``tx_hash``, ``chain_id``, ``block_number``, ``sender`` are
honored when present and derived deterministically otherwise. The RPC path
produces the same document shape, so both share this parser.

The parser walks the call tree with an explicit stack, not by recursion, and
accepts frames down to the EVM's call-depth limit, `MAX_CALL_DEPTH` = 1024
(the root frame is depth 0); a deeper frame raises MalformedTrace. The one
JSON decode (`decode_json`) and the one encode (`hashing.canonical_json`)
still recurse, so a file can fail to decode, or a record to encode, first.

`CallFrame`, `LogEntry` and `TxRecord` are slotted dataclasses, built
positionally on the parse path. A file is read as bytes and decoded once.
Every frame stores its kind's object from `FRAME_KINDS`. The parser puts
each address, selector and topic it makes through a string table, the
`strings` dict of `record_from_document` and `load_trace_file`. A corpus
(`load_corpus`, `synthgen.gen_dataset`) is parsed through one table per
call, so its records hold each repeated value once. A call given no table
shares and keeps nothing; nothing is cached per process. Error messages
render foreign values with `bounded_repr`, which any nesting survives.
"""

from __future__ import annotations

import hashlib
import json
import re
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BridgeGuardError, EmptyTrace, InvalidConfig, MalformedTrace
from .hashing import canonical_json

FRAME_KINDS = frozenset({
    "CALL", "STATICCALL", "DELEGATECALL", "CALLCODE",
    "CREATE", "CREATE2", "SELFDESTRUCT",
})
# Each frame kind to its object in FRAME_KINDS, which every parsed frame
# stores. Read-only.
_FRAME_KIND = {kind: kind for kind in FRAME_KINDS}

LABELS = ("Normal", "AttackSrc", "AttackTgt")  # fixed class order

ZERO_ADDRESS = "0x" + "00" * 20
# The string table of a parse given none: read through `.get`, so it stays empty.
_NO_STRINGS: dict[str, str] = {}


@dataclass(slots=True)
class CallFrame:
    frame_kind: str
    caller: str
    callee: str
    selector: str | None  # 8 hex chars, no 0x; None when input < 4 bytes
    value: int
    depth: int
    order: int  # global pre-order index, root = 0
    children: list["CallFrame"] = field(default_factory=list)
    reverted: bool = False


@dataclass(slots=True)
class LogEntry:
    emitter: str
    topic0: str | None  # 0x + 64 hex; None for anonymous events
    topics_rest: list[str]
    data: str
    log_index: int


@dataclass(slots=True)
class TxRecord:
    tx_hash: str
    chain_id: int
    root_frame: CallFrame
    logs: list[LogEntry]
    block_number: int
    sender: str


@dataclass
class ManifestEntry:
    source: str  # trace file path or tx hash
    label: str
    chain_id: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]


# --- hex normalization ---------------------------------------------------

# `repr` for error messages, but six levels deep at most (containers are cut at
# reprlib's default widths): a list nested 5000 deep is "[[[[[[[...]]]]]]]",
# where `repr` raises RecursionError (3.10-3.12) or renders every level (3.13).
# An int past int()'s digit limit, which `repr` refuses, renders as its bit length.
class _BoundedRepr(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return repr(x)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_BOUNDED_REPR = _BoundedRepr()
_BOUNDED_REPR.maxstring = _BOUNDED_REPR.maxlong = _BOUNDED_REPR.maxother = sys.maxsize
bounded_repr = _BOUNDED_REPR.repr


# The whole hex values `_norm_hex` accepts, by byte count (None: any). ASCII
# only: `\d` would admit other scripts' digits, and `$` a trailing newline.
_HEX_VALUE = {
    None: re.compile(r"0x[0-9a-fA-F]*").fullmatch,
    20: re.compile(r"0x[0-9a-fA-F]{40}").fullmatch,
    32: re.compile(r"0x[0-9a-fA-F]{64}").fullmatch,
}
# The quantity strings `_norm_quantity` accepts: hex digits after 0x, or decimal.
_is_quantity_text = re.compile(r"0x[0-9a-fA-F]+|[0-9]+").fullmatch


def _norm_hex(value: object, name: str, nbytes: int | None = None) -> str:
    """`value`, a 0x-prefixed hex string of `nbytes` bytes (any length when
    None), in lower case. Anything else raises MalformedTrace naming `name`
    and what is wrong."""
    if type(value) is str and _HEX_VALUE[nbytes](value):
        return value.lower()
    if not isinstance(value, str) or not value.startswith("0x"):
        raise MalformedTrace(f"{name}: expected 0x-prefixed hex string, "
                             f"got {bounded_repr(value)}")
    body = value[2:].lower()
    if not _HEX_VALUE[None]("0x" + body):
        raise MalformedTrace(f"{name}: non-hex characters in {value!r}")
    if nbytes is not None and len(body) != 2 * nbytes:
        raise MalformedTrace(f"{name}: expected {nbytes} bytes, got {value!r}")
    return "0x" + body


def _norm_address(value: object, name: str, seen: dict[str, str], share) -> str:
    """`_norm_hex(value, name, 20)` put through `share`, a string table's
    `setdefault`, and remembered in `seen`: one document names the same few
    addresses many times, and the hex check is most of their parse. The
    table also holds topics and selectors, so it cannot stand in for `seen`."""
    norm = seen.get(value) if type(value) is str else None
    if norm is None:
        norm = _norm_hex(value, name, 20)
        norm = seen[value] = share(norm, norm)
    return norm


def _norm_quantity(value: object, name: str) -> int:
    """`value` as a non-negative int: None (0), an int that is not a bool,
    or an ASCII string of hex digits after 0x or of decimal digits (no more
    than `int()` converts). Anything else raises MalformedTrace naming `name`."""
    if type(value) is int and value >= 0:
        return value
    if value is None:
        return 0
    if isinstance(value, str) and _is_quantity_text(value):
        try:
            return int(value, 16) if value.startswith("0x") else int(value)
        except ValueError:  # more decimal digits than int() converts
            pass
    raise MalformedTrace(f"{name}: expected a non-negative integer or a hex or decimal "
                         f"quantity, got {bounded_repr(value)}")


# --- trace document parsing ----------------------------------------------

MAX_CALL_DEPTH = 1024  # the EVM's call-depth limit; the root frame is depth 0


def _parse_calls(trace: object, addresses: dict[str, str], share) -> CallFrame:
    """The call tree under `trace`, walked in pre-order with an explicit
    stack: frames are checked, numbered and raise their first error in the
    order a recursive descent would visit them. `addresses` is the
    document's `_norm_address` memo, `share` its string table's `setdefault`."""
    root = None
    order = 0
    # (node, depth, the parent's children list; None for the root)
    stack: list[tuple[object, int, list | None]] = [(trace, 0, None)]
    while stack:
        node, depth, siblings = stack.pop()
        if depth > MAX_CALL_DEPTH:
            raise MalformedTrace(f"call tree nests too deep to parse (a frame at depth "
                                 f"{depth}, deeper than {MAX_CALL_DEPTH})")
        if not isinstance(node, dict):
            raise MalformedTrace(f"frame at depth {depth} is not an object")
        raw_kind = node.get("type")
        kind = _FRAME_KIND.get(raw_kind.upper()) if isinstance(raw_kind, str) else None
        if kind is None:
            raise MalformedTrace(f"unknown frame type {bounded_repr(raw_kind)} "
                                 f"at depth {depth}")

        caller = _norm_address(node.get("from"), "from", addresses, share)
        # CREATE* report the created address in `to`; SELFDESTRUCT the refund
        # beneficiary, which some tracers omit entirely.
        to = node.get("to")
        callee = (share(ZERO_ADDRESS, ZERO_ADDRESS) if to in (None, "")
                  else _norm_address(to, "to", addresses, share))

        raw_input = node.get("input", "0x")
        input_hex = _norm_hex(raw_input, "input") if raw_input is not None else "0x"
        selector = input_hex[2:10]
        frame = CallFrame(kind, caller, callee,
                          share(selector, selector) if len(selector) == 8 else None,
                          _norm_quantity(node.get("value"), "value"), depth, order, [],
                          bool(node.get("error") or node.get("revertReason")))
        order += 1
        if siblings is None:
            root = frame
        else:
            siblings.append(frame)
        calls = node.get("calls")
        if calls:
            if not isinstance(calls, list):
                raise MalformedTrace("`calls` must be a list")
            depth += 1
            children = frame.children
            stack += [(child, depth, children) for child in reversed(calls)]
    return root


def _parse_log(entry: object, position: int, addresses: dict[str, str],
               share) -> LogEntry:
    if not isinstance(entry, dict):
        raise MalformedTrace(f"log #{position} is not an object")
    topics = entry.get("topics", [])
    if not isinstance(topics, list):
        raise MalformedTrace(f"log #{position}: topics must be a list")
    norm_topics = [_norm_hex(t, "topic", 32) for t in topics]
    norm_topics = list(map(share, norm_topics, norm_topics))
    data = entry.get("data", "0x")
    return LogEntry(
        _norm_address(entry.get("address"), "log address", addresses, share),
        norm_topics[0] if norm_topics else None,
        norm_topics[1:],
        _norm_hex(data, "log data") if data is not None else "0x",
        _norm_quantity(entry.get("logIndex", position), "logIndex"),
    )


def _derived_tx_hash(doc: dict) -> str:
    canonical = canonical_json({"trace": doc.get("trace"), "logs": doc.get("logs", [])})
    return "0x" + hashlib.blake2b(canonical.encode(), digest_size=32).hexdigest()


def record_from_document(doc: object, chain_id: int | None = None,
                         strings: dict[str, str] | None = None) -> TxRecord:
    """Parse one trace document (the file/RPC wire shape) into a TxRecord.
    A frame deeper than MAX_CALL_DEPTH raises MalformedTrace, and so does a
    document without `tx_hash` whose derived hash's canonical JSON nests
    deeper than the encoder recurses, or that JSON cannot hold. Its
    addresses, selectors and topics are the first equal strings in the table
    `strings`, which gains the ones it lacks; with None, nothing is shared."""
    if not isinstance(doc, dict):
        raise MalformedTrace("document is not a JSON object")
    trace = doc.get("trace")
    if trace is None or trace == {}:
        raise EmptyTrace("document has no root frame")
    share = _NO_STRINGS.get if strings is None else strings.setdefault
    addresses: dict[str, str] = {}
    root = _parse_calls(trace, addresses, share)

    raw_logs = doc.get("logs") or []
    if not isinstance(raw_logs, list):
        raise MalformedTrace("`logs` must be a list")
    logs = [_parse_log(entry, i, addresses, share) for i, entry in enumerate(raw_logs)]
    seen = set()
    for log in logs:
        if log.log_index in seen:
            raise MalformedTrace(f"duplicate logIndex {bounded_repr(log.log_index)}")
        seen.add(log.log_index)
    logs.sort(key=lambda log: log.log_index)

    sender = doc.get("sender")
    sender = (_norm_address(sender, "sender", addresses, share) if sender is not None
              else root.caller)
    if sender != root.caller:
        raise MalformedTrace("sender does not match root frame caller")

    tx_hash = doc.get("tx_hash")
    tx_hash = _norm_hex(tx_hash, "tx_hash", 32) if tx_hash else _derived_tx_hash(doc)

    return TxRecord(
        tx_hash=tx_hash,
        chain_id=_norm_quantity(doc.get("chain_id", chain_id or 0), "chain_id"),
        root_frame=root,
        logs=logs,
        block_number=_norm_quantity(doc.get("block_number"), "block_number"),
        sender=sender,
    )


def decode_json(raw: bytes, error: type[BridgeGuardError], where: object) -> object:
    """The JSON document in the UTF-8 bytes `raw`: the toolkit's one JSON
    decode. Bytes that do not decode, or nest deeper than the decoder's
    recursion allows, raise `error` naming `where`."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8
        raise error(f"{where}: invalid JSON ({exc})") from exc


def read_json(path: str | Path, error: type[BridgeGuardError]) -> object:
    """The JSON document in the UTF-8 file at `path`, read as bytes and
    decoded once by `decode_json`, which raises `error` naming the path; an
    OSError passes through."""
    with open(path, "rb") as f:
        return decode_json(f.read(), error, path)


def load_trace_file(path: str | Path, chain_id: int | None = None,
                    strings: dict[str, str] | None = None) -> TxRecord:
    """Load one transaction's trace document plus receipt logs from disk,
    sharing strings through `strings` as `record_from_document` does."""
    return record_from_document(read_json(path, MalformedTrace), chain_id=chain_id,
                                strings=strings)


# --- serialization (round-trip format) ------------------------------------


def _frame_to_node(root: CallFrame) -> dict:
    """The wire-shape tree of `root`, built in pre-order with an explicit
    stack, so any depth the parser accepts converts back."""
    out: dict = {}
    stack: list[tuple[CallFrame, list | None]] = [(root, None)]
    while stack:
        frame, siblings = stack.pop()
        node: dict = {
            "type": frame.frame_kind,
            "from": frame.caller,
            "to": frame.callee,
            "input": "0x" + frame.selector if frame.selector else "0x",
            "value": hex(frame.value),
        }
        if frame.reverted:
            node["error"] = "execution reverted"
        if siblings is None:
            out = node
        else:
            siblings.append(node)
        if frame.children:
            node["calls"] = calls = []
            stack.extend((child, calls) for child in reversed(frame.children))
    return out


def record_to_document(record: TxRecord) -> dict:
    return {
        "tx_hash": record.tx_hash,
        "chain_id": record.chain_id,
        "block_number": record.block_number,
        "sender": record.sender,
        "trace": _frame_to_node(record.root_frame),
        "logs": [
            {
                "address": log.emitter,
                "topics": ([log.topic0] if log.topic0 else []) + log.topics_rest,
                "data": log.data,
                "logIndex": log.log_index,
            }
            for log in record.logs
        ],
    }


def write_json(path: str | Path, payload: object) -> None:
    """Write `payload` as `canonical_json` and a final newline, creating the
    parent directory; every JSON file but the manifest is written here. A
    payload too deep to encode raises MalformedTrace before any file opens."""
    text = canonical_json(payload) + "\n"
    try:
        f = open(path, "w")
    except FileNotFoundError:  # only then: a mkdir per file slows corpus writes
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        f = open(path, "w")
    with f:
        f.write(text)


# --- frame utilities -------------------------------------------------------


def flatten_frames(record: TxRecord) -> list[CallFrame]:
    """Pre-order frame sequence; `order` matches list position."""
    out: list[CallFrame] = []
    stack = [record.root_frame]
    while stack:
        frame = stack.pop()
        out.append(frame)
        stack.extend(reversed(frame.children))
    return out


# --- dataset manifest ------------------------------------------------------


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a JSON-lines manifest: {"source":..., "label":..., "chain_id":N}."""
    entries: list[ManifestEntry] = []
    seen_sources = set()
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            obj = decode_json(raw, InvalidConfig, f"{path}:{lineno}")
            if not isinstance(obj, dict):
                raise InvalidConfig(f"{path}:{lineno}: not a JSON object")
            label = obj.get("label")
            if label not in LABELS:
                raise InvalidConfig(f"{path}:{lineno}: label must be one of {LABELS}")
            source = obj.get("source")
            if not isinstance(source, str) or not source:
                raise InvalidConfig(f"{path}:{lineno}: missing source")
            if source in seen_sources:
                raise InvalidConfig(f"{path}:{lineno}: duplicate tx identity {source}")
            seen_sources.add(source)
            try:
                chain_id = _norm_quantity(obj.get("chain_id", 0), "chain_id")
            except MalformedTrace as exc:
                raise InvalidConfig(f"{path}:{lineno}: {exc}") from exc
            entries.append(ManifestEntry(source=source, label=label, chain_id=chain_id))
    return DatasetManifest(entries=entries)


def load_corpus(manifest_path: str | Path) -> tuple[list[TxRecord], list[str]]:
    """The records and labels a manifest lists, in its order. A relative
    source resolves against the manifest's directory. The records are
    parsed through one string table, so they share their repeated strings."""
    root = Path(manifest_path).parent
    entries = load_manifest(manifest_path).entries
    strings: dict[str, str] = {}
    records = [load_trace_file(root / entry.source, chain_id=entry.chain_id, strings=strings)
               for entry in entries]
    return records, [entry.label for entry in entries]


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    with open(path, "w") as f:
        for entry in manifest.entries:
            f.write(canonical_json(
                {"source": entry.source, "label": entry.label, "chain_id": entry.chain_id}
            ) + "\n")
