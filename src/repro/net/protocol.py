"""The length-prefixed binary wire protocol.

Frame layout (all integers big-endian)::

    +----------------+-----------+------------------------+
    | length (u32)   | op (u8)   | payload (length-1 B)   |
    +----------------+-----------+------------------------+

``length`` counts the opcode byte plus the payload, so an empty-payload
frame has length 1. Frames larger than :data:`MAX_FRAME` are a
:class:`~repro.errors.ProtocolError` on both ends — a bounded frame size
is what keeps a misbehaving peer from ballooning the receiver's memory.
Both ends read frames through :func:`read_frame`, the one place that
knows this layout.

The payload is one *value* in a tagged binary encoding covering the
engine's data model: NULL, booleans, 64-bit and big integers, floats,
strings, bytes, dates, datetimes, lists, tuples, dicts with string keys,
:class:`~repro.common.types.SqlType` and :class:`~repro.common.schema.Schema`
(so result metadata round-trips without a side channel). Every request
and response payload is a dict at the top level.

Conversation (client to the left)::

    HELLO {protocol, database, principal}  -->
                                           <--  WELCOME {protocol, server, database}
    EXECUTE {sql, params, budget, trace}   -->
                                           <--  RESULT {schema, rowcount, ...}
                                           <--  ROWS {rows, last=False} ...
                                           <--  ROWS {rows, last=True}
    PING                                   -->
                                           <--  PONG
    BYE                                    -->  (server closes)

A client request is a text plus its parameters and nothing else: the
server hands each EXECUTE to its target's ``execute``, so forwarding,
fallbacks and permissions apply to every request alike. There is no
PREPARE: the server lifts literals and keeps each text's parse, binding
and plan on its parse cache, so a repeated text already costs it no
parse and no bind (prepare/execute by handle is the linked servers'
server-to-server mechanism, :mod:`repro.distributed.linked_server`).
Version 1 of the protocol had a prepared-statement conversation; version
2 removed it, and its opcodes are answered like any unknown opcode.

Any request may instead be answered by ``ERROR {kind, message,
transient}`` carrying the server-side :class:`~repro.errors.ReproError`
taxonomy — including the ``transient`` bit, so client-side retry
policies and failover routers make the same decisions they would make
in-process. Row streaming rides the engine's batch-execution chunk size
(PR 6): a ``RESULT`` header is followed by row batches of the
requester's ``fetch_rows`` (default: the server's ``batch_rows``), the
wire analogue of :class:`~repro.exec.operators.BatchCursor` draining a
plan chunk-at-a-time.

``budget`` in a request header is the *remaining* end-to-end deadline in
seconds (PR 9): the server re-anchors it on its own clock, so deadline
scopes survive the network hop without the two sides sharing a clock.
``trace`` carries ``(trace_id, span_id)`` of the client's active span;
the server parents its spans under it, stitching one distributed trace.
"""

from __future__ import annotations

import datetime
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.common.schema import Column, Schema
from repro.common.types import SqlType, TypeKind
from repro.engine.results import Result
from repro.errors import ProtocolError, RemoteError, ReproError

#: Protocol version spoken by this module. The handshake requires an
#: exact match: the protocol is young enough that cross-version
#: negotiation would only hide mistakes.
PROTOCOL_VERSION = 2

#: Upper bound on one frame (opcode + payload), bytes.
MAX_FRAME = 64 * 1024 * 1024

#: Upper bound on value nesting in one payload: far above any real one (a
#: RESULT header with extra result sets nests 6 deep), far below the
#: interpreter's recursion limit a hostile frame would otherwise hit.
MAX_NESTING = 64

# -- opcodes ----------------------------------------------------------------

OP_HELLO = 0x01
OP_WELCOME = 0x02
OP_EXECUTE = 0x03
OP_RESULT = 0x07
OP_ROWS = 0x08
OP_ERROR = 0x09
OP_PING = 0x0A
OP_PONG = 0x0B
OP_BYE = 0x0C

OP_NAMES = {
    OP_HELLO: "HELLO",
    OP_WELCOME: "WELCOME",
    OP_EXECUTE: "EXECUTE",
    OP_RESULT: "RESULT",
    OP_ROWS: "ROWS",
    OP_ERROR: "ERROR",
    OP_PING: "PING",
    OP_PONG: "PONG",
    OP_BYE: "BYE",
}

# -- value tags -------------------------------------------------------------

_T_NULL = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03
_T_BIGINT = 0x04  # arbitrary precision, decimal string
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_DATE = 0x08
_T_DATETIME = 0x09
_T_LIST = 0x0A
_T_TUPLE = 0x0B
_T_DICT = 0x0C
_T_SQLTYPE = 0x0D
_T_SCHEMA = 0x0E

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _encode_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def encode_value(out: bytearray, value: Any) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    if value is None:
        out += _U8.pack(_T_NULL)
    elif value is True:
        out += _U8.pack(_T_TRUE)
    elif value is False:
        out += _U8.pack(_T_FALSE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out += _U8.pack(_T_INT64)
            out += _I64.pack(value)
        else:
            out += _U8.pack(_T_BIGINT)
            _encode_str(out, str(value))
    elif isinstance(value, float):
        out += _U8.pack(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        out += _U8.pack(_T_STR)
        _encode_str(out, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += _U8.pack(_T_BYTES)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, datetime.datetime):  # before date: datetime is a date
        out += _U8.pack(_T_DATETIME)
        _encode_str(out, value.isoformat())
    elif isinstance(value, datetime.date):
        out += _U8.pack(_T_DATE)
        _encode_str(out, value.isoformat())
    elif isinstance(value, tuple):
        out += _U8.pack(_T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(out, item)
    elif isinstance(value, list):
        out += _U8.pack(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(out, item)
    elif isinstance(value, dict):
        out += _U8.pack(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(f"dict keys on the wire must be strings, not {key!r}")
            _encode_str(out, key)
            encode_value(out, item)
    elif isinstance(value, SqlType):
        out += _U8.pack(_T_SQLTYPE)
        _encode_str(out, value.kind.value)
        for extra in (value.length, value.precision, value.scale):
            encode_value(out, extra)
    elif isinstance(value, Schema):
        out += _U8.pack(_T_SCHEMA)
        out += _U32.pack(len(value.columns))
        for column in value.columns:
            _encode_str(out, column.name)
            encode_value(out, column.qualifier)
            encode_value(out, column.nullable)
            encode_value(out, column.sql_type)
    else:
        raise ProtocolError(f"cannot encode {type(value).__name__} value on the wire")


_KIND_BY_VALUE = {kind.value: kind for kind in TypeKind}


class _Reader:
    """A cursor over one frame's payload bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError(
                f"truncated frame: wanted {count} bytes at offset {self.pos}, "
                f"frame has {len(self.data)}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        return bytes(self.take(self.u32())).decode("utf-8")


def _decode(reader: _Reader, depth: int = 0) -> Any:
    tag = reader.u8()
    if tag == _T_NULL:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT64:
        return _I64.unpack(reader.take(8))[0]
    if tag == _T_BIGINT:
        return int(reader.text())
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        return reader.text()
    if tag == _T_BYTES:
        return bytes(reader.take(reader.u32()))
    if tag == _T_DATE:
        return datetime.date.fromisoformat(reader.text())
    if tag == _T_DATETIME:
        return datetime.datetime.fromisoformat(reader.text())
    # Every remaining tag contains values: one more level of nesting.
    depth += 1
    if depth > MAX_NESTING:
        raise ProtocolError(f"value nested deeper than {MAX_NESTING} on the wire")
    if tag in (_T_LIST, _T_TUPLE):
        count = reader.u32()
        items = [_decode(reader, depth) for _ in range(count)]
        return tuple(items) if tag == _T_TUPLE else items
    if tag == _T_DICT:
        count = reader.u32()
        return {reader.text(): _decode(reader, depth) for _ in range(count)}
    if tag == _T_SQLTYPE:
        kind_name = reader.text()
        kind = _KIND_BY_VALUE.get(kind_name)
        if kind is None:
            raise ProtocolError(f"unknown SQL type kind {kind_name!r} on the wire")
        length = _decode(reader, depth)
        precision = _decode(reader, depth)
        scale = _decode(reader, depth)
        if not (
            (length is None or isinstance(length, int))
            and (precision is None or isinstance(precision, int))
            and (scale is None or isinstance(scale, int))
        ):
            raise ProtocolError(f"malformed {kind_name} type on the wire")
        return SqlType(kind, length=length, precision=precision, scale=scale)
    if tag == _T_SCHEMA:
        count = reader.u32()
        columns = []
        for _ in range(count):
            name = reader.text()
            qualifier = _decode(reader, depth)
            nullable = _decode(reader, depth)
            sql_type = _decode(reader, depth)
            if not (
                (qualifier is None or isinstance(qualifier, str))
                and isinstance(nullable, bool)
                and isinstance(sql_type, SqlType)
            ):
                raise ProtocolError(f"malformed schema column {name!r} on the wire")
            columns.append(
                Column(name=name, sql_type=sql_type, qualifier=qualifier, nullable=nullable)
            )
        return Schema(columns)
    raise ProtocolError(f"unknown value tag 0x{tag:02x} on the wire")


def decode_value(data: bytes) -> Any:
    """Decode one value from ``data`` (must consume it exactly); whatever
    is wrong with the bytes surfaces as :class:`ProtocolError` only."""
    reader = _Reader(memoryview(data))
    try:
        value = _decode(reader)
    except (ValueError, struct.error) as exc:  # UnicodeDecodeError is a ValueError
        raise ProtocolError(f"malformed value on the wire: {exc}") from exc
    if reader.pos != len(reader.data):
        raise ProtocolError(
            f"trailing garbage in frame: {len(reader.data) - reader.pos} bytes "
            "after the payload value"
        )
    return value


# -- frames -----------------------------------------------------------------


def encode_frame(opcode: int, payload: Optional[Dict[str, Any]] = None) -> bytes:
    """One wire frame: length prefix, opcode, encoded payload."""
    body = bytearray(_U8.pack(opcode))
    if payload is not None:
        encode_value(body, payload)
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame too large: {len(body)} bytes (max {MAX_FRAME}) for "
            f"{OP_NAMES.get(opcode, opcode)}"
        )
    return _U32.pack(len(body)) + bytes(body)


def decode_body(body: bytes) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Split a frame body (opcode + payload) read off the wire."""
    if not body:
        raise ProtocolError("empty frame body")
    opcode = body[0]
    if len(body) == 1:
        return opcode, None
    payload = decode_value(body[1:])
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame payload must be a dict, not {type(payload).__name__}")
    return opcode, payload


def check_frame_length(length: int) -> int:
    """Validate a just-read length prefix before allocating for it."""
    if length == 0 or length > MAX_FRAME:
        raise ProtocolError(f"invalid frame length {length} (max {MAX_FRAME})")
    return length


def _read_exactly(sock: socket.socket, count: int) -> bytes:
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise EOFError(f"peer closed the stream {count - len(data)} bytes short")
        data += chunk
    return bytes(data)


def read_frame(sock: socket.socket) -> Tuple[int, Optional[Dict[str, Any]], int]:
    """Read one frame off a blocking socket: ``(opcode, payload, bytes read)``.

    Both ends of the wire read through here and map the outcomes to
    their own meaning: a peer that closed the stream, between frames or
    inside one, is :class:`EOFError`; a bad length or body is
    :class:`ProtocolError` (the stream is then out of step: close it);
    socket errors and timeouts pass through as :class:`OSError`.
    """
    length = check_frame_length(_U32.unpack(_read_exactly(sock, 4))[0])
    opcode, payload = decode_body(_read_exactly(sock, length))
    return opcode, payload, 4 + length


# -- results ----------------------------------------------------------------


def result_header(result: Result, in_transaction: bool) -> Dict[str, Any]:
    """The RESULT frame payload for an engine result (rows stream apart).

    Extra result sets (a procedure producing several) travel inline in
    the header; the *final* result set's rows follow as ROWS frames.
    Execution profiles are deliberately not serialized — they hold live
    operator references; wire clients profile server-side via metrics.
    """
    extra = [
        {"schema": schema, "rows": list(rows)}
        for schema, rows in result.resultsets[:-1]
    ]
    return {
        "schema": result.schema,
        "rowcount": result.rowcount,
        "row_total": len(result.rows),
        "messages": list(result.messages),
        "return_value": result.return_value,
        "resultsets_extra": extra,
        "in_transaction": in_transaction,
    }


def build_result(header: Dict[str, Any], rows: List[Tuple]) -> Result:
    """Reassemble a client-side :class:`Result` from header + rows."""
    result = Result(
        rows=rows,
        schema=header.get("schema"),
        rowcount=header.get("rowcount", 0),
        return_value=header.get("return_value"),
        messages=list(header.get("messages") or []),
    )
    for extra in header.get("resultsets_extra") or []:
        result.resultsets.append((extra["schema"], list(extra["rows"])))
    if result.schema is not None or rows:
        result.resultsets.append((result.schema, rows))
    return result


# -- error frames -----------------------------------------------------------


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Serialize an exception for an ERROR frame (taxonomy-preserving)."""
    return {
        "kind": type(exc).__name__,
        "message": str(exc),
        "transient": bool(getattr(exc, "transient", False)),
    }


def raise_error(payload: Dict[str, Any]) -> None:
    """Re-raise a server-side error from an ERROR frame payload.

    Errors whose class lives in :mod:`repro.errors` and accepts a single
    message argument are reconstructed as themselves (so ``except
    ConstraintError:`` works across the wire); everything else becomes a
    :class:`~repro.errors.RemoteError` carrying the original class name
    and ``transient`` bit — retry and failover semantics are preserved
    either way.
    """
    import repro.errors as errors_module

    kind = str(payload.get("kind", "ReproError"))
    message = str(payload.get("message", ""))
    transient = bool(payload.get("transient", False))
    cls = getattr(errors_module, kind, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            exc = cls(message)
        except TypeError:
            exc = RemoteError(kind, message, transient)
        else:
            if bool(getattr(exc, "transient", False)) != transient:
                exc.transient = transient  # type: ignore[attr-defined]
    else:
        exc = RemoteError(kind, message, transient)
    raise exc
