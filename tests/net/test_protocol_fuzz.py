"""Structure-aware fuzzing of the wire decoder, offline and on a live server.

Every example starts from a valid frame of one of the protocol's opcodes
and mutates it the ways a broken or hostile peer would: truncated,
bit-flipped, a value tag overwritten, a length prefix that lies, values
nested past :data:`~repro.net.protocol.MAX_NESTING`. The properties:

* offline, :func:`protocol.read_frame` / :func:`protocol.decode_body`
  raise nothing but :class:`~repro.errors.ProtocolError` (and
  ``EOFError`` for a stream that simply ends);
* against a live :class:`~repro.net.server.ReproServer`, a connection
  that sends an undecodable frame gets at most one ERROR frame and is
  closed, every reply it does get is a well-formed frame, a concurrent
  healthy connection keeps being answered, no handler thread dies and no
  database latch has a holder afterwards;
* the opcodes retired with the prepared-statement conversation are
  answered like any unknown opcode.

Examples are derandomized and bounded, so the module runs in tier-1 in
well under five seconds and fails the same way on every machine.
"""

from __future__ import annotations

import datetime
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import connect
from repro.common.schema import Column, Schema
from repro.common.types import INT, VARCHAR
from repro.engine.results import Result
from repro.errors import ConstraintError, ProtocolError
from repro.net import protocol

pytestmark = pytest.mark.net

_U32 = struct.Struct("!I")


def _result_header():
    schema = Schema([Column("cid", INT, qualifier="c", nullable=False), Column("cname", VARCHAR(40))])
    result = Result(rows=[(1, "a")], schema=schema, rowcount=1, messages=["ok"])
    result.resultsets.append((schema, [(0, "x")]))
    result.resultsets.append((schema, result.rows))
    return protocol.result_header(result, in_transaction=False)


#: One valid frame per opcode of the protocol, payloads of every value kind.
VALID_FRAMES = [
    protocol.encode_frame(
        protocol.OP_HELLO,
        {"protocol": protocol.PROTOCOL_VERSION, "database": "shop", "principal": "dbo"},
    ),
    protocol.encode_frame(
        protocol.OP_WELCOME,
        {"protocol": protocol.PROTOCOL_VERSION, "server": "backend", "batch_rows": 256},
    ),
    protocol.encode_frame(
        protocol.OP_EXECUTE,
        {
            "sql": "SELECT cname FROM customer WHERE cid = @id",
            "params": {"id": 3, "big": 2**70, "f": 0.5, "b": b"\x00\x01", "ok": True},
            "budget": 5.0,
            "trace": [1, 2],
        },
    ),
    protocol.encode_frame(protocol.OP_RESULT, _result_header()),
    protocol.encode_frame(
        protocol.OP_ROWS,
        {
            "rows": [(1, "a", None, datetime.date(2003, 6, 9), datetime.datetime(2003, 6, 9, 1))],
            "last": True,
        },
    ),
    protocol.encode_frame(protocol.OP_ERROR, protocol.error_payload(ConstraintError("dup"))),
    protocol.encode_frame(protocol.OP_PING),
    protocol.encode_frame(protocol.OP_PONG, {"server": "backend"}),
    protocol.encode_frame(protocol.OP_BYE),
]
assert len(VALID_FRAMES) == len(protocol.OP_NAMES)


def _nested(depth: int) -> bytes:
    """An EXECUTE frame whose payload nests ``depth`` containers deep: the
    top-level dict, then ``params`` as lists in lists."""
    body = bytearray([protocol.OP_EXECUTE, 0x0C]) + _U32.pack(1)  # dict of one entry
    body += _U32.pack(6) + b"params"
    body += b"\x0a\x00\x00\x00\x01" * (depth - 1) + b"\x00"
    return _U32.pack(len(body)) + bytes(body)


@st.composite
def mutated_frames(draw):
    frame = bytearray(draw(st.sampled_from(VALID_FRAMES)))
    kind = draw(st.sampled_from(["truncate", "flip", "tag", "length", "nest"]))
    if kind == "truncate":
        return bytes(frame[: draw(st.integers(0, len(frame) - 1))])
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            index = draw(st.integers(0, len(frame) - 1))
            frame[index] ^= 1 << draw(st.integers(0, 7))
        return bytes(frame)
    if kind == "tag":
        if len(frame) > 5:
            frame[draw(st.integers(5, len(frame) - 1))] = draw(st.integers(0, 255))
        return bytes(frame)
    if kind == "length":
        declared = len(frame) - 4
        lie = draw(
            st.one_of(
                st.integers(declared + 1, declared + 64),
                st.integers(protocol.MAX_FRAME + 1, 2**32 - 1),
                st.just(0),
            )
        )
        return _U32.pack(lie) + bytes(frame[4:])
    return _nested(draw(st.integers(protocol.MAX_NESTING - 2, protocol.MAX_NESTING + 8)))


class _Stream:
    """The socket surface :func:`protocol.read_frame` uses, over bytes."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def recv(self, count: int) -> bytes:
        chunk = self.data[self.pos : self.pos + count]
        self.pos += len(chunk)
        return chunk


def _outcome(data: bytes):
    """Decode a byte stream the way a peer would: the frames it yields,
    then ``"eof"`` (clean end, or a frame cut short) or ``"violation"``."""
    stream, frames = _Stream(data), []
    try:
        while True:
            frames.append(protocol.read_frame(stream)[:2])
    except EOFError:
        return frames, "eof"
    except ProtocolError:
        return frames, "violation"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=mutated_frames())
def test_the_decoder_raises_nothing_but_protocol_errors(data):
    _outcome(data)  # anything else escaping fails the example
    if len(data) > 4:
        try:
            protocol.decode_body(data[4:])
        except ProtocolError:
            pass


def _encoded(value) -> bytes:
    out = bytearray()
    protocol.encode_value(out, value)
    return bytes(out)


def _one_column_schema(qualifier, nullable, sql_type) -> bytes:
    """A RESULT body whose schema's one column carries these values; only
    the value encoder is used, so shapes no Schema could hold get through."""
    column = _U32.pack(3) + b"cid" + _encoded(qualifier) + _encoded(nullable) + sql_type
    schema = b"\x0e" + _U32.pack(1) + column
    return bytes([protocol.OP_RESULT]) + b"\x0c" + _U32.pack(1) + _U32.pack(6) + b"schema" + schema


VARCHAR_OF_STRING_LENGTH = (
    b"\x0d" + _U32.pack(7) + b"varchar" + _encoded("40") + _encoded(None) + _encoded(None)
)


@pytest.mark.parametrize(
    "qualifier, nullable, sql_type",
    [
        (True, False, _encoded(INT)),  # found by a longer random campaign
        (None, 0, _encoded(INT)),
        (None, True, _encoded("int")),
        (None, True, VARCHAR_OF_STRING_LENGTH),
    ],
    ids=["qualifier", "nullable", "sql-type", "type-length"],
)
def test_a_schema_column_of_the_wrong_shape_is_a_protocol_error(qualifier, nullable, sql_type):
    assert protocol.decode_body(_one_column_schema("c", True, _encoded(VARCHAR(40))))
    with pytest.raises(ProtocolError):
        protocol.decode_body(_one_column_schema(qualifier, nullable, sql_type))


def test_nesting_up_to_the_limit_decodes_and_past_it_does_not():
    assert _outcome(_nested(protocol.MAX_NESTING))[1] == "eof"
    frames, ending = _outcome(_nested(protocol.MAX_NESTING + 1))
    assert (frames, ending) == ([], "violation")


# -- against a live server ----------------------------------------------------


def _hello(sock) -> None:
    sock.sendall(
        protocol.encode_frame(
            protocol.OP_HELLO, {"protocol": protocol.PROTOCOL_VERSION, "database": "shop"}
        )
    )
    assert protocol.read_frame(sock)[0] == protocol.OP_WELCOME


def _replies(sock):
    """Every frame the server sends until it closes the connection, and
    whether it closed with input still unread (a reset, which may discard
    the last frame in flight). A server that never closes times out."""
    frames = []
    while True:
        try:
            frames.append(protocol.read_frame(sock)[:2])
        except EOFError:
            return frames, False
        except ConnectionResetError:
            return frames, True


def test_a_live_server_drops_only_the_offender(wire_server):
    # A handler thread that dies fails this test on its own: the suite
    # turns unhandled thread exceptions into errors (pyproject.toml).
    backend, server = wire_server
    healthy = connect(server.dsn, timeout=5)
    cursor = healthy.cursor()

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=mutated_frames())
    def offend(data):
        requests, ending = _outcome(data)
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            _hello(raw)
            try:
                raw.sendall(data)
                if ending == "eof":
                    # A frame cut short (or a clean stream) waits for more
                    # bytes: hang up, and the server must let go.
                    raw.shutdown(socket.SHUT_WR)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server already dropped us (a BYE or a violation)
            replies, reset = _replies(raw)
        # One ERROR at most per decodable request, plus one for the violation.
        errors = [payload for opcode, payload in replies if opcode == protocol.OP_ERROR]
        assert len(errors) <= len(requests) + 1
        if ending == "violation" and not reset:
            opcode, payload = replies[-1]
            assert opcode == protocol.OP_ERROR and payload["kind"] == "ProtocolError"
        assert cursor.execute("SELECT cname FROM customer WHERE cid = 7").fetchall() == [
            ("cust7",)
        ]

    try:
        offend()
    finally:
        healthy.close()
    for database in backend.databases.values():
        assert database.latch.holder is None


@pytest.mark.parametrize(
    "opcode",
    [0x04, 0x05, 0x06, 0x0D, 0x7F],
    ids=["PREPARE", "PREPARED", "EXECUTE_PREPARED", "CLOSE_PREPARED", "unknown"],
)
def test_retired_opcodes_are_answered_like_any_unknown_opcode(wire_server, opcode):
    _, server = wire_server
    with socket.create_connection((server.host, server.port), timeout=5) as raw:
        _hello(raw)
        raw.sendall(protocol.encode_frame(opcode, {"handle": 1, "sql": "SELECT 1"}))
        reply, payload, _ = protocol.read_frame(raw)
        assert reply == protocol.OP_ERROR
        assert payload["kind"] == "ProtocolError"
        assert payload["message"] == f"unexpected opcode 0x{opcode:02x} from client"
        raw.sendall(protocol.encode_frame(protocol.OP_PING))  # the stream is still in step
        assert protocol.read_frame(raw)[0] == protocol.OP_PONG
