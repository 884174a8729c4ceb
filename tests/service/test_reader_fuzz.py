"""Fuzz of the one HTTP message reader both servers and the router use.

:func:`repro.service.protocol.read_message` reads the requests the
service and the router take and the shard answers the router reads.
Fed any bytes through an :class:`asyncio.StreamReader`, in request and
in response mode, it must return a message, return ``None`` when the
stream ends before a first byte, or raise :class:`ProtocolError` --
nothing else -- and it must never read past the declared body: what is
left in the stream after a message is exactly what followed its body.

Tier-1 runs the conftest profile's example budget; CI's test job runs
this module again under ``--hypothesis-profile=repro-fuzz``.
"""

from __future__ import annotations

import asyncio

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.service.protocol import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HeadClock,
    ProtocolError,
    read_message,
)

MODES = [
    pytest.param(False, None, id="request"),
    pytest.param(False, 30.0, id="request-head-clock"),
    pytest.param(True, None, id="response"),
]


def _read(data: bytes, response: bool, head_timeout: float | None):
    """Feed ``data`` and EOF; returns (outcome, bytes left unread)."""

    async def main():
        reader = asyncio.StreamReader(limit=MAX_HEAD_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        clock = None if head_timeout is None else HeadClock(head_timeout)
        try:
            outcome = await read_message(
                reader, response=response, head_clock=clock
            )
        except ProtocolError as exc:
            outcome = exc
        finally:
            if clock is not None:
                clock.close()
        return outcome, await reader.read()

    return asyncio.run(main())


def _check(data: bytes, response: bool, head_timeout: float | None):
    """The reader's contract on ``data``; returns the outcome."""
    outcome, left = _read(data, response, head_timeout)
    if outcome is None:
        assert data == b""
    elif not isinstance(outcome, ProtocolError):
        first, second, headers, body = outcome
        assert isinstance(first, int if response else str)
        assert isinstance(second, str)
        assert all(name == name.lower() for name in headers)
        assert len(body) == int(headers.get("content-length", "0"))
        head_end = data.index(b"\r\n\r\n") + 4
        # The stream limit bounds the head up to its blank line; the
        # head timer's first byte is read before that.
        assert head_end <= MAX_HEAD_BYTES + 5
        assert data[head_end:head_end + len(body)] == body
        assert left == data[head_end + len(body):]
    return outcome


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(data=st.binary(max_size=600))
def test_arbitrary_bytes(response, head_timeout, data):
    _check(data, response, head_timeout)


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_after_a_valid_head(response, head_timeout, data):
    start = b"HTTP/1.1 200 OK" if response else b"POST /mine HTTP/1.1"
    _check(start + b"\r\n" + data, response, head_timeout)


_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "Connection",
     "Expect", "X-Trace-Id", "Host", " content-length ", "X"]
)
_VALUES = st.one_of(
    st.integers(-5, 40).map(str),
    st.sampled_from(
        ["", "chunked", "gzip, chunked", "identity", "close", "keep-alive",
         "100-continue", "abc", "1e3", "0x10", " 7 ", "+3",
         str(MAX_BODY_BYTES), str(MAX_BODY_BYTES + 1), "9" * 40]
    ),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=255),
        max_size=12,
    ),
)
_GOOD_STARTS = {
    True: ["HTTP/1.1 200 OK", "HTTP/1.0 503 Service Unavailable"],
    False: ["POST /mine HTTP/1.1", "get /healthz HTTP/1.0"],
}
_BAD_STARTS = {
    True: ["HTTP/1.1 20 OK", "HTTP/2 200", "HTTP/1.1 2x0 OK", "ICY 200 OK"],
    False: ["GET / HTTP/2", "POST /mine", "BREW /pot HTTP/1.1 extra", ""],
}


@st.composite
def messages(draw, response: bool):
    """(raw bytes, start line, header pairs, bytes after the head): a
    head of drawn headers (repeats allowed), then a body that may be
    shorter or longer than declared, and trailing bytes."""
    start = draw(st.sampled_from(_GOOD_STARTS[response] + _BAD_STARTS[response]))
    headers = draw(st.lists(st.tuples(_NAMES, _VALUES), max_size=6))
    head = "\r\n".join(
        [start, *(f"{name}: {value}" for name, value in headers)]
    ) + "\r\n\r\n"
    rest = draw(st.binary(max_size=72))
    return head.encode("latin-1") + rest, start, headers, rest


def _length(value: str) -> int | None:
    try:
        length = int(value)
    except ValueError:
        return None
    return length if 0 <= length <= MAX_BODY_BYTES else None


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(data=st.data())
def test_structured_messages(response, head_timeout, data):
    raw, start, headers, rest = data.draw(messages(response))
    outcome = _check(raw, response, head_timeout)
    fields: dict[str, list[str]] = {}
    for name, value in headers:
        fields.setdefault(name.strip().lower(), []).append(value.strip())
    lengths = fields.get("content-length", ["0"])
    encodings = fields.get("transfer-encoding", [""])
    length = _length(lengths[-1])
    refused = (
        len(set(lengths)) > 1
        or len(set(encodings)) > 1
        or "chunked" in encodings[-1].lower()
        or length is None
        or start in _BAD_STARTS[response]
        or len(rest) < length
    )
    if refused:
        # Framed two ways, chunked, out of range, malformed or truncated.
        assert isinstance(outcome, ProtocolError)
    else:
        assert not isinstance(outcome, ProtocolError), outcome
        assert outcome[3] == rest[:length]


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(
    lengths=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    encodings=st.lists(
        st.sampled_from(["identity", "gzip", "chunked"]), max_size=2
    ),
)
def test_repeated_framing_headers(response, head_timeout, lengths, encodings):
    start = "HTTP/1.1 200 OK" if response else "POST /mine HTTP/1.1"
    head = start + "".join(
        [f"\r\nContent-Length: {length}" for length in lengths]
        + [f"\r\ntransfer-encoding: {value}" for value in encodings]
    ) + "\r\n\r\n"
    outcome = _check(head.encode() + b"x" * 12, response, head_timeout)
    refused = (
        len(set(lengths)) > 1
        or len(set(encodings)) > 1
        or "chunked" in encodings
    )
    assert isinstance(outcome, ProtocolError) == refused


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(cut=st.integers(0, 200))
def test_truncated_messages(response, head_timeout, cut):
    whole = (
        b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json"
        if response else
        b"POST /mine HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
    ) + b"\r\nContent-Length: 20\r\n\r\n" + b'{"text": "abababab"}'
    outcome = _check(whole[:cut], response, head_timeout)
    if cut == 0:
        assert outcome is None
    elif cut < len(whole):
        assert isinstance(outcome, ProtocolError)
        assert "truncated" in str(outcome)
    else:
        assert outcome[3] == b'{"text": "abababab"}'


@pytest.mark.parametrize("response, head_timeout", MODES)
@given(size=st.integers(MAX_HEAD_BYTES - 2048, MAX_HEAD_BYTES + 4096))
def test_heads_past_the_limit(response, head_timeout, size):
    start = b"HTTP/1.1 200 OK" if response else b"GET /healthz HTTP/1.1"
    filler = b"X-Padding: " + b"p" * (size - len(start) - 17)
    data = start + b"\r\n" + filler + b"\r\n\r\n"
    assert len(data) == size
    outcome = _check(data, response, head_timeout)
    if size <= MAX_HEAD_BYTES:
        assert not isinstance(outcome, ProtocolError), outcome
    elif size > MAX_HEAD_BYTES + 5:
        assert isinstance(outcome, ProtocolError)
        assert "too large" in str(outcome)
