"""Tests for repro.parallel.protocol: framing, digests, typed failures.

The transport contract under test: every way a length-prefixed stream
can lie — wrong magic, corrupted body, truncated frame, an impossible
length field, valid JSON that is not a protocol message — ends in a
typed :class:`ShardTransportError` (stream poisoned) or
:class:`HostLostError` (peer gone), never in garbage silently handed
to the dispatch layer.  The same holds one layer up: nothing a peer
can frame ends a worker host's accept loop.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.errors import HostLostError, ShardTransportError
from repro.parallel import WorkerHost
from repro.parallel.protocol import (
    DIGEST_CHARS,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameChannel,
    body_digest,
    decode_body,
    encode_frame,
    hello_payload,
    read_exact,
)

_HEADER_SIZE = 4 + 4 + DIGEST_CHARS


def _pair():
    a, b = socket.socketpair()
    return FrameChannel(a, "a"), FrameChannel(b, "b"), a, b


class TestEncodeDecode:
    def test_roundtrip(self):
        frame = encode_frame("shard", {"shard": 3, "payload": {"x": 1}})
        body = frame[_HEADER_SIZE:]
        kind, payload = decode_body(body)
        assert kind == "shard"
        assert payload == {"shard": 3, "payload": {"x": 1}}

    def test_header_digest_matches_body(self):
        frame = encode_frame("heartbeat", {"seq": 1})
        magic, length, digest = struct.unpack(
            ">4sI16s", frame[:_HEADER_SIZE]
        )
        assert magic == MAGIC
        assert length == len(frame) - _HEADER_SIZE
        assert digest == body_digest(frame[_HEADER_SIZE:])

    def test_encoding_is_deterministic(self):
        """Chaos replay depends on frames being byte-reproducible."""
        a = encode_frame("result", {"b": 2, "a": 1})
        b = encode_frame("result", {"a": 1, "b": 2})
        assert a == b

    def test_non_protocol_json_rejected(self):
        with pytest.raises(ShardTransportError):
            decode_body(b'{"not": "a frame"}')

    def test_non_json_rejected(self):
        with pytest.raises(ShardTransportError):
            decode_body(b"\xff\xfe garbage")

    def test_version_mismatch_rejected(self):
        body = json.dumps(
            {"v": PROTOCOL_VERSION + 1, "kind": "x", "payload": None}
        ).encode()
        with pytest.raises(ShardTransportError):
            decode_body(body)


class TestFrameChannel:
    def test_send_recv_roundtrip(self):
        tx, rx, _, _ = _pair()
        tx.send("shard", {"shard": 7, "lease": "7:1"})
        kind, payload = rx.recv(timeout=5.0)
        assert (kind, payload) == ("shard", {"shard": 7, "lease": "7:1"})
        tx.close()
        rx.close()

    def test_corrupted_body_is_transport_error(self):
        tx, rx, raw_tx, _ = _pair()
        frame = bytearray(encode_frame("result", {"ok": True, "value": 42}))
        frame[-1] ^= 0xFF  # flip one byte of the body
        raw_tx.sendall(bytes(frame))
        with pytest.raises(ShardTransportError, match="digest mismatch"):
            rx.recv(timeout=5.0)
        tx.close()
        rx.close()

    def test_bad_magic_is_transport_error(self):
        tx, rx, raw_tx, _ = _pair()
        frame = bytearray(encode_frame("result", {}))
        frame[0:4] = b"HTTP"
        raw_tx.sendall(bytes(frame))
        with pytest.raises(ShardTransportError, match="magic"):
            rx.recv(timeout=5.0)
        tx.close()
        rx.close()

    def test_oversized_length_is_transport_error(self):
        """A corrupted length field must fail before any allocation."""
        tx, rx, raw_tx, _ = _pair()
        header = struct.pack(
            ">4sI16s", MAGIC, MAX_FRAME_BYTES + 1, b"0" * DIGEST_CHARS
        )
        raw_tx.sendall(header)
        with pytest.raises(ShardTransportError, match="exceeds"):
            rx.recv(timeout=5.0)
        tx.close()
        rx.close()

    def test_truncated_frame_is_host_lost(self):
        tx, rx, raw_tx, _ = _pair()
        frame = encode_frame("result", {"ok": True})
        raw_tx.sendall(frame[: len(frame) - 3])
        raw_tx.close()
        with pytest.raises(HostLostError, match="closed"):
            rx.recv(timeout=5.0)
        rx.close()

    def test_eof_at_frame_boundary_is_host_lost(self):
        tx, rx, raw_tx, _ = _pair()
        raw_tx.close()
        with pytest.raises(HostLostError):
            rx.recv(timeout=5.0)
        rx.close()

    def test_recv_timeout_propagates(self):
        """socket.timeout is the lease layer's signal — it must not be
        swallowed into a transport error."""
        tx, rx, _, _ = _pair()
        with pytest.raises(socket.timeout):
            rx.recv(timeout=0.05)
        tx.close()
        rx.close()

    def test_oversized_send_rejected_locally(self):
        tx, rx, _, _ = _pair()
        with pytest.raises(ShardTransportError):
            tx.send("result", {"blob": "x" * (MAX_FRAME_BYTES + 1)})
        tx.close()
        rx.close()

    def test_multiple_frames_in_sequence(self):
        tx, rx, _, _ = _pair()
        sent = [("heartbeat", {"seq": i}) for i in range(5)]

        def pump():
            for kind, payload in sent:
                tx.send(kind, payload)

        thread = threading.Thread(target=pump)
        thread.start()
        got = [rx.recv(timeout=5.0) for _ in sent]
        thread.join()
        assert got == sent
        tx.close()
        rx.close()


class TestReadExact:
    def test_reads_across_partial_chunks(self):
        a, b = socket.socketpair()

        def dribble():
            for chunk in (b"ab", b"cd", b"ef"):
                a.sendall(chunk)

        thread = threading.Thread(target=dribble)
        thread.start()
        assert read_exact(b, 6) == b"abcdef"
        thread.join()
        a.close()
        b.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

#: Shard-request-shaped objects reach past the frame check into task
#: resolution and result framing.
_SHARD_LIKE = st.fixed_dictionaries(
    {}, optional={key: _JSON for key in
                  ("shard", "lease", "fn", "payload", "task_seed", "label")}
)


def _framed(body):
    """A header that vouches for ``body``: gets it to the JSON checks."""
    return struct.pack(">4sI16s", MAGIC, len(body), body_digest(body)) + body


_BYTES = st.binary(max_size=128)


class TestMalformedInputFailsTyped:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        _BYTES, _BYTES.map(lambda rest: MAGIC + rest), _BYTES.map(_framed)
    ))
    def test_arbitrary_bytes_fail_typed(self, blob):
        raw_tx, raw_rx = socket.socketpair()
        rx = FrameChannel(raw_rx, "rx")
        raw_tx.sendall(blob)
        raw_tx.close()  # EOF behind the blob: recv can never block
        with pytest.raises(
            (ShardTransportError, HostLostError, socket.timeout)
        ):
            while True:
                rx.recv(timeout=5.0)
        rx.close()

    def test_arbitrary_shard_payloads_never_end_the_accept_loop(self):
        """A well-framed ``shard`` message with any JSON payload gets an
        in-band ``ok=false`` result or a typed connection drop; either
        way the host accepts the next coordinator."""
        host = WorkerHost(inline=True, task_modules=())
        host.bind()
        thread = threading.Thread(target=host.serve_forever, daemon=True)
        thread.start()

        @settings(max_examples=50, deadline=None)
        @given(st.one_of(_JSON, _SHARD_LIKE))
        def probe(payload):
            channel = FrameChannel(
                socket.create_connection((host.host, host.port), timeout=5.0),
                "host",
            )
            try:
                channel.send(
                    "hello", hello_payload(repro.__version__, "coordinator")
                )
                assert channel.recv(timeout=5.0)[0] == "hello_ack"
                channel.send("shard", payload)
                try:
                    kind, reply = channel.recv(timeout=5.0)
                except (ShardTransportError, HostLostError):
                    return  # typed drop: not a shard request at all
                assert kind == "result" and reply["ok"] is False
            finally:
                channel.close()

        try:
            probe()
        finally:
            host.close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
