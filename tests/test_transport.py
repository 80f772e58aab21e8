import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from pairlock.timetags import Station, encode_words
from pairlock.transport import (
    MAX_BLOCK_TAGS,
    ChecksumMismatchError,
    ConnectionLostError,
    FrameError,
    OversizeBlockError,
    ReceiverServer,
    SequenceGapError,
    TagBlock,
    _SessionState,
    decode_block,
    encode_block,
    iter_blocks,
    send_words,
)


def _words(n, start=0, step=1000):
    ticks = np.arange(start, start + n * step, step, dtype=np.int64)
    channels = np.full(n, 2, dtype=np.uint8)
    return encode_words(ticks, channels)


def test_frame_layout():
    words = _words(3)
    frame = encode_block(TagBlock(7, Station.BOB, words))
    assert frame[:4] == b"ETBK"
    version, station, reserved, seq, count = struct.unpack_from("<HBBQI", frame, 4)
    assert version == 1
    assert station == 1
    assert reserved == 0
    assert seq == 7
    assert count == 3
    assert len(frame) == 20 + 3 * 8 + 4
    payload = frame[20:-4]
    assert struct.unpack("<I", frame[-4:])[0] == zlib.crc32(payload)


def test_empty_block_is_24_bytes():
    frame = encode_block(TagBlock(0, Station.ALICE, np.empty(0, dtype=np.uint64)))
    assert len(frame) == 24
    block = decode_block(frame)
    assert block.sequence == 0
    assert len(block.words) == 0


def test_frame_round_trip():
    words = _words(100)
    frame = encode_block(TagBlock(42, Station.BOB, words))
    block = decode_block(frame)
    assert block.sequence == 42
    assert block.station is Station.BOB
    assert np.array_equal(block.words, words)


def test_corrupted_payload_is_detected():
    frame = bytearray(encode_block(TagBlock(0, Station.BOB, _words(10))))
    frame[25] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        decode_block(bytes(frame))


def test_frame_header_errors():
    frame = encode_block(TagBlock(0, Station.BOB, _words(4)))
    with pytest.raises(FrameError):
        decode_block(b"XXXX" + frame[4:])
    with pytest.raises(FrameError):
        decode_block(frame[:-2])
    with pytest.raises(FrameError):
        decode_block(b"")
    forged = bytearray(frame)
    struct.pack_into("<I", forged, 16, MAX_BLOCK_TAGS + 1)
    with pytest.raises(OversizeBlockError):
        decode_block(bytes(forged))


def test_block_size_limit():
    with pytest.raises(OversizeBlockError):
        TagBlock(0, Station.BOB, _words(MAX_BLOCK_TAGS + 1))


def test_block_rejects_unsorted_payload():
    words = _words(5)[::-1].copy()
    with pytest.raises(ValueError):
        TagBlock(0, Station.BOB, words)


def test_iter_blocks_sequences_and_slices():
    words = _words(10_000)
    blocks = list(iter_blocks(words, Station.BOB, 4096))
    assert [b.sequence for b in blocks] == [0, 1, 2]
    assert [len(b.words) for b in blocks] == [4096, 4096, 1808]
    assert np.array_equal(np.concatenate([b.words for b in blocks]), words)


def test_session_state_accepts_in_order_and_skips_duplicates():
    session = _SessionState()
    b0 = TagBlock(0, Station.BOB, _words(5))
    b1 = TagBlock(1, Station.BOB, _words(5, start=100_000))
    assert session.handle_block(b0) == 1
    assert session.handle_block(b1) == 2
    # a resent old block is acknowledged but not stored twice
    assert session.handle_block(b0) == 2
    assert len(session.words()) == 10
    with pytest.raises(SequenceGapError):
        session.handle_block(TagBlock(5, Station.BOB, _words(5)))


def test_loopback_session_delivers_identical_words():
    words = _words(20_000)
    server = ReceiverServer().start()
    try:
        stats = send_words(server.host, server.port, words, Station.BOB,
                           block_tags=4096)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert np.array_equal(server.words(), words)
    assert stats.blocks == 5
    assert stats.reconnects == 0


def test_loopback_empty_stream():
    server = ReceiverServer().start()
    try:
        stats = send_words(server.host, server.port,
                           np.empty(0, dtype=np.uint64), Station.BOB)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert len(server.words()) == 0
    assert stats.blocks == 0


class _BudgetSocket:
    """Socket wrapper that drops the connection after a byte budget."""

    def __init__(self, sock, budget):
        self._sock = sock
        self._budget = budget

    def sendall(self, data):
        if self._budget - len(data) < 0:
            self._sock.close()
            raise ConnectionResetError("budget exhausted")
        self._budget -= len(data)
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_resume_after_forced_disconnect():
    words = _words(30_000)
    server = ReceiverServer().start()
    budgets = iter([40_000])  # first connection dies mid-stream

    def factory():
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        budget = next(budgets, None)
        return _BudgetSocket(sock, budget) if budget is not None else sock

    try:
        stats = send_words(server.host, server.port, words, Station.BOB,
                           block_tags=2048, connect_factory=factory)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert stats.reconnects == 1
    assert np.array_equal(server.words(), words)


def test_on_block_consumer_gets_every_block_once_in_order():
    delivered = []
    session = _SessionState(on_block=lambda seq, w: delivered.append(seq))
    b0 = TagBlock(0, Station.BOB, _words(5))
    session.handle_block(b0)
    session.handle_block(b0)  # resent duplicate
    assert delivered == [0]

    words = _words(30_000)
    received = []
    server = ReceiverServer(on_block=lambda seq, w: received.append((seq, w))).start()
    budgets = iter([40_000])  # first connection dies mid-stream

    def factory():
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        budget = next(budgets, None)
        return _BudgetSocket(sock, budget) if budget is not None else sock

    try:
        stats = send_words(server.host, server.port, words, Station.BOB,
                           block_tags=2048, connect_factory=factory)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert stats.reconnects == 1
    assert [seq for seq, _ in received] == list(range(stats.blocks))
    assert np.array_equal(np.concatenate([w for _, w in received]), words)
    # the consumer owns the data; the server keeps no copy of it
    with pytest.raises(RuntimeError):
        server.words()


def _hello(session_id=1):
    return b"ETHS" + struct.pack("<HBBQ", 1, int(Station.BOB), 0, session_id)


def _raw_frame(station, words):
    payload = words.astype("<u8").tobytes()
    return struct.pack("<4sHBBQI", b"ETBK", 1, station, 0, 0, len(words)) + payload \
        + struct.pack("<I", zlib.crc32(payload))


@pytest.mark.parametrize("junk", [
    b"GET / HTTP/1.1\r\n",  # hello-sized, so the server reads all of it
    _hello() + _raw_frame(7, _words(4)),
    _hello() + _raw_frame(int(Station.BOB), _words(4)[::-1].copy()),
    _hello() + b"ETBK" + struct.pack("<HBBQI", 1, 1, 0, 0, MAX_BLOCK_TAGS + 1),
    # CRC-valid, but nibble 5 is no channel code
    _hello() + _raw_frame(int(Station.BOB), _words(4) | np.uint64(5)),
], ids=["bad-hello", "bad-station", "unsorted", "oversize", "bad-nibble"])
def test_junk_client_is_dropped_and_the_next_sender_is_served(junk):
    words = _words(10_000)
    server = ReceiverServer().start()
    try:
        with socket.create_connection((server.host, server.port), timeout=10.0) as conn:
            conn.sendall(junk)
            # the server drops the connection without acking a frame
            reply = b""
            while chunk := conn.recv(64):
                reply += chunk
            assert reply in (b"", b"ETHA" + bytes(8))
        stats = send_words(server.host, server.port, words, Station.BOB,
                           block_tags=4096)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert stats.reconnects == 0
    assert np.array_equal(server.words(), words)


def _trickle_hello(conn, stop):
    """Send a hello one byte every 1.5 s until stopped or dropped."""
    for byte in _hello():
        if stop.wait(1.5):
            return
        try:
            conn.sendall(bytes([byte]))
        except OSError:
            return


@pytest.mark.parametrize("client", ["silent", "trickling", "stalled-frame"])
def test_silent_client_does_not_stall_the_next_sender(client):
    # a client that connects and never completes its hello, or stops
    # inside a frame, is dropped once the 2 s record deadline passes, not
    # after the 30 s record timeout, however slowly it trickles bytes in
    words = _words(10_000)
    server = ReceiverServer().start()
    stop = threading.Event()
    try:
        with socket.create_connection((server.host, server.port), timeout=10.0) as conn:
            if client == "trickling":
                threading.Thread(target=_trickle_hello, args=(conn, stop), daemon=True).start()
            elif client == "stalled-frame":
                conn.sendall(_hello(session_id=99) + b"ETBK")
            t0 = time.perf_counter()
            stats = send_words(server.host, server.port, words, Station.BOB,
                               block_tags=4096)
            elapsed = time.perf_counter() - t0
            stop.set()
        assert server.wait(timeout=10.0)
    finally:
        stop.set()
        server.stop()
    assert elapsed < 10.0
    assert np.array_equal(server.words(), words)
    assert stats.blocks == 3


def test_end_hook_follows_every_block():
    events = []
    server = ReceiverServer(on_block=lambda seq, w: events.append(seq),
                            on_end=lambda: events.append("end")).start()
    try:
        send_words(server.host, server.port, _words(5000), Station.BOB, block_tags=2048)
        assert server.wait(timeout=10.0)
    finally:
        server.stop()
    assert events == [0, 1, 2, "end"]


def test_sender_gives_up_when_every_connection_fails():
    server = ReceiverServer().start()

    def factory():
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        return _BudgetSocket(sock, 10)

    try:
        with pytest.raises(ConnectionLostError):
            send_words(server.host, server.port, _words(10_000), Station.BOB,
                       connect_factory=factory, max_reconnects=3)
    finally:
        server.stop()


def test_concurrent_server_handles_reconnect_threads():
    # two sequential sessions with different ids are kept apart
    words_a = _words(3000)
    received = []
    server = ReceiverServer(on_block=lambda seq, w: received.append((seq, len(w)))).start()
    try:
        send_words(server.host, server.port, words_a, Station.BOB,
                   block_tags=1024, session_id=9)
        server.wait(timeout=10.0)
    finally:
        server.stop()
    assert [seq for seq, _ in received] == [0, 1, 2]
    assert sum(n for _, n in received) == 3000


def _read_n(conn, n):
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return buf


def _nak_then_ok_server(port_holder, payload_log):
    """Minimal hand-rolled receiver that naks the first frame once."""
    listener = socket.create_server(("127.0.0.1", 0))
    port_holder.append(listener.getsockname()[1])
    conn, _ = listener.accept()
    listener.close()
    with conn:
        _read_n(conn, 16)  # hello
        conn.sendall(b"ETHA" + struct.pack("<Q", 0))
        naks_left = 1
        expected = 0
        while True:
            magic = _read_n(conn, 4)
            if magic == b"ETEN":
                _read_n(conn, 8)
                conn.sendall(b"A" + struct.pack("<Q", expected))
                return
            header = magic + _read_n(conn, 16)
            count = struct.unpack_from("<I", header, 16)[0]
            _read_n(conn, 8 * count + 4)
            payload_log.append(struct.unpack_from("<Q", header, 8)[0])
            if naks_left:
                naks_left -= 1
                conn.sendall(b"N" + struct.pack("<Q", expected))
            else:
                expected += 1
                conn.sendall(b"A" + struct.pack("<Q", expected))


def test_sender_honours_nak_by_resending():
    ports: list[int] = []
    log: list[int] = []
    thread = threading.Thread(target=_nak_then_ok_server, args=(ports, log),
                              daemon=True)
    thread.start()
    while not ports:
        pass
    stats = send_words("127.0.0.1", ports[0], _words(3000), Station.BOB,
                       block_tags=2048)
    thread.join(timeout=5.0)
    # block 0 went out twice: once naked, once acknowledged
    assert log == [0, 0, 1]
    assert stats.frames_sent == 3
