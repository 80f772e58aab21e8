"""Reliable block transport for tag streams.

The receiver's tags travel to the analysis side in framed blocks over
TCP. All integers are little-endian. A frame is

    offset  size  field
    0       4     magic "ETBK"
    4       2     protocol version (currently 1)
    6       1     station id
    7       1     reserved, zero
    8       8     block sequence number, starting at 0
    16      4     tag count (at most 8192)
    20      8*n   payload, encoded tag words in time order
    20+8*n  4     CRC-32 of the payload

A session opens with a hello record carrying a session id; the receiver
answers with the next sequence number it expects, which is what makes
reconnection after a dropped link resume without loss or duplication.
Each frame is answered by a 9-byte ack (next expected sequence) or nak
(resend request, sent on a CRC mismatch). A frame arriving with a
sequence beyond the expected one means data was lost in a way the
protocol cannot repair and is treated as fatal. The sender closes with an
end record naming the total block count.

Stop-and-wait acking is deliberate: at the nominal 8500 tags/s a block
spans nearly a second, so one round trip per block costs nothing, and it
keeps the resume logic trivial. A frame is acked only once the
receiver's consumer has taken it, so a consumer slower than the sender
paces the sender, and the receiver holds no backlog. A consumer that
holds one frame past the sender's reply deadline costs a reconnect, not
the run: the sender's reconnect budget counts failures since the last
acknowledged progress.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .timetags import Station, TagStream, decode_words, encode_words

PROTOCOL_VERSION = 1
MAX_BLOCK_TAGS = 8192

FRAME_MAGIC = b"ETBK"
HELLO_MAGIC = b"ETHS"
HELLO_REPLY_MAGIC = b"ETHA"
END_MAGIC = b"ETEN"

_FRAME_HEADER = struct.Struct("<4sHBBQI")
_HELLO = struct.Struct("<4sHBBQ")
_HELLO_REPLY = struct.Struct("<4sQ")
_END = struct.Struct("<4sQ")
_REPLY = struct.Struct("<cQ")
_CRC = struct.Struct("<I")

ACK = b"A"
NAK = b"N"

# The whole hello, and the rest of each record once its magic is in, must
# arrive within _RECORD_DEADLINE, so a client that stays silent, trickles
# its hello or stalls mid-record is dropped within it instead of holding
# the serial accept loop for _RECORD_TIMEOUT, the limit on each wait for
# the next record.
_RECORD_DEADLINE = 2.0
_RECORD_TIMEOUT = 30.0
# Connect and per-reply timeout on the sending side. A frame's reply
# waits for the receiver's consumer to take the frame.
_SEND_TIMEOUT = 10.0


class TransportError(Exception):
    pass


class FrameError(TransportError):
    """Malformed frame or handshake record."""


class OversizeBlockError(TransportError):
    """A block exceeds the 8192-tag payload limit."""


class ChecksumMismatchError(TransportError):
    """Payload CRC does not match; the block should be re-requested."""


class SequenceGapError(TransportError):
    """A sequence number was skipped; the stream cannot be trusted."""


class ConnectionLostError(TransportError):
    """The peer went away mid-session; reconnecting may resume."""


@dataclass(frozen=True)
class TagBlock:
    """One transport unit: a slice of the tag stream."""

    sequence: int
    station: Station
    words: np.ndarray  # uint64

    def __post_init__(self) -> None:
        words = np.asarray(self.words, dtype=np.uint64)
        if len(words) > MAX_BLOCK_TAGS:
            raise OversizeBlockError(f"{len(words)} tags exceed the block limit")
        ticks, _channels = decode_words(words)
        if np.any(ticks[1:] < ticks[:-1]):
            raise ValueError("block payload must be in time order")
        object.__setattr__(self, "words", words)


def encode_block(block: TagBlock) -> bytes:
    payload = block.words.astype("<u8").tobytes()
    header = _FRAME_HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, int(block.station),
                                0, block.sequence, len(block.words))
    return header + payload + _CRC.pack(zlib.crc32(payload))


def decode_block(data: bytes) -> TagBlock:
    """Decode one complete frame from a byte string."""
    if len(data) < _FRAME_HEADER.size + _CRC.size:
        raise FrameError("frame shorter than header plus checksum")
    magic, version, station, _res, sequence, count = _FRAME_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError(f"unsupported protocol version {version}")
    if count > MAX_BLOCK_TAGS:
        raise OversizeBlockError(f"frame announces {count} tags")
    need = _FRAME_HEADER.size + 8 * count + _CRC.size
    if len(data) != need:
        raise FrameError(f"frame length {len(data)} != expected {need}")
    payload = data[_FRAME_HEADER.size:_FRAME_HEADER.size + 8 * count]
    (crc,) = _CRC.unpack_from(data, _FRAME_HEADER.size + 8 * count)
    if crc != zlib.crc32(payload):
        raise ChecksumMismatchError(f"crc mismatch on block {sequence}")
    words = np.frombuffer(payload, dtype="<u8").astype(np.uint64)
    try:
        return TagBlock(sequence, Station(station), words)
    except ValueError as exc:  # unknown station id or channel nibble, unsorted payload
        raise FrameError(f"block {sequence}: {exc}") from exc


def iter_blocks(words: np.ndarray, station: Station,
                block_tags: int = MAX_BLOCK_TAGS) -> Iterator[TagBlock]:
    """Split an encoded word array into sequenced blocks."""
    if not 1 <= block_tags <= MAX_BLOCK_TAGS:
        raise ValueError(f"block_tags must be in 1..{MAX_BLOCK_TAGS}")
    for seq, start in enumerate(range(0, len(words), block_tags)):
        yield TagBlock(seq, station, words[start:start + block_tags])


def _read_exact(conn: socket.socket, n: int, deadline: float | None = None) -> bytes:
    """n bytes from conn; a deadline (time.monotonic()) bounds the whole
    read, not only each recv."""
    buf = bytearray()
    while len(buf) < n:
        try:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("timed out")
                conn.settimeout(remaining)
            chunk = conn.recv(n - len(buf))
        except (OSError, ValueError) as exc:
            raise ConnectionLostError(str(exc)) from exc
        if not chunk:
            raise ConnectionLostError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def _reply(conn: socket.socket, record: bytes) -> None:
    """Send a reply record; a peer that went away meanwhile is lost,
    not fatal."""
    try:
        conn.sendall(record)
    except OSError as exc:
        raise ConnectionLostError(str(exc)) from exc


class _SessionState:
    """Receive-side reassembly for one session id.

    Accepted blocks go to on_block when one is given, and are kept for
    words() otherwise.
    """

    def __init__(self, on_block: Callable[[int, np.ndarray], None] | None = None):
        self.next_sequence = 0
        self.block_words: list[np.ndarray] = []
        self.on_block = on_block

    def handle_block(self, block: TagBlock) -> int:
        """Accept a block, returning the next expected sequence.

        Duplicates (sequence already received) are acked and dropped;
        a sequence beyond the expected one raises SequenceGapError.
        """
        if block.sequence > self.next_sequence:
            raise SequenceGapError(
                f"expected block {self.next_sequence}, got {block.sequence}")
        if block.sequence == self.next_sequence:
            self.next_sequence += 1
            if self.on_block is None:
                self.block_words.append(block.words)
            else:
                self.on_block(block.sequence, block.words)
        return self.next_sequence

    def words(self) -> np.ndarray:
        if not self.block_words:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(self.block_words)


class ReceiverServer:
    """Threaded TCP endpoint that reassembles one tag stream.

    Survives sender disconnects: session state is keyed by the hello's
    session id, so a reconnecting sender resumes at the first unacked
    block. A connection that sends a malformed or oversize record, or
    takes over two seconds for its hello or for the rest of a record once
    its magic is in, is dropped and the server keeps listening; a
    sequence gap is fatal.
    on_block, when given, runs on the receiving thread, and a frame is
    acked only after it returns, so a slow consumer paces the sender. An
    exception from on_block is fatal.
    wait() returns once the sender's end record arrives, and raises the
    fatal error if there was one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 on_block: Callable[[int, np.ndarray], None] | None = None):
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._sessions: dict[int, _SessionState] = {}
        self._active: _SessionState | None = None
        self._on_block = on_block
        self._complete = threading.Event()
        self._stop = threading.Event()
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def start(self) -> "ReceiverServer":
        self._thread.start()
        return self

    def _serve(self) -> None:
        try:
            while not self._stop.is_set() and not self._complete.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    try:
                        self._handle_connection(conn)
                    except (ConnectionLostError, FrameError, OversizeBlockError):
                        # One peer's fault; a sender resumes its session on
                        # reconnect.
                        continue
        except Exception as exc:  # surfaced through wait()
            self._error = exc
            self._complete.set()
        finally:
            self._listener.close()

    def _handle_connection(self, conn: socket.socket) -> None:
        raw = _read_exact(conn, _HELLO.size, time.monotonic() + _RECORD_DEADLINE)
        magic, version, _station, _res, session_id = _HELLO.unpack(raw)
        if magic != HELLO_MAGIC or version != PROTOCOL_VERSION:
            raise FrameError("bad hello record")
        session = self._sessions.setdefault(session_id, _SessionState(self._on_block))
        self._active = session
        _reply(conn, _HELLO_REPLY.pack(HELLO_REPLY_MAGIC, session.next_sequence))
        while True:
            conn.settimeout(_RECORD_TIMEOUT)
            magic = _read_exact(conn, 4)
            deadline = time.monotonic() + _RECORD_DEADLINE
            if magic == END_MAGIC:
                (total,) = struct.unpack("<Q", _read_exact(conn, 8, deadline))
                if total != session.next_sequence:
                    raise SequenceGapError(
                        f"end record names {total} blocks, received {session.next_sequence}")
                _reply(conn, _REPLY.pack(ACK, session.next_sequence))
                self._complete.set()
                return
            if magic != FRAME_MAGIC:
                raise FrameError(f"unexpected record magic {magic!r}")
            rest = _read_exact(conn, _FRAME_HEADER.size - 4, deadline)
            header = magic + rest
            _m, version, _station, _res, sequence, count = _FRAME_HEADER.unpack(header)
            if version != PROTOCOL_VERSION:
                raise FrameError(f"unsupported protocol version {version}")
            if count > MAX_BLOCK_TAGS:
                raise OversizeBlockError(f"frame announces {count} tags")
            body = _read_exact(conn, 8 * count + _CRC.size, deadline)
            try:
                block = decode_block(header + body)
            except ChecksumMismatchError:
                _reply(conn, _REPLY.pack(NAK, sequence))
                continue
            next_seq = session.handle_block(block)
            _reply(conn, _REPLY.pack(ACK, next_seq))

    def wait(self, timeout: float | None = None) -> bool:
        done = self._complete.wait(timeout)
        if self._error is not None:
            raise self._error
        return done

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def words(self) -> np.ndarray:
        """All words received so far, in order; only without on_block."""
        if self._on_block is not None:
            raise RuntimeError("blocks went to the on_block consumer and were not kept")
        if self._active is None:
            return np.empty(0, dtype=np.uint64)
        return self._active.words()


@dataclass
class SendStats:
    tags: int
    blocks: int
    frames_sent: int
    reconnects: int
    elapsed: float

    @property
    def tags_per_second(self) -> float:
        return self.tags / self.elapsed if self.elapsed > 0 else float("inf")


def send_words(host: str, port: int, words: np.ndarray, station: Station, *,
               block_tags: int = MAX_BLOCK_TAGS, session_id: int = 1,
               max_reconnects: int = 8,
               connect_factory: Callable[[], socket.socket] | None = None) -> SendStats:
    """Send an encoded word array, resuming across dropped connections.

    It gives up after max_reconnects reconnects without an ack that
    advances the stream. connect_factory exists for tests that need to
    inject failing sockets; the default opens a plain TCP connection to
    (host, port).
    """
    blocks = list(iter_blocks(words, station, block_tags)) if len(words) else []
    t0 = time.perf_counter()
    frames_sent = 0
    reconnects = -1
    attempts = 0
    while True:
        reconnects += 1
        if attempts > max_reconnects:
            raise ConnectionLostError(f"gave up after {attempts} connection attempts")
        attempts += 1
        try:
            if connect_factory is not None:
                conn = connect_factory()
            else:
                conn = socket.create_connection((host, port), timeout=_SEND_TIMEOUT)
        except OSError as exc:
            raise ConnectionLostError(str(exc)) from exc
        try:
            conn.settimeout(_SEND_TIMEOUT)
            conn.sendall(_HELLO.pack(HELLO_MAGIC, PROTOCOL_VERSION, int(station),
                                     0, session_id))
            raw = _read_exact(conn, _HELLO_REPLY.size)
            magic, next_needed = _HELLO_REPLY.unpack(raw)
            if magic != HELLO_REPLY_MAGIC:
                raise FrameError("bad hello reply")
            i = int(next_needed)
            while i < len(blocks):
                conn.sendall(encode_block(blocks[i]))
                frames_sent += 1
                kind, value = _REPLY.unpack(_read_exact(conn, _REPLY.size))
                if kind not in (ACK, NAK):
                    raise FrameError(f"unknown reply {kind!r}")
                if value > i:  # progress renews the reconnect budget
                    attempts = 1
                i = int(value)
            conn.sendall(_END.pack(END_MAGIC, len(blocks)))
            kind, _value = _REPLY.unpack(_read_exact(conn, _REPLY.size))
            if kind != ACK:
                raise FrameError("end record was not acknowledged")
            conn.close()
            elapsed = time.perf_counter() - t0
            return SendStats(tags=len(words), blocks=len(blocks),
                             frames_sent=frames_sent, reconnects=reconnects,
                             elapsed=elapsed)
        except (ConnectionLostError, OSError) as _exc:
            try:
                conn.close()
            except OSError:
                pass
            continue


def send_stream(host: str, port: int, stream: TagStream, **kwargs) -> SendStats:
    words = encode_words(stream.ticks, stream.channels)
    return send_words(host, port, words, stream.station, **kwargs)
