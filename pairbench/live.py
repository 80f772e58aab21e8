"""Open-loop live run: ``pairlock serve`` fed by a paced sender.

The benchmark process is the remote station. It sends Bob's tag file
with ``pairlock.transport.send_stream`` (what ``pairlock send`` runs),
but through a socket wrapper that holds each 8192-tag frame until its
last tag has been recorded, with Bob's clock running `speed` times
faster than real time. The schedule is fixed in advance (an open loop),
so a slow receiver delays acks, not the schedule, and latency counts
from when data was due, not from when it was sent.
"""

from __future__ import annotations

import re
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from pairlock.timetags import TICKS_PER_SECOND, read_tagfile
from pairlock.transport import FRAME_MAGIC, MAX_BLOCK_TAGS, TransportError, send_stream

from stages import Proc, child_env, command, load_trace, reap

BLOCK_LINE = re.compile(r"^block\s+(\d+) \[\s*([-\d.]+),\s*([-\d.]+)\)")
READY_TIMEOUT_S = 60.0
# Receiver data past a block's end that serve waits for before it reports
# the block (the look-ahead hard-coded in pairlock.sync).
LOOKAHEAD_S = 1.5


@dataclass
class SendRecord:
    """What the paced sender saw, one entry per frame."""

    due: list[float]
    lag: list[float] = field(default_factory=list)        # send time - due time
    ack_wait: list[float] = field(default_factory=list)   # frame sent -> reply read
    frames: int = 0
    bytes: int = 0
    last_ack: float | None = None
    sent_at: float | None = None


class PacedSocket:
    """The subset of socket that send_words uses, holding frames until due."""

    def __init__(self, sock: socket.socket, record: SendRecord):
        self._sock = sock
        self._rec = record

    def settimeout(self, timeout: float) -> None:
        self._sock.settimeout(timeout)

    def sendall(self, data: bytes) -> None:
        rec = self._rec
        if data[:4] == FRAME_MAGIC:
            due = rec.due[int.from_bytes(data[8:16], "little")]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec.lag.append(time.perf_counter() - due)
            rec.frames += 1
            self._sock.sendall(data)
            rec.sent_at = time.perf_counter()
        else:
            self._sock.sendall(data)
        rec.bytes += len(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        rec = self._rec
        if data and rec.sent_at is not None:
            rec.last_ack = time.perf_counter()
            rec.ack_wait.append(rec.last_ack - rec.sent_at)
            rec.sent_at = None
        return data

    def close(self) -> None:
        self._sock.close()


@dataclass
class LiveResult:
    serve: Proc
    problems: list[str]         # on the serve side
    send_error: str | None
    latencies: list[float]      # seconds, one per block status line after start-up
    drain_s: float | None       # last frame acked -> serve reaped
    ready_s: float | None       # spawn -> "listening on" read
    send: SendRecord | None
    resends: int = 0
    reconnects: int = 0


def run_live(serve_args: list[str], bob_path: Path, workdir: Path, src: Path,
             speed: float, truth_offset, spans: Path | None = None) -> LiveResult:
    """Start serve, stream bob_path into it on schedule, time each status line.

    A block's latency runs from when Bob recorded the end of that block,
    on the accelerated clock, to when serve printed its status line, so
    it includes batching into frames and the engine's look-ahead.

    Start-up blocks are not timed. serve reports nothing until it has run
    its first acquisition, which waits for a 10 s window of receiver data
    and then computes while frames keep arriving. A block whose data,
    look-ahead included, was all due before serve printed its first
    status line waited on that start-up, not on steady operation.
    truth_offset(t) gives the true Bob-minus-Alice offset at Alice time t,
    which maps the block's end to Bob's clock.
    """
    bob = read_tagfile(bob_path)
    seconds = bob.ticks / TICKS_PER_SECOND
    first = float(seconds[0])
    # A frame is due once its last tag has been recorded.
    due_rel = [(float(seconds[min(i + MAX_BLOCK_TAGS, len(bob)) - 1]) - first) / speed
               for i in range(0, len(bob), MAX_BLOCK_TAGS)]

    lines: list[tuple[float, str]] = []
    ready = threading.Event()
    err_path = workdir / "serve.err"
    problems: list[str] = []
    send_error = None
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(command(serve_args, spans, t_spawn), cwd=workdir,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(src, unbuffered=True),
                                text=True)

        def read_lines() -> None:
            for line in proc.stdout:
                lines.append((time.perf_counter(), line))
                if line.startswith("listening on"):
                    ready.set()
            ready.set()

        reader = threading.Thread(target=read_lines, daemon=True)
        reader.start()
        record = None
        stats = None
        try:
            ready.wait(READY_TIMEOUT_S)
            listening = [(t, l) for t, l in lines if l.startswith("listening on")]
            if not listening:
                problems.append("serve never printed its listening line")
                proc.kill()
            else:
                t_ready, line = listening[0]
                port = int(line.rsplit(":", 1)[1])
                origin = time.perf_counter()
                record = SendRecord(due=[origin + d for d in due_rel])
                try:
                    stats = send_stream(
                        "127.0.0.1", port, bob, connect_factory=lambda: PacedSocket(
                            socket.create_connection(("127.0.0.1", port), timeout=10.0),
                            record))
                except (TransportError, OSError) as exc:
                    send_error = f"send failed: {exc}"
                    proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            code, rss_mb, t_exit = reap(proc)
            reader.join(timeout=10.0)
            proc.stdout.close()
    stdout = "".join(l for _t, l in lines)
    serve = Proc(code, t_exit - t_spawn, rss_mb, stdout,
                 err_path.read_text(encoding="utf-8", errors="replace"), load_trace(spans))
    if record is None or stats is None:
        return LiveResult(serve, problems, send_error, [], None, None, record)

    blocks = [(t, m) for t, line in lines if (m := BLOCK_LINE.match(line))]
    latencies = []
    for t_read, m in blocks:
        t_end = float(m.group(3))
        due = origin + (t_end + truth_offset(t_end) - first) / speed
        if due + LOOKAHEAD_S / speed > blocks[0][0]:
            latencies.append(t_read - due)
    drain = t_exit - record.last_ack if record.last_ack is not None else None
    return LiveResult(serve, problems, None, latencies, drain, t_ready - t_spawn, record,
                      resends=stats.frames_sent - stats.blocks, reconnects=stats.reconnects)
