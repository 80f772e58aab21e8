import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pairlock
from pairlock import cli, timetags
from pairlock.cli import main
from pairlock.timetags import Station, TagStream, encode_words, read_tagfile, write_tagfile
from pairlock.transport import TagBlock, encode_block, send_stream


def _simulate(tmp_path, duration="8", seed="5", extra=()):
    a = tmp_path / "a.ettag"
    b = tmp_path / "b.ettag"
    rc = main(["simulate", "--duration", duration, "--seed", seed,
               "--offset", "0.2", "--drift", "5e-11",
               "--out-a", str(a), "--out-b", str(b), *extra])
    assert rc == 0
    return a, b


def test_simulate_writes_readable_files(tmp_path, capsys):
    a, b = _simulate(tmp_path, extra=("--truth", str(tmp_path / "truth.json")))
    out = capsys.readouterr().out
    assert "alice:" in out and "bob:" in out
    alice = read_tagfile(a)
    bob = read_tagfile(b)
    assert alice.station is Station.ALICE
    assert bob.station is Station.BOB
    assert len(alice) > 50_000
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["relative_offset_t0"] == pytest.approx(0.2, abs=1e-12)
    assert truth["relative_drift"] == pytest.approx(5e-11, rel=1e-6)
    assert truth["bob"]["start_offset"] == 0.2


def test_simulate_without_gps_writes_no_markers(tmp_path):
    runs = {}
    for name, extra in (("gps", ()), ("nogps", ("--no-gps",))):
        run_dir = tmp_path / name
        run_dir.mkdir()
        truth = run_dir / "truth.json"
        a, b = _simulate(run_dir, duration="3", extra=(*extra, "--truth", str(truth)))
        runs[name] = (read_tagfile(a), read_tagfile(b), truth.read_text())
    gps_alice, gps_bob, gps_truth = runs["gps"]
    alice, bob, truth = runs["nogps"]
    assert len(gps_alice.marker_seconds()) and len(gps_bob.marker_seconds())
    assert len(alice.marker_seconds()) == 0
    assert len(bob.marker_seconds()) == 0
    assert truth == gps_truth


def test_simulate_rejects_bad_duration(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--duration", "-3", "--out-a", "x", "--out-b", "y"])
    assert err.value.code == 2


@pytest.mark.parametrize("option, value", [("--drift", "nan"), ("--offset", "nan"),
                                           ("--offset", "inf"), ("--duration", "inf")])
def test_simulate_refuses_non_finite_options(tmp_path, capsys, option, value):
    # unchecked, --drift nan writes an empty bob.ettag, --offset nan runs
    # with no offset and --duration inf overflows
    args = {"--duration": "2", "--offset": "0.2", "--drift": "5e-11", option: value}
    with pytest.raises(SystemExit) as err:
        main(["simulate", *(x for kv in args.items() for x in kv),
              "--out-a", str(tmp_path / "a.ettag"), "--out-b", str(tmp_path / "b.ettag")])
    assert err.value.code == 2
    assert f"expected a finite number, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "b.ettag").exists()


@pytest.mark.parametrize("option, value, key", [("--drift", "-5e-11", "relative_drift"),
                                                ("--offset", "-1e-3", "relative_offset_t0"),
                                                ("--off", "-1e-3", "relative_offset_t0")])
def test_simulate_takes_negative_exponent_values(tmp_path, option, value, key):
    # argparse alone reads "-5e-11" after an option as a flag and exits 2
    # with "expected one argument"
    truth = tmp_path / "truth.json"
    rc = main(["simulate", "--duration", "1", option, value, "--truth", str(truth),
               "--out-a", str(tmp_path / "a.ettag"), "--out-b", str(tmp_path / "b.ettag")])
    assert rc == 0
    assert json.loads(truth.read_text())[key] == pytest.approx(float(value), rel=1e-9)


@pytest.mark.parametrize("section, key, value, message", [
    ("clock.bob", "start_offset", "nan", "start_offset nan is not finite"),
    ("link", "fluctuation_sigma", "nan", "fluctuation_sigma nan is not finite"),
    ("link", "pair_rate", "inf", "pair_rate inf is not finite"),
    ("polarization", "rotation_error_deg", "nan", "rotation_error nan is not finite"),
    # an out-of-range value, refused the same way
    ("clock.bob", "start_offset", "-1", "start_offset must be non-negative"),
])
def test_simulate_refuses_non_finite_config_values(tmp_path, capsys, section, key, value,
                                                   message):
    # unchecked, start_offset = nan writes an empty bob.ettag and
    # fluctuation_sigma = nan silently turns fading off. A value the
    # dataclass refuses is a config error naming its section.
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    rc = main(["simulate", "--duration", "2", "--config", str(cfg),
               "--out-a", str(tmp_path / "a.ettag"), "--out-b", str(tmp_path / "b.ettag")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: [{section}] {message}\n"
    assert not (tmp_path / "b.ettag").exists()


@pytest.mark.parametrize("offset, code", [("1.4e8", 0), ("2e8", 1), ("1e10", 1)])
def test_simulate_range_check_at_the_60_bit_edge(tmp_path, offset, code):
    # 2**60 ticks is 1.44e8 s. Past it simulate exits 1 with the range
    # message, and the check comes before any cast could warn.
    src = str(Path(pairlock.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pairlock.cli import main; sys.exit(main())",
         "simulate", "--duration", "1", "--offset", offset,
         "--out-a", str(tmp_path / "a.ettag"), "--out-b", str(tmp_path / "b.ettag")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert ("tick values outside the 60-bit range" in proc.stderr) == bool(code)


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_lock_then_bell_round_trip(tmp_path, capsys):
    a, b = _simulate(tmp_path)
    coinc = tmp_path / "coinc.csv"
    timeline = tmp_path / "timeline.csv"
    rc = main(["lock", "--alice", str(a), "--bob", str(b),
               "--out", str(coinc), "--timeline", str(timeline)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks locked: 8/8" in out
    assert coinc.exists() and timeline.exists()

    rc = main(["bell", "--coincidences", str(coinc), "--timeline", str(timeline)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "S" in text and "qber" in text

    rc = main(["bell", "--coincidences", str(coinc), "--timeline", str(timeline),
               "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert 1.5 < data["s"] < 2.8285
    assert data["locked_seconds"] == pytest.approx(8.0, abs=0.1)


def test_lock_notices_swapped_stations(tmp_path, capsys):
    a, b = _simulate(tmp_path)
    rc = main(["lock", "--alice", str(b), "--bob", str(a),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "station" in capsys.readouterr().err


def test_lock_exits_1_on_a_bob_tag_out_of_order(tmp_path, capsys, monkeypatch):
    # lock decodes Bob's file chunk by chunk while it runs the engine; a
    # tag that falls back across a chunk boundary still fails the run
    monkeypatch.setattr(timetags, "_CHUNK_WORDS", 4096)
    a, b = _simulate(tmp_path)
    raw = bytearray(b.read_bytes())
    k = 16 + 8 * 5 * 4096  # the first word of the sixth chunk
    raw[k - 8:k], raw[k:k + 8] = raw[k:k + 8], raw[k - 8:k]
    b.write_bytes(bytes(raw))
    out = tmp_path / "c.csv"
    rc = main(["lock", "--alice", str(a), "--bob", str(b), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(b) in err and "sorted" in err
    assert not out.exists()


def test_lock_exit_code_when_no_lock(tmp_path, capsys):
    cfg = tmp_path / "nopairs.ini"
    cfg.write_text("[link]\npair_rate = 0\nfluctuation_sigma = 0\n")
    a, b = _simulate(tmp_path, duration="12", extra=("--config", str(cfg)))
    rc = main(["lock", "--alice", str(a), "--bob", str(b),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "no lock" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lock", "serve"])
def test_an_empty_local_stream_exits_1(tmp_path, capsys, command):
    _, b = _simulate(tmp_path, duration="2")
    empty = tmp_path / "empty.ettag"
    write_tagfile(empty, TagStream(Station.ALICE, np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.uint8)))
    args = ["--bob", str(b)] if command == "lock" else ["--port", "0"]
    rc = main([command, "--alice", str(empty), *args, "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: local stream is empty\n"
    assert not (tmp_path / "c.csv").exists()


def test_bell_missing_file(tmp_path, capsys):
    rc = main(["bell", "--coincidences", str(tmp_path / "absent.csv")])
    assert rc == 1


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nonsense]\nx = 1\n")
    rc = main(["simulate", "--duration", "1", "--config", str(bad),
               "--out-a", str(tmp_path / "a"), "--out-b", str(tmp_path / "b")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_shapes_the_simulation(tmp_path):
    cfg = tmp_path / "thin.ini"
    cfg.write_text("[link]\npair_rate = 10000\n"
                   "dark_rates_alice = 0\ndark_rates_bob = 0\n"
                   "background_rate_bob = 0\nfluctuation_sigma = 0\n")
    a, _ = _simulate(tmp_path, duration="4", extra=("--config", str(cfg)))
    alice = read_tagfile(a)
    # 10000/s pairs at 6.15% efficiency, plus 5 markers
    n_det = int(alice.detector_mask.sum())
    assert abs(n_det - 4 * 615) < 5 * np.sqrt(4 * 615)


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _start_serve(alice, out):
    """`serve` on a thread, once it accepts connections: the thread, a
    dict that receives its exit code, and the port."""
    port = _free_port()
    result: dict = {}

    def run_server():
        result["rc"] = main(["serve", "--alice", str(alice), "--port", str(port),
                             "--out", str(out)])

    server = threading.Thread(target=run_server, daemon=True)
    server.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.05)
    return server, result, port


def test_serve_and_send_match_offline(tmp_path, capsys):
    a, b = _simulate(tmp_path)
    offline = tmp_path / "offline.csv"
    rc = main(["lock", "--alice", str(a), "--bob", str(b), "--out", str(offline)])
    assert rc == 0

    live = tmp_path / "live.csv"
    server, result, port = _start_serve(a, live)
    rc = main(["send", "--bob", str(b), "--host", "127.0.0.1",
               "--port", str(port), "--block-tags", "4096"])
    assert rc == 0
    server.join(timeout=30.0)
    assert result.get("rc") == 0
    assert live.read_bytes() == offline.read_bytes()
    # one status line per block, the trailing block's included
    out = capsys.readouterr().out
    n_blocks = int(re.search(r"blocks locked: +\d+/(\d+)", out).group(1))
    statuses = re.findall(r"^block +(\d+) \[", out, flags=re.MULTILINE)
    assert [int(i) for i in statuses] == list(range(n_blocks))


def test_serve_exits_on_a_sequence_gap(tmp_path, capsys):
    a, _b = _simulate(tmp_path, duration="3")
    port = _free_port()
    result: dict = {}

    def run_server():
        result["rc"] = main(["serve", "--alice", str(a), "--port", str(port),
                             "--out", str(tmp_path / "live.csv")])

    server = threading.Thread(target=run_server, daemon=True)
    server.start()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            break
        except OSError:
            assert time.monotonic() < deadline
            time.sleep(0.05)
    with conn:
        conn.sendall(b"ETHS" + bytes([1, 0, int(Station.BOB), 0]) + (1).to_bytes(8, "little"))
        assert conn.recv(12)[:4] == b"ETHA"
        words = encode_words(np.array([0, 1000], dtype=np.int64),
                             np.array([1, 2], dtype=np.uint8))
        conn.sendall(encode_block(TagBlock(1, Station.BOB, words)))
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert result.get("rc") == 1
    assert "expected block 0, got 1" in capsys.readouterr().err


def test_serve_acks_a_frame_only_after_the_engine_has_fed_it(tmp_path, monkeypatch, capsys):
    a, b = _simulate(tmp_path)
    feeds = []

    class SlowPipeline(cli.SyncPipeline):
        def feed_bob(self, ticks, channels):
            time.sleep(0.02)
            done = super().feed_bob(ticks, channels)
            feeds.append(len(ticks))
            return done

    monkeypatch.setattr(cli, "SyncPipeline", SlowPipeline)
    server, result, port = _start_serve(a, tmp_path / "live.csv")
    feeds_at_ack = []

    class AckWatch:
        """The sender's socket; notes the feed count as each 9-byte reply arrives."""

        def __init__(self, sock):
            self._sock = sock

        def recv(self, n):
            data = self._sock.recv(n)
            if len(data) == 9 and data[:1] == b"A":
                feeds_at_ack.append(len(feeds))
            return data

        def __getattr__(self, name):
            return getattr(self._sock, name)

    stats = send_stream("127.0.0.1", port, read_tagfile(b), block_tags=4096,
                        connect_factory=lambda: AckWatch(
                            socket.create_connection(("127.0.0.1", port), timeout=10.0)))
    server.join(timeout=30.0)
    assert result.get("rc") == 0
    # frame k's ack follows its feed; the end record's ack follows them all
    assert feeds_at_ack == [*range(1, stats.blocks + 1), stats.blocks]
    assert sum(feeds) == stats.tags
