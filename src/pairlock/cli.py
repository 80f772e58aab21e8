"""Command line front end.

Five subcommands cover the full loop:

    pairlock simulate   write a pair of .ettag files from the link model
    pairlock lock       offline clock recovery + coincidence extraction
    pairlock bell       CHSH analysis of a coincidence log
    pairlock serve      receive the remote stream live and lock on the fly
    pairlock send       stream a .ettag file to a running receiver

Exit codes: 0 success, 1 runtime failure, 2 bad arguments or config,
3 lock never acquired.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bell import accumulate, bell_report
from .config import ConfigError, RunConfig, load_run_config
from .simulate import ClockModel, generate_streams, relative_offset_at
from .sync import (
    SyncError,
    SyncPipeline,
    locked_seconds_from_timeline,
    read_coincidence_log,
    run_offline,  # noqa: F401  unused here; pairbench's tracer rebinds it
    write_coincidence_log,
    write_lock_timeline,
)
from .timetags import (Station, decode_words, iter_tagfile, read_tagfile, ticks_to_seconds,
                       write_tagfile)
from .transport import ConnectionLostError, ReceiverServer, TransportError, send_stream

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_LOCK = 3


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw}")
    return value


def _positive_float(raw: str) -> float:
    value = _finite_float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {raw}")
    return value


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_run_config(path)


def _clocks_for(cfg: RunConfig, offset: float | None,
                drift: float | None) -> tuple[ClockModel, ClockModel]:
    """Apply the --offset/--drift conveniences on top of the config clocks.

    A relative offset is realised by delaying whichever station's clock
    keeps both start offsets non-negative; relative drift goes on Bob.
    """
    alice, bob = cfg.clock_alice, cfg.clock_bob
    if offset is not None:
        alice = replace(alice, start_offset=max(0.0, -offset))
        bob = replace(bob, start_offset=max(0.0, offset))
    if drift is not None:
        bob = replace(bob, drift_fraction=drift)
    return alice, bob


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    clock_alice, clock_bob = _clocks_for(cfg, args.offset, args.drift)
    if args.no_gps:
        clock_alice = replace(clock_alice, gps_enabled=False)
        clock_bob = replace(clock_bob, gps_enabled=False)
    alice, bob = generate_streams(args.duration, cfg.link, clock_alice, clock_bob,
                                  cfg.settings, cfg.polarization, seed=args.seed)
    write_tagfile(args.out_a, alice)
    write_tagfile(args.out_b, bob)
    print(f"alice: {len(alice.ticks)} tags -> {args.out_a}")
    print(f"bob:   {len(bob.ticks)} tags -> {args.out_b}")
    if args.truth is not None:
        truth = {
            "duration": args.duration,
            "seed": args.seed,
            "alice": {"start_offset": clock_alice.start_offset,
                      "drift_fraction": clock_alice.drift_fraction},
            "bob": {"start_offset": clock_bob.start_offset,
                    "drift_fraction": clock_bob.drift_fraction},
            "relative_offset_t0": relative_offset_at(
                clock_alice, clock_bob, clock_alice.start_offset),
            "relative_drift": (clock_bob.drift_fraction - clock_alice.drift_fraction)
                              / (1.0 + clock_alice.drift_fraction),
        }
        Path(args.truth).write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
        print(f"truth: {args.truth}")
    return EXIT_OK


def _finish_lock(args: argparse.Namespace, pipeline: SyncPipeline) -> int:
    """The tail lock and serve share, once the pipeline has finished:
    exit 3 without any locked block, otherwise write the log and
    timeline and print the summary."""
    state = pipeline.state
    if state.locked_seconds_total == 0.0:
        print("no lock: correlation peak never cleared the threshold",
              file=sys.stderr)
        return EXIT_NO_LOCK
    events = pipeline.coincidences
    write_coincidence_log(args.out, events)
    if args.timeline is not None:
        write_lock_timeline(args.timeline, state)
    locked = [b for b in state.blocks if b.locked]
    print(f"blocks locked: {len(locked)}/{len(state.blocks)}")
    print(f"locked time:   {state.locked_seconds_total:.3f} s")
    print(f"offset:        {state.current.offset * 1e9:.3f} ns "
          f"(drift {state.current.drift_rate:.3e})")
    rate = len(events) / state.locked_seconds_total
    print(f"coincidences:  {len(events)} ({rate:.1f} per locked second)")
    print(f"coincidence log: {args.out}")
    return EXIT_OK


def _cmd_lock(args: argparse.Namespace) -> int:
    """Bob's file goes into the engine a decoded chunk at a time, as
    serve's frames do, so only the local file is held whole."""
    cfg = _load_config(args.config)
    alice = read_tagfile(args.alice)
    bob_station, _, bob_chunks = iter_tagfile(args.bob)
    if alice.station != Station.ALICE or bob_station != Station.BOB:
        print("error: station ids in the input files are swapped or wrong",
              file=sys.stderr)
        return EXIT_FAILURE
    pipeline = SyncPipeline(alice, cfg.correlator)
    for ticks, channels in bob_chunks:
        pipeline.feed_bob(ticks, channels)
    pipeline.finish()
    return _finish_lock(args, pipeline)


def _cmd_bell(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    events = read_coincidence_log(args.coincidences)
    if len(events) == 0:
        print("error: coincidence log is empty", file=sys.stderr)
        return EXIT_FAILURE
    if args.timeline is not None:
        locked_seconds = locked_seconds_from_timeline(args.timeline)
    else:
        span = ticks_to_seconds(int(events.alice_ticks[-1] - events.alice_ticks[0]))
        locked_seconds = span
    matrix = accumulate(events, cfg.settings, accumulation_span=locked_seconds)
    report = bell_report(matrix, locked_seconds=locked_seconds)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return EXIT_OK


def _cmd_send(args: argparse.Namespace) -> int:
    stream = read_tagfile(args.bob)
    try:
        stats = send_stream(args.host, args.port, stream,
                            block_tags=args.block_tags, session_id=args.session_id)
    except ConnectionLostError as exc:
        print(f"send failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"sent {stats.tags} tags in {stats.blocks} blocks "
          f"({stats.frames_sent} frames, {stats.reconnects} reconnects, "
          f"{stats.elapsed:.2f} s)")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    alice = read_tagfile(args.alice)
    if alice.station != Station.ALICE:
        print("error: --alice file does not carry the local station id",
              file=sys.stderr)
        return EXIT_FAILURE
    pipeline = SyncPipeline(alice, cfg.correlator)

    def report(done: list) -> None:
        first = len(pipeline.state.blocks) - len(done)
        for i, block in enumerate(done, first):
            flag = "locked" if block.locked else "search"
            offset_ns = block.offset * 1e9 if block.locked else float("nan")
            print(f"block {i:4d} [{block.t_start:9.3f},{block.t_end:9.3f}) "
                  f"{flag} offset {offset_ns:10.3f} ns "
                  f"significance {block.significance:6.1f}")

    # The engine runs on the receiving thread, and a frame is acked once
    # it is fed, so the engine paces the sender.
    server = ReceiverServer(
        host=args.host, port=args.port,
        on_block=lambda _seq, words: report(pipeline.feed_bob(*decode_words(words))))
    print(f"listening on {server.host}:{server.port}")
    server.start()
    server.wait()  # raises the receiver's fatal error
    server.stop()
    report(pipeline.finish())
    return _finish_lock(args, pipeline)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairlock",
        description="Clock recovery and CHSH analysis for time-tagged photon pairs.")
    parser.add_argument("--version", action="version", version=f"pairlock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a pair of tag files")
    sim.add_argument("--duration", type=_positive_float, required=True,
                     help="acquisition length in seconds")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-a", required=True, help="Alice .ettag output path")
    sim.add_argument("--out-b", required=True, help="Bob .ettag output path")
    sim.add_argument("--config", help="INI run configuration")
    sim.add_argument("--offset", type=_finite_float, default=None,
                     help="relative clock offset Bob-Alice in seconds")
    sim.add_argument("--drift", type=_finite_float, default=None,
                     help="relative clock drift as a fraction")
    sim.add_argument("--no-gps", action="store_true",
                     help="omit the once-per-second marker tags")
    sim.add_argument("--truth", help="write the generating clock truth as JSON")
    sim.set_defaults(func=_cmd_simulate)

    lock = sub.add_parser("lock", help="recover the clock offset offline")
    lock.add_argument("--alice", required=True)
    lock.add_argument("--bob", required=True)
    lock.add_argument("--out", required=True, help="coincidence log CSV path")
    lock.add_argument("--timeline", help="per-block lock timeline CSV path")
    lock.add_argument("--config", help="INI run configuration")
    lock.set_defaults(func=_cmd_lock)

    bell = sub.add_parser("bell", help="CHSH statistics from a coincidence log")
    bell.add_argument("--coincidences", required=True)
    bell.add_argument("--timeline", help="lock timeline CSV, for the rate figures")
    bell.add_argument("--config", help="INI run configuration")
    bell.add_argument("--format", choices=("text", "json"), default="text")
    bell.set_defaults(func=_cmd_bell)

    serve = sub.add_parser("serve", help="receive the remote stream and lock live")
    serve.add_argument("--alice", required=True, help="local station .ettag file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--out", required=True, help="coincidence log CSV path")
    serve.add_argument("--timeline", help="per-block lock timeline CSV path")
    serve.add_argument("--config", help="INI run configuration")
    serve.set_defaults(func=_cmd_serve)

    send = sub.add_parser("send", help="stream a tag file to a receiver")
    send.add_argument("--bob", required=True, help=".ettag file to send")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, required=True)
    send.add_argument("--block-tags", type=int, default=8192)
    send.add_argument("--session-id", type=int, default=1)
    send.set_defaults(func=_cmd_send)

    return parser


# Options that take a signed number. argparse reads a value after them
# that starts with "-" and is not a plain decimal ("-5e-11") as a flag.
_SIGNED_OPTIONS = ("--offset", "--drift", "--duration")


def _is_signed_option(arg: str) -> bool:
    """arg names a signed option in full or, as argparse allows, by a prefix."""
    return len(arg) > 2 and any(option.startswith(arg) for option in _SIGNED_OPTIONS)


def _is_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each signed option and a negative number after it joined
    by "=", which argparse parses as the option's value."""
    joined: list[str] = []
    for arg in argv:
        if joined and _is_signed_option(joined[-1]) and arg.startswith("-") and _is_number(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, TransportError, SyncError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
