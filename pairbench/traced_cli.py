"""Run one ``pairlock`` subcommand with its module boundaries timed.

    python3 traced_cli.py SPANS_JSON T_SPAWN -- <pairlock arguments>

T_SPAWN is the parent's ``time.perf_counter()`` just before the spawn;
both processes read the same monotonic clock, so the time to interpreter
start plus ``import pairlock.cli`` is measured from outside the process.
The spans, that import time and the tracemalloc peak are written to
SPANS_JSON when the subcommand returns.
"""

import sys
import time


def main() -> int:
    spans_path, t_spawn, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON T_SPAWN -- <pairlock arguments>")
    import pairlock.cli
    import_s = time.perf_counter() - float(t_spawn)

    import json
    import tracemalloc
    from pathlib import Path

    from tracer import Tracer, install

    tracer = Tracer(Path(spans_path).stem)
    install(tracer)
    tracemalloc.start()
    try:
        return pairlock.cli.main(cli_args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        Path(spans_path).write_text(json.dumps({
            "run": tracer.run_id, "import_s": import_s, "peak_alloc_bytes": peak,
            "counters": tracer.counters, "spans": tracer.spans}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
