"""Record each workload's locked fraction per seed into locked_floor.json.

    python3 pairbench/record_floor.py --start 0 --count 100

The benchmark fails a lock whose locked fraction is below the value
recorded here for its workload and seed, and says in its output when a
seed has no recorded value (that run's floor is not checked). Seeds
already in the file keep their value unless recorded again. Record on
the code the benchmark was defined against; re-record only when a change
is meant to alter locking, and say so where that change is described.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import FLOOR_FILE, SRC, WorkloadRun, workspace
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--start", type=int, default=0, help="first seed to record")
    parser.add_argument("--count", type=int, default=100, help="number of seeds to record")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    floors = json.loads(FLOOR_FILE.read_text(encoding="utf-8")) if FLOOR_FILE.exists() else {}
    for wl in WORKLOADS.values():
        seeds = floors.setdefault(wl.name, {})
        for seed in range(args.start, args.start + args.count):
            with workspace(wl, seed) as workdir:
                run = WorkloadRun(wl, seed, workdir)
                run.simulate()
                run.lock()
                if run.ops.failures:
                    print("\n".join(run.ops.failures), file=sys.stderr)
                    return 1
                seeds[str(seed)] = run.locked_fraction
        print(f"{wl.name}: lowest {min(seeds.values()):.4f} over {len(seeds)} seeds")
        # Written after each workload, so an interrupted run keeps what it recorded.
        FLOOR_FILE.write_text(json.dumps(floors, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
