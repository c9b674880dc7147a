"""Pin the digest of every output of one round, per workload and seed.

    python3 bench/pin.py --seeds 0-31 [--workloads identities cli]

Runs one round of each workload per seed in this process, checks every output
against its reference, and records the round's digest in ``digests.json``. A
benchmark run on a pinned seed then fails unless every round reproduces the
digest bit for bit. Refuses to pin a round in which any job failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness
    import workloads
    from collect import _seeds

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-31")
    args = parser.parse_args()

    path = BENCH / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    workdir = ROOT / ".bench_out" / "pin"
    api = harness.make_api(None)
    try:
        for name in args.workloads:
            for seed in args.seeds:
                r = harness.run_round(workloads.WORKLOADS[name](seed, workdir), api)
                if r.failures:
                    print(f"{name} seed {seed}: not pinned", *r.failures, sep="\n", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = r.digest
                print(f"{name} seed {seed}: {r.digest}", file=sys.stderr)
                path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
