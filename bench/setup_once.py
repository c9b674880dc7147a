"""Do one workload's set-up in a fresh interpreter, then exit.

    python3 bench/setup_once.py <workload> <seed> <workdir>

``run.py`` times a few of these, from process start to exit, for
``setup_s``: interpreter start, imports and input generation, as a user pays
them before the first job.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
