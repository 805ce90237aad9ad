"""Set-up probe: a fresh interpreter that imports the CLI and draws the first pass's inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line with the monotonic clock reading once the inputs
exist (``run.py`` subtracts the reading it took before spawning this
process), the time spent importing ``coexcap.cli``, and the calibration
loop of ``calibration.py`` timed just before the import and just after
the inputs exist.  The first calibration's own time is reported too, so
that ``run.py`` can leave it out of the set-up time.
"""

import json
import sys
import time
from pathlib import Path

from calibration import calibrate

before = calibrate()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import coexcap.cli  # noqa: E402,F401

import_ms = (time.perf_counter() - t0) * 1e3

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).inputs(0)
ready = time.monotonic()
after = calibrate()
print(json.dumps({"ready_monotonic": ready, "import_ms": import_ms,
                  "calibration_s": (before + after) / 2, "excluded_s": before}))
