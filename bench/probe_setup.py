"""Time one fresh import of bigsos's command line, for the setup_s metric.

Usage: python3 -I bench/probe_setup.py SRC_DIR

Prints the seconds from before ``import bigsos`` until ``bigsos.cli.run`` is
bound and ready to take its first operation, as thread CPU time rescaled to
reference seconds (see calib.py) by calibration passes just before and just
after the import.  Interpreter start-up comes before the clock starts and is
not counted.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calib import calibration_s, speed_factor  # noqa: E402

calibration_s()  # warm-up
before = calibration_s()
t0 = time.thread_time()
sys.path.insert(0, sys.argv[1])
import bigsos.cli  # noqa: E402

run = bigsos.cli.run
elapsed = time.thread_time() - t0
after = calibration_s()
print(f"{elapsed * speed_factor(before, after):.9f}")
