"""Time a fresh process's set-up: import `su21dual`, then build and verify
one tiny module.  Prints the seconds taken; exits 1 if the module fails.

    python3 bench/setup_probe.py [CPU]

With CPU given, the process first pins itself to that CPU.
"""

import os
import sys
import time
from pathlib import Path

if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()

from fractions import Fraction  # noqa: E402

import su21dual  # noqa: E402

params = su21dual.ConeParams(Fraction(-1), 0)
module = su21dual.build(params, 3)
ok = (
    su21dual.check_commutators(module).verified
    and su21dual.check_coefficient_relations(params, 3).verified
)
elapsed = time.perf_counter() - start
if not ok:
    sys.exit(1)
print(elapsed)
