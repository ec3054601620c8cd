"""Cold set-up of one workload, in a fresh interpreter: import eulerdd and
build every scenario from its run configuration, as the CLI does.

    python3 setup_probe.py CONFIG.yaml [CONFIG.yaml ...]

Prints the elapsed seconds.  run.py starts it with eulerdd's source
directory on PYTHONPATH.
"""

import sys
from time import perf_counter

start = perf_counter()
from eulerdd import io  # noqa: E402  (the import is part of what is timed)

for path in sys.argv[1:]:
    io.scenario_from_config(io.load_config(path))
print(repr(perf_counter() - start))
