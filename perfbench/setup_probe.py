"""Start-up cost of islab in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG [CONFIG ...]   (islab on
PYTHONPATH).  Times `import islab.cli` and then loading and validating each
config, in wall time and in process CPU time, and prints one JSON line
{"import_s", "load_s", "import_cpu_s", "load_cpu_s"}.
"""

import json
import sys
from time import perf_counter, process_time

t0, c0 = perf_counter(), process_time()
import islab.cli  # noqa: E402,F401  (the import is what is measured)
from islab.config import ExperimentConfig  # noqa: E402

t1, c1 = perf_counter(), process_time()
for path in sys.argv[1:]:
    ExperimentConfig.from_file(path)
t2, c2 = perf_counter(), process_time()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "import_cpu_s": c1 - c0, "load_cpu_s": c2 - c1}))
