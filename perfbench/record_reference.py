"""Record the seed-0 reference outputs in ``reference/``.

Usage (from the repository root)::

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's CLI command once at seed 0 and stores the part of
its CSV that ``workloads.summarize`` keeps.  Re-record only when a
change is meant to alter the outputs by more than ``workloads.REL_TOL``,
and say so where the change is described.
"""

import json
import os
import subprocess
import sys
import tempfile

from workloads import REFERENCE_DIR, WORKLOADS, summarize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def record(workload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "workload.cfg")
        with open(cfg, "w") as f:
            f.write(workload.config_text(0))
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-m", "fracsteer.cli", "--config", cfg,
                        "--out", tmp, workload.command], env=env, check=True)
        summary = summarize(workload, os.path.join(tmp, workload.csv))
    with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json"), "w") as f:
        f.write(dumps(summary))


def dumps(summary):
    """JSON with one list element (a CSV row or check) per line."""
    items = []
    for key, value in summary.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            value = "[\n  " + ",\n  ".join(json.dumps(v) for v in value) + "\n ]"
        else:
            value = json.dumps(value)
        items.append(f" {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(items) + "\n}\n"


if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(WORKLOADS[name])
