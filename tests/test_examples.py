"""Example scripts whose printed numbers are pinned.

CI's "Examples run" step only checks that each example exits 0.  The
degraded-cluster example prints the bandwidths of a healthy, a
straggling and a re-planned cluster, so its stdout is compared here
with the text it printed when this pin was written: a change to how a
server is slowed down must leave every number as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEGRADED_CLUSTER = """\
healthy cluster, MHA plan:      161.30 MiB/s
h0 4x slower, stale plan:  149.48 MiB/s (-7%)
h0 4x slower, re-planned:  157.52 MiB/s (+5% vs stale)

stripe pairs (healthy -> re-planned):
  ior.dat.region0: <0, 4096> -> <0, 4096>
  ior.dat.region1: <65536, 262144> -> <0, 4096>
  ior.dat.region2: <0, 131072> -> <0, 131072>
  ior.dat.region3: <0, 4096> -> <0, 4096>
"""


def run_example(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=120,
    )


def test_degraded_cluster_output_is_pinned():
    result = run_example("degraded_cluster.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEGRADED_CLUSTER
