"""Example scripts whose printed numbers are pinned.

CI's "Examples run" step only checks that each example exits 0.  The
degraded-cluster example prints the bandwidths of a healthy, a
straggling and a re-planned cluster, and the checkpoint-reordering
example those of a profiled DEF run and the MHA plan's redirected run,
so their stdout is compared here with the text each printed when its
pin was written: a change to how a server is slowed down or how a
redirected request is mapped must leave every number as it was.
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

CHECKPOINT_REORDERING = """\
profiled run (DEF layout): 72.40 MiB/s over 768 requests

MHA plan: 3 regions, 768 DRT entries
  checkpoint.dat.region0: stripes <0, 4096>, cost=0.2108s
  checkpoint.dat.region1: stripes <0, 4096>, cost=0.0224s
  checkpoint.dat.region2: stripes <0, 4096>, cost=0.2108s
data migrated into regions: 64 MiB

optimized run (MHA layout): 144.15 MiB/s
speedup: 1.99x, with 768 requests redirected through the DRT
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


def test_checkpoint_reordering_output_is_pinned():
    result = run_example("checkpoint_reordering.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == CHECKPOINT_REORDERING
