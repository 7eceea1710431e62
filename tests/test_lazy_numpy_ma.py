"""Planning, reloading, replaying and building HARL/AAL layouts never
import ``numpy.ma``.

A plain ``np.unique`` imports ``numpy.ma`` on its first call (NumPy
2.4), a cost every timed plan used to pay once per process;
``repro.numerics.unique_values`` is the path that does not.  The check
needs a fresh interpreter, so it runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import tempfile
from pathlib import Path

from repro.cluster import ClusterSpec
from repro.core.pipeline import MHAPipeline, load_plan
from repro.pfs.replay import run_workload
from repro.schemes import make_scheme
from repro.units import KiB, MiB
from repro.workloads.ior import IORWorkload

spec = ClusterSpec()
trace = IORWorkload(
    num_processes=8, request_sizes=[16 * KiB, 64 * KiB], total_size=4 * MiB, seed=0
).columnar("write")
with tempfile.TemporaryDirectory() as tmp:
    drt, rst = Path(tmp) / "drt.db", Path(tmp) / "rst.db"
    plan = MHAPipeline(spec, drt_path=drt, rst_path=rst).plan(trace)
    plan.drt.close()
    plan.rst.close()
    loaded = load_plan(spec, drt, rst)
    run_workload(spec, loaded.redirector, trace)
    loaded.drt.close()
    loaded.rst.close()
for name in ("HARL", "AAL"):
    make_scheme(name).build(spec, trace)
print("numpy.ma" in sys.modules)
"""


def test_plan_replay_and_builds_do_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
