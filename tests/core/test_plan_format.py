"""The on-disk plan format, pinned.

A plan's ``drt.db`` and ``rst.db`` are what the application's next run
reloads, so their bytes are an interface: the ``RKV2`` log, each
record's encoding and the order records are written in.  The sha256
of both files for one small fixed plan must only ever move
consciously.
"""

import hashlib

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline, load_plan
from repro.units import KiB, MiB
from repro.workloads import IORWorkload

PINNED_DRT = "db90118354b91e775b244a29c73dc698a9af15b392bf754db4c284723ff07fea"
PINNED_RST = "1c8e94ec9c32c454f6d0dc3ba419c27599eb1f4ae90aa0a85c22b583555c347f"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_plan_files_are_pinned(tmp_path):
    trace = IORWorkload(
        num_processes=8,
        request_sizes=[16 * KiB, 64 * KiB],
        total_size=4 * MiB,
        seed=0,
    ).columnar("write")
    drt_path, rst_path = tmp_path / "drt.db", tmp_path / "rst.db"
    spec = ClusterSpec()
    plan = MHAPipeline(spec, drt_path=drt_path, rst_path=rst_path).plan(trace)
    plan.drt.close()
    plan.rst.close()
    assert (sha256(drt_path), sha256(rst_path)) == (PINNED_DRT, PINNED_RST)
    loaded = load_plan(spec, drt_path, rst_path)
    loaded.drt.close()
    loaded.rst.close()
    assert list(loaded.drt) == list(plan.drt)
