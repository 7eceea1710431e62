"""Checks of an MHA plan shared by the plan tests.

``load_plan`` checks a plan's tables on every load
(:func:`repro.core.pipeline.check_tables`).  :func:`audit_plan` runs
the same check on a plan in memory, then what only the trace can tell:
every request translates through the DRT into pieces that tile it, and
maps through the redirector into fragments that tile it.
:func:`migrate_offline` times a plan's one-off migration.
:func:`drt_record` encodes a DRT log record, for tests that commit
tables the DRT itself would refuse.
"""

import struct

from repro.core import DRT, RST, MHAPlan, Redirector
from repro.core.pipeline import check_tables
from repro.layouts.base import check_tiling
from repro.online import EpochRedirector, LiveMigrationScheduler
from repro.pfs import HybridPFS


def audit_plan(plan, trace):
    """Raise unless ``plan``'s tables are consistent and it resolves
    every request of ``trace``."""
    check_tables(plan.drt, plan.rst)
    for file in trace.files():
        records = [r for r in trace if r.file == file]
        pieces = plan.drt.translate_many(
            file, [r.offset for r in records], [r.size for r in records]
        )
        for k, r in enumerate(records):
            check_tiling(r.offset, r.size, pieces.extents(k))
            fragments = plan.redirector.map_request(file, r.offset, r.size)
            check_tiling(r.offset, r.size, fragments)


def migrate_offline(spec, plan):
    """Copy ``plan``'s DRT extents out of its original layouts, as the
    off-line migration does: the live scheduler, unthrottled, on an idle
    cluster, from a plan that maps nothing.  Returns its report."""
    drt = DRT()
    layouts = plan.original_layouts
    source = MHAPlan(drt, RST(), {}, layouts, Redirector(drt, {}, layouts))
    pfs = HybridPFS(spec)
    report = LiveMigrationScheduler(pfs, EpochRedirector(source)).start(
        plan, list(plan.drt)
    )
    pfs.sim.run()
    return report


def drt_record(o_file, o_offset, length, r_file, r_offset):
    """One DRT entry as its log record: the key is the original offset
    (``<Q``) then the original file's name, the value the length and the
    region offset (``<QQ``) then the region file's name, names in
    UTF-8."""
    key = struct.pack("<Q", o_offset) + o_file.encode()
    return key, struct.pack("<QQ", length, r_offset) + r_file.encode()
