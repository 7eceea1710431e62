"""``fig07``: paper Fig. 7 at its defaults, with process pools.

4 size mixes x read/write x DEF/AAL/HARL/MHA, 32 ranks, 32 MiB each,
through ``fig07_ior_mixed_sizes``.  Every layer does some work; it is
the only workload that spawns process pools (one per MHA or HARL plan)
and the only one where HARL's columnar-to-record fallback runs.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Any

from repro.cluster import ClusterSpec
from repro.harness.figures import FIG7_SIZE_MIXES, fig07_ior_mixed_sizes
from repro.harness.report import to_csv
from repro.schemes.registry import scheme_names
from repro.units import KiB, MiB
from repro.workloads.ior import IORWorkload

from . import Outcome, require

JOBS = 2
#: the figure's own defaults, passed explicitly so the request count
#: below matches the call
RANKS = 32
TOTAL_MIB = 32


def prepare(spec: ClusterSpec, seed: int, workdir: Path) -> dict:
    # the figure generates its own traces; the benchmark regenerates
    # them only to count the request x scheme passes it will time
    per_op = sum(
        len(
            IORWorkload(
                num_processes=RANKS,
                request_sizes=[m * KiB for m in mix],
                total_size=TOTAL_MIB * MiB,
                seed=seed,
            ).columnar("write")
        )
        for mix in FIG7_SIZE_MIXES
    )
    return {"seed": seed, "requests": 2 * per_op * len(scheme_names())}


def run(spec: ClusterSpec, inputs: dict) -> Any:
    return fig07_ior_mixed_sizes(
        spec, num_processes=RANKS, total_mib=TOTAL_MIB, seed=inputs["seed"]
    )


def check(inputs: dict, result: Any) -> Outcome:
    rows = result.rows
    require(len(rows) == 2 * len(FIG7_SIZE_MIXES), f"fig07: {len(rows)} rows")
    values = [v for row in rows.values() for v in row.values()]
    require(len(values) == len(rows) * len(scheme_names()), "fig07: missing cells")
    require(all(math.isfinite(v) and v > 0 for v in values), "fig07: bad bandwidth")
    mha = [row["MHA"] for row in rows.values()]
    return Outcome(
        requests=inputs["requests"],
        digest=hashlib.sha256(to_csv(result).encode()).hexdigest(),
        sim_bw_mib_s=math.exp(sum(math.log(v) for v in mha) / len(mha)),
    )
