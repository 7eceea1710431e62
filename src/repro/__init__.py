"""repro — a reproduction of *"A Migratory Heterogeneity-Aware Data
Layout Scheme for Parallel File Systems"* (He, Sun, Wang, Xu; 2018).

The package rebuilds, in pure Python, the paper's full stack:

* :mod:`repro.core` — the MHA optimizer (cost model, request grouping,
  data reordering + DRT, RSSD stripe search + RST, placement,
  redirection, five-phase pipeline);
* :mod:`repro.schemes` — MHA plus the DEF/AAL/HARL comparison schemes;
* :mod:`repro.pfs`, :mod:`repro.devices`, :mod:`repro.network`,
  :mod:`repro.simulate` — the simulated testbed (hybrid OrangeFS-like
  PFS whose file views are the MPI-IO interception point,
  HDD/SSD/GigE models, discrete-event engine);
* :mod:`repro.tracing`, :mod:`repro.kvstore` — IOSIG's trace record
  schema, trace files and analysis, and the Berkeley-DB-like store
  backing the DRT/RST;
* :mod:`repro.workloads`, :mod:`repro.harness` — the paper's workloads
  (IOR, HPIO, BTIO, LANL, LU, Cholesky) and one entry point per
  evaluation figure.

Quick start::

    from repro import ClusterSpec, compare_schemes
    from repro.workloads import IORWorkload
    from repro.units import KiB, MiB

    spec = ClusterSpec()                 # 6 HServers + 2 SServers
    trace = IORWorkload(request_sizes=[128 * KiB, 256 * KiB],
                        total_size=32 * MiB).trace("write")
    result = compare_schemes(spec, trace)
    for name in result.ranking():
        print(name, f"{result.bandwidth(name) / MiB:.1f} MiB/s")
"""

from .cluster import ClusterSpec
from .core import MHAPipeline, MHAPlan, load_plan
from .harness import compare_schemes, run_scheme
from .pfs import (
    DataClient,
    HybridPFS,
    RunMetrics,
    migrate,
    replay_trace,
    run_workload,
)
from .schemes import (
    AALScheme,
    DEFScheme,
    HARLScheme,
    MHAScheme,
    build_view,
    make_scheme,
    scheme_names,
)
from .tracing import Trace, TraceRecord

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "MHAPipeline",
    "MHAPlan",
    "load_plan",
    "HybridPFS",
    "RunMetrics",
    "DataClient",
    "migrate",
    "replay_trace",
    "run_workload",
    "DEFScheme",
    "AALScheme",
    "HARLScheme",
    "MHAScheme",
    "make_scheme",
    "build_view",
    "scheme_names",
    "compare_schemes",
    "run_scheme",
    "Trace",
    "TraceRecord",
    "__version__",
]
