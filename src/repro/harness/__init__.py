"""Benchmark harness: experiments, figure reproductions, reporting."""

from .chaos import ChaosReport, chaos_experiment, chaos_fault_plan, chaos_trace
from .experiment import Comparison, SchemeRun, compare_schemes, run_scheme
from .figures import (
    ALL_FIGURES,
    fig07_ior_mixed_sizes,
    fig08_server_io_time,
    fig09_ior_mixed_procs,
    fig10_server_ratios,
    fig11_hpio,
    fig12a_btio,
    fig12b_lanl,
    fig13a_lu,
    fig13b_cholesky,
    fig14_redirection_overhead,
)
from .report import FigureResult, bandwidth_mib, format_bars, format_table

__all__ = [
    "ChaosReport",
    "chaos_experiment",
    "chaos_fault_plan",
    "chaos_trace",
    "Comparison",
    "SchemeRun",
    "compare_schemes",
    "run_scheme",
    "FigureResult",
    "format_table",
    "format_bars",
    "bandwidth_mib",
    "ALL_FIGURES",
    "fig07_ior_mixed_sizes",
    "fig08_server_io_time",
    "fig09_ior_mixed_procs",
    "fig10_server_ratios",
    "fig11_hpio",
    "fig12a_btio",
    "fig12b_lanl",
    "fig13a_lu",
    "fig13b_cholesky",
    "fig14_redirection_overhead",
]
