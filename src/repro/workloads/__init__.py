"""Workload generators: the benchmarks of §5.

:mod:`repro.workloads.iozone` reproduces the IOzone multi-threaded
sequential write/read runs (record-size sweeps, direct I/O, per-thread
files) behind Figs 5–7, 9 and 10; :mod:`repro.workloads.filebench`
reproduces the FileBench OLTP personality behind Fig 8.
"""

from repro.workloads.iozone import IozoneParams, IozoneResult, run_iozone
from repro.workloads.filebench import OltpParams, OltpResult, run_oltp
from repro.workloads.postmark import PostmarkParams, PostmarkResult, run_postmark

__all__ = [
    "IozoneParams",
    "IozoneResult",
    "OltpParams",
    "OltpResult",
    "PostmarkParams",
    "PostmarkResult",
    "run_postmark",
    "run_iozone",
    "run_oltp",
]
