"""Analysis layer: calibrated testbed profiles, metrics and reporting."""

from repro.analysis.calibration import (
    LINUX_DDR_RAID,
    LINUX_SDR,
    PROFILES,
    SOLARIS_SDR,
    TestbedProfile,
)
from repro.analysis.latency import LatencyRecorder, LatencySummary

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "LINUX_DDR_RAID",
    "LINUX_SDR",
    "PROFILES",
    "SOLARIS_SDR",
    "TestbedProfile",
]
