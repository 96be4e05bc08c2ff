"""Calibrated cost profiles for the paper's three testbeds.

Every timing constant the simulation uses lives here, named after the
hardware it stands in for.  Constants were fit so the *mechanisms* the
paper identifies reproduce its measured plateaus (the fit targets and
achieved values are tabulated in EXPERIMENTS.md):

* The serialized TPT engine makes per-operation registration the
  throughput ceiling of dynamic registration (Figs 5/7/9: ≈350–400 MB/s
  on OpenSolaris).
* Client-side registration is cheaper than server-side (warm,
  contiguous direct-I/O user pages vs cold slab-backed kernel buffers),
  which is why the server-side registration cache lifts Read throughput
  to ≈730 MB/s while the client still registers dynamically (Fig 7a).
* The per-QP read-response engine caps RDMA Read (hence NFS WRITE)
  throughput near 520 MB/s regardless of registration strategy
  (Figs 6/7b: "the serialization of RDMA Reads").
* All-physical mode eliminates TPT work entirely (Fig 9a ≈900 MB/s
  Read) but fragments transfers at physical-run boundaries, multiplying
  RDMA Reads on the WRITE path into the IRD/ORD cap (Fig 9b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RpcRdmaConfig
from repro.ib.hca import HCAConfig
from repro.ib.link import LinkConfig
from repro.ib.memory import RegistrationCosts
from repro.osmodel.cpu import CPUConfig
from repro.tcpip.nic import GIGE_PROFILE, IPOIB_PROFILE, NicProfile

__all__ = ["LINUX_DDR_RAID", "LINUX_SDR", "PROFILES", "SOLARIS_SDR",
           "TestbedProfile"]


@dataclass(frozen=True)
class TestbedProfile:
    """One evaluation rig from §5 of the paper."""

    name: str
    description: str
    client_cpu: CPUConfig
    server_cpu: CPUConfig
    link: LinkConfig
    client_hca: HCAConfig
    server_hca: HCAConfig
    rpcrdma: RpcRdmaConfig
    interrupt_cost_us: float
    server_threads: int
    #: mean physically-contiguous run, drives all-physical fragmentation.
    phys_mean_run_bytes: int
    ipoib: NicProfile = IPOIB_PROFILE
    gige: NicProfile = GIGE_PROFILE


def _hca(reg: RegistrationCosts, read_setup_us: float,
         phys_mean_run_bytes: int = 128 * 1024) -> HCAConfig:
    return HCAConfig(
        wqe_process_us=0.6,
        post_cpu_us=0.4,
        read_response_setup_us=read_setup_us,
        max_ird=8,
        max_ord=8,
        phys_mean_run_bytes=phys_mean_run_bytes,
        registration=reg,
    )


# --------------------------------------------------------------------------
# Dual Opteron x2100, 2 GB, SDR x8 PCIe HCAs, tmpfs backend (Figs 5–8).
# --------------------------------------------------------------------------

#: Client (direct-I/O user pages: warm mappings, contiguous) — ≈170 µs
#: serialized TPT time per 128 KB register+deregister pair.
_SOLARIS_CLIENT_REG = RegistrationCosts(
    pin_cpu_per_page_us=0.20,
    unpin_cpu_per_page_us=0.08,
    reg_tpt_base_us=3.0,
    reg_tpt_per_page_us=3.7,
    dereg_tpt_base_us=2.0,
    dereg_tpt_per_page_us=1.75,
    fmr_map_base_us=2.5,
    fmr_map_per_page_us=2.6,
    fmr_unmap_base_us=1.5,
    fmr_unmap_per_page_us=1.2,
)

#: Server (cold slab-backed kernel buffers) — ≈350 µs per pair at 128 KB:
#: the dynamic-registration ceiling of Figs 5/7.
_SOLARIS_SERVER_REG = RegistrationCosts(
    pin_cpu_per_page_us=0.25,
    unpin_cpu_per_page_us=0.10,
    reg_tpt_base_us=4.0,
    reg_tpt_per_page_us=6.5,
    dereg_tpt_base_us=3.0,
    dereg_tpt_per_page_us=3.5,
    fmr_map_base_us=3.0,
    fmr_map_per_page_us=6.4,
    fmr_unmap_base_us=2.0,
    fmr_unmap_per_page_us=3.0,
)

_SDR_LINK = LinkConfig(
    bandwidth_mb_s=950.0,
    latency_us=1.5,
    per_message_overhead_bytes=64,
    chunk_bytes=32 * 1024,
)

SOLARIS_SDR = TestbedProfile(
    name="solaris-sdr",
    description="Dual Opteron x2100 / 2 GB / SDR x8 PCIe / OpenSolaris b33 / tmpfs",
    client_cpu=CPUConfig(cores=2, memcpy_mb_s=800.0),
    server_cpu=CPUConfig(cores=2, memcpy_mb_s=800.0),
    link=_SDR_LINK,
    client_hca=_hca(_SOLARIS_CLIENT_REG, read_setup_us=112.0),
    server_hca=_hca(_SOLARIS_SERVER_REG, read_setup_us=212.0),
    rpcrdma=RpcRdmaConfig(),
    interrupt_cost_us=4.0,
    server_threads=16,
    phys_mean_run_bytes=64 * 1024,
)

# --------------------------------------------------------------------------
# Same Opterons under Linux (Fig 9): faster kernel registration path, and
# the all-physical (global stag) mode is available.
# --------------------------------------------------------------------------

_LINUX_CLIENT_REG = RegistrationCosts(
    pin_cpu_per_page_us=0.20,
    unpin_cpu_per_page_us=0.08,
    reg_tpt_base_us=2.5,
    reg_tpt_per_page_us=2.4,
    dereg_tpt_base_us=1.5,
    dereg_tpt_per_page_us=1.1,
    fmr_map_base_us=2.0,
    fmr_map_per_page_us=1.8,
    fmr_unmap_base_us=1.0,
    fmr_unmap_per_page_us=0.8,
)

_LINUX_SERVER_REG = RegistrationCosts(
    pin_cpu_per_page_us=0.25,
    unpin_cpu_per_page_us=0.10,
    reg_tpt_base_us=3.0,
    reg_tpt_per_page_us=4.5,
    dereg_tpt_base_us=2.0,
    dereg_tpt_per_page_us=2.2,
    fmr_map_base_us=2.5,
    fmr_map_per_page_us=4.0,
    fmr_unmap_base_us=1.5,
    fmr_unmap_per_page_us=2.0,
)

LINUX_SDR = TestbedProfile(
    name="linux-sdr",
    description="Dual Opteron x2100 / SDR x8 PCIe / Linux NFS/RDMA / tmpfs",
    client_cpu=CPUConfig(cores=2, memcpy_mb_s=800.0),
    server_cpu=CPUConfig(cores=2, memcpy_mb_s=800.0),
    link=_SDR_LINK,
    client_hca=_hca(_LINUX_CLIENT_REG, read_setup_us=112.0),
    server_hca=_hca(_LINUX_SERVER_REG, read_setup_us=212.0),
    rpcrdma=RpcRdmaConfig(),
    interrupt_cost_us=4.0,
    server_threads=16,
    phys_mean_run_bytes=64 * 1024,
)

# --------------------------------------------------------------------------
# Dual Xeon 3.6 / DDR HCA / 8× 30 MB/s RAID-0 / XFS (Fig 10).  The paper
# runs this rig in all-physical mode; the DDR HCA behind x8 PCIe delivers
# a bit over the SDR wire.
# --------------------------------------------------------------------------

_DDR_LINK = LinkConfig(
    bandwidth_mb_s=1000.0,
    latency_us=1.2,
    per_message_overhead_bytes=64,
    chunk_bytes=32 * 1024,
)

LINUX_DDR_RAID = TestbedProfile(
    name="linux-ddr-raid",
    description="Dual Xeon 3.6 / DDR HCA / 8-disk RAID-0 XFS / 4–8 GB cache",
    client_cpu=CPUConfig(cores=2, memcpy_mb_s=1500.0),
    server_cpu=CPUConfig(cores=2, memcpy_mb_s=1500.0),
    link=_DDR_LINK,
    client_hca=_hca(_LINUX_CLIENT_REG, read_setup_us=100.0),
    server_hca=_hca(_LINUX_SERVER_REG, read_setup_us=180.0),
    rpcrdma=RpcRdmaConfig(),
    interrupt_cost_us=3.0,
    server_threads=32,
    phys_mean_run_bytes=64 * 1024,
)

#: Every calibrated profile by name: how a plain-data cluster spec (and
#: the CLI's ``--profile``) names one.
PROFILES = {p.name: p for p in (SOLARIS_SDR, LINUX_SDR, LINUX_DDR_RAID)}
