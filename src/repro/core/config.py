"""Tunables for the RPC/RDMA transports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RpcRdmaConfig"]


@dataclass(frozen=True)
class RpcRdmaConfig:
    """Transport parameters shared by both designs.

    ``inline_threshold`` is the Fig 2 inline size: RPC messages that fit
    travel inside the RDMA Send; larger bodies become long calls/replies
    via chunks.  ``credits`` is the flow-control field's grant — also
    the number of pre-posted receive buffers per connection and the cap
    on a client's outstanding calls.

    ``reply_timeout_us = None`` (the default) disables the reply timer
    entirely — no timer events are scheduled, so a fault-free run is
    event-for-event identical to a transport without the recovery
    layer.  An expired timer kills the call's connection, which is
    then redialed like any dead QP; reconnection works even without
    timers because flushed work requests wake the waiting calls.  The
    backoff and redial limits are constants of :mod:`repro.core.base`.

    The hardening knobs all default to *off* (``None``/``False``) and
    are inert when unset: no lease timers are scheduled, no quota is
    enforced and no crypt cost is charged, so default-config figure
    tables are bit-identical with or without this code.
    ``lease_timeout_us`` bounds how long a Read-Read exposure may await
    its ``RDMA_DONE`` before the server reclaims (and deregisters — a
    sanitizer-visible epoch bump) the region.  ``exposure_quota_bytes``
    caps one client's concurrently exposed bytes; admission past the cap
    evicts that client's oldest pending exposure first.  ``aes_payload``
    charges ``cpu.crypt`` per payload byte on both ends.
    """

    inline_threshold: int = 1024
    credits: int = 32
    #: first reply timeout of a call; None = no reply timer (zero events).
    reply_timeout_us: Optional[float] = None
    #: Read-Read exposure lease; None = exposures await DONE forever.
    lease_timeout_us: Optional[float] = None
    #: per-client cap on concurrently exposed bytes; None = unlimited.
    exposure_quota_bytes: Optional[int] = None
    #: encrypt payloads end-to-end, charging cpu.crypt per byte both ends.
    aes_payload: bool = False

    def __post_init__(self):
        if self.inline_threshold < 256:
            raise ValueError("inline threshold unrealistically small")
        if self.credits < 1:
            raise ValueError("need at least one credit")
        if self.reply_timeout_us is not None and self.reply_timeout_us <= 0:
            raise ValueError("reply timeout must be positive (or None)")
        if self.lease_timeout_us is not None and self.lease_timeout_us <= 0:
            raise ValueError("lease timeout must be positive (or None)")
        if self.exposure_quota_bytes is not None and self.exposure_quota_bytes <= 0:
            raise ValueError("exposure quota must be positive (or None)")
