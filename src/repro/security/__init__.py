"""Security evaluation: the §4.1 threat model, executable.

The paper's security argument is comparative: the Read-Read design
exposes server steering tags and puts server buffer lifetime in client
hands; the Read-Write design exposes nothing on the server and the
client's exposure is only toward the (trusted) server.
:mod:`repro.security.adversary` implements the malicious clients the
paper describes — steering-tag guessers, RDMA_DONE withholders,
out-of-bounds readers, stale-chunk replayers, garbage flooders — and
:mod:`repro.security.audit` measures the attack surface and reproduces
Table 1's primitive-property matrix by probing the verbs layer.

:mod:`repro.security.campaign` runs those adversaries as long-lived
malicious mounts mixed with legitimate traffic, and
:mod:`repro.security.policy` is each server stack's security ledger,
which every server end, the RPC dispatcher and the HCA's NAK hook
report into, and which escalates to throttle and quarantine.
"""

from repro.security.adversary import (
    DoneWithholdingClient,
    FloodAdversary,
    OutOfBoundsProbe,
    StagGuessingAdversary,
    StaleChunkReplayAdversary,
)
from repro.security.audit import (
    PrimitiveProperties,
    audit_server_exposure,
    probe_primitive_properties,
    stag_guess_success_probability,
)
from repro.security.campaign import CampaignParams, CampaignResult, run_campaign
from repro.security.policy import SecurityPolicy

__all__ = [
    "CampaignParams",
    "CampaignResult",
    "DoneWithholdingClient",
    "FloodAdversary",
    "OutOfBoundsProbe",
    "PrimitiveProperties",
    "SecurityPolicy",
    "StagGuessingAdversary",
    "StaleChunkReplayAdversary",
    "audit_server_exposure",
    "probe_primitive_properties",
    "run_campaign",
    "stag_guess_success_probability",
]
