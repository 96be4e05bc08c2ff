"""TCP/IP substrate: the baseline transports of the paper's evaluation.

NFS over TCP is the comparator in Fig 10: on Gigabit Ethernet it is
line-rate-bound (125 MB/s theoretical, ≈107 MB/s observed) and on IPoIB
it is CPU-bound by per-byte copy and checksum work (≈326–360 MB/s on
the paper's Xeons) even though the underlying IB link could carry far
more.  Both limits are *emergent* here: the stack charges copy/checksum
CPU per byte on both ends and occupies the line for wire time, so
whichever saturates first caps throughput.
"""

from repro.tcpip.nic import GIGE_PROFILE, IPOIB_PROFILE, NicProfile
from repro.tcpip.tcp import TcpConnection, TcpEndpoint

__all__ = [
    "GIGE_PROFILE",
    "IPOIB_PROFILE",
    "NicProfile",
    "TcpConnection",
    "TcpEndpoint",
]
