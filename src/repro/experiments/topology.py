"""Scale-out deployment descriptions (DESIGN.md §15).

A :class:`TopologyConfig` adds K server shards (mounts placed by a
build-time :class:`~repro.nfs.redirector.MountRedirector`), M pNFS-style
data servers (:class:`~repro.nfs.striping.StripedNfsClient`), H client
hosts (mount ``m`` lives on host ``m % H``) and optional QP multiplexing
(:class:`~repro.ib.mux.QpMux`) to a ``ClusterConfig``'s single-node
knobs.  :class:`~repro.experiments.cluster.Cluster` builds it on the same
path as a one-server ``ClusterConfig``, and :func:`config_from_spec`
turns a plain-data spec into whichever of the two it describes.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.calibration import PROFILES
from repro.experiments.cluster import ClusterConfig

__all__ = ["TopologyConfig", "TOPOLOGY_KEYS", "config_from_spec"]

#: Spec keys that make :func:`config_from_spec` build a
#: :class:`TopologyConfig` instead of a ``ClusterConfig``.
TOPOLOGY_KEYS = ("servers", "data_servers", "mux", "client_hosts", "credits")


class TopologyConfig:
    """A multi-node deployment: base cluster knobs + topology knobs.

    ``cluster`` carries the single-node knobs (transport, strategy,
    profile, nclients, ...); alternatively pass them as keyword
    arguments and they are folded into a fresh
    :class:`~repro.experiments.cluster.ClusterConfig`::

        TopologyConfig(servers=4, mux=True, nclients=1000, srq=True)

    ``mux`` shares a few QPs per (client host, server) pair among that
    pair's mounts (:class:`~repro.ib.mux.QpMux`).
    """

    def __init__(self, servers: int = 1, data_servers: int = 0,
                 mux: bool = False, client_hosts: Optional[int] = None,
                 credits: Optional[int] = None,
                 cluster: Optional[ClusterConfig] = None,
                 **cluster_kwargs):
        if cluster is not None and cluster_kwargs:
            raise ValueError("pass either cluster= or ClusterConfig "
                             "keyword arguments, not both")
        if servers < 1:
            raise ValueError("need at least one server")
        if data_servers < 0:
            raise ValueError("data_servers must be non-negative")
        if client_hosts is not None and client_hosts < 1:
            raise ValueError("client_hosts must be >= 1 (or None)")
        if credits is not None and credits < 1:
            raise ValueError("credits must be >= 1 (or None)")
        if not isinstance(mux, bool):
            raise ValueError("mux must be a bool")
        self.servers = servers
        self.data_servers = data_servers
        self.mux = mux
        self.client_hosts = client_hosts
        self.credits = credits
        self.cluster = cluster if cluster is not None \
            else ClusterConfig(**cluster_kwargs)
        if not self.cluster.is_rdma:
            raise ValueError("multi-node topologies require an RDMA "
                             "transport (use ClusterConfig for TCP)")


def config_from_spec(spec: dict):
    """The deployment a dict of config fields describes.

    ``profile`` may be a :data:`~repro.analysis.calibration.PROFILES`
    name (so a spec stays plain, picklable data) or a profile object.
    Any :data:`TOPOLOGY_KEYS` field makes it a :class:`TopologyConfig`
    around the rest; otherwise it is a ``ClusterConfig``.
    """
    kwargs = dict(spec)
    if isinstance(kwargs.get("profile"), str):
        kwargs["profile"] = PROFILES[kwargs["profile"]]
    topology = {k: kwargs.pop(k) for k in TOPOLOGY_KEYS if k in kwargs}
    config = ClusterConfig(**kwargs)
    return TopologyConfig(cluster=config, **topology) if topology else config
