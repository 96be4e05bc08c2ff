"""The stable public surface of the reproduction.

Embedding scripts (and everything under ``examples/``) import from
here instead of reaching into internal modules::

    from repro.api import ClusterConfig, connect

    nfs = connect(ClusterConfig.rdma_rw(strategy="cache")).mount()
    fh, _ = nfs.create(nfs.root, "hello.dat")
    nfs.write(fh, 0, b"hello, rdma world!")

Three layers:

* :class:`ClusterConfig` + its builders (``rdma_rw``/``rdma_rr``/
  ``tcp``) describe a *single-server* deployment — the paper's testbed
  shape — and stay the one-node sugar.  :class:`TopologyConfig` is the
  scale-out form: ``TopologyConfig(servers=K, data_servers=M,
  mux=True, ...)`` shards mounts across K server nodes (placed
  by the build-time mount redirector), stripes file data across M data
  servers, and multiplexes mounts onto shared QPs.  :func:`connect`
  accepts either and wires it through the one :class:`Cluster` builder.
* :class:`Deployment` owns the simulated cluster; each
  :class:`MountHandle` exposes the NFSv3 verbs *synchronously* — every
  call steps the simulator until the reply arrives, so callers never
  touch ``cluster.run`` or generator plumbing.  Multi-verb atomic
  scripts still can: :meth:`Deployment.run` accepts a generator.
* Errors surface as the typed hierarchy in :mod:`repro.errors`
  (``ReproError`` and friends, re-exported here).

Workload drivers and the experiment registry are re-exported so a
single import serves benchmark scripts too.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NfsStatusError, PoolExhausted, ReproError, TransportError
from repro.experiments.cluster import Cluster, ClusterConfig, default_srq_entries
from repro.experiments.registry import EXPERIMENTS, run as run_experiment
from repro.experiments.topology import TopologyConfig, config_from_spec
from repro.ib.mux import default_mux_qps
from repro.workloads import (
    IozoneParams,
    OltpParams,
    PostmarkParams,
    run_iozone,
    run_oltp,
    run_postmark,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Deployment",
    "EXPERIMENTS",
    "IozoneParams",
    "MountHandle",
    "NfsStatusError",
    "OltpParams",
    "PoolExhausted",
    "PostmarkParams",
    "ReproError",
    "TopologyConfig",
    "TransportError",
    "connect",
    "default_mux_qps",
    "default_srq_entries",
    "run_experiment",
    "run_iozone",
    "run_oltp",
    "run_postmark",
]

#: The NFSv3 verb surface MountHandle exposes synchronously (each is a
#: generator method on :class:`repro.nfs.client.NfsClient`).
_VERBS = frozenset({
    "null", "getattr", "setattr", "lookup", "access", "readlink", "read",
    "write", "create", "mkdir", "symlink", "mknod", "link", "remove",
    "rmdir", "rename", "readdir", "readdirplus", "fsinfo", "pathconf",
    "fsstat", "commit", "read_large", "write_large", "walk",
})


class MountHandle:
    """One client's mount, with synchronous NFS verbs.

    ``handle.read(fh, 0, 4096)`` runs the simulator until the RPC
    completes and returns the verb's result tuple.  NFS-level failures
    raise :class:`~repro.errors.NfsStatusError` (carrying the NFS3
    status), transport loss raises
    :class:`~repro.errors.TransportError` subclasses.
    """

    def __init__(self, cluster: Cluster, mount) -> None:
        self._cluster = cluster
        self.mount = mount

    @property
    def root(self):
        """The mount's root file handle."""
        return self.mount.nfs.root

    @property
    def nfs(self):
        """The underlying generator-based client (for ``Deployment.run``)."""
        return self.mount.nfs

    @property
    def node(self):
        return self.mount.node

    def __getattr__(self, name: str):
        if name not in _VERBS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        verb = getattr(self.mount.nfs, name)
        cluster = self._cluster

        def call(*args, **kwargs):
            return cluster.run(verb(*args, **kwargs))

        call.__name__ = name
        call.__doc__ = verb.__doc__
        return call

    def __dir__(self):
        return sorted(set(super().__dir__()) | _VERBS)


class Deployment:
    """A wired simulated NFS deployment: cluster + synchronous mounts.

    Accepts either deployment description:

    * :class:`ClusterConfig` (or its field kwargs) — the historical
      single-server surface;
    * :class:`TopologyConfig` (or kwargs containing any topology field:
      ``servers``, ``data_servers``, ``mux``, ``client_hosts``,
      ``credits``) — mounts placed across server
      shards by the build-time redirector.

    Both are wired as a :class:`Cluster`.
    """

    def __init__(self, config=None, **kwargs) -> None:
        if config is not None and kwargs:
            raise ValueError("pass a config object or field kwargs, not both")
        if config is None:
            config = config_from_spec(kwargs)
        if not isinstance(config, (ClusterConfig, TopologyConfig)):
            raise TypeError(
                f"expected ClusterConfig or TopologyConfig, got "
                f"{type(config).__name__}")
        self.cluster = Cluster(config)
        self.mounts = [MountHandle(self.cluster, m) for m in self.cluster.mounts]

    def mount(self, index: int = 0) -> MountHandle:
        """The ``index``-th client's mount handle.

        On a sharded deployment the mount was already steered to its
        server node by the redirector at build time; ``shard_of`` tells
        you where it landed.
        """
        return self.mounts[index]

    def shard_of(self, index: int = 0) -> int:
        """Which server shard holds mount ``index`` (0 on single-node)."""
        placed = self.cluster.redirector.index_of(index)
        return 0 if placed is None else placed

    def run(self, generator):
        """Escape hatch: run a multi-verb generator script atomically."""
        return self.cluster.run(generator)

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def config(self) -> ClusterConfig:
        """The single-node knobs (the base config of a topology)."""
        return self.cluster.config

    @property
    def topology(self) -> Optional[TopologyConfig]:
        """The scale-out description, or ``None`` on a single-node wire."""
        return self.cluster.topology


def connect(config=None, **kwargs) -> Deployment:
    """Build and wire a deployment — the one-line entry point.

    Accepts a prebuilt :class:`ClusterConfig` (e.g. from the
    ``rdma_rw``/``tcp`` builders), a :class:`TopologyConfig` for
    multi-node serving, or either config's field kwargs directly.
    """
    return Deployment(config, **kwargs)
