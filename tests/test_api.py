"""The repro.api facade: builders, synchronous mounts, typed errors."""

import pytest

import repro.api as api
from repro.api import (
    Cluster,
    ClusterConfig,
    Deployment,
    MountHandle,
    NfsStatusError,
    PoolExhausted,
    ReproError,
    TransportError,
    connect,
)


# ---------------------------------------------------------------- builders
def test_builders_set_transport():
    assert ClusterConfig.rdma_rw().transport == "rdma-rw"
    assert ClusterConfig.rdma_rr().transport == "rdma-rr"
    assert ClusterConfig.tcp().transport == "tcp-ipoib"
    assert ClusterConfig.tcp(nic="gige").transport == "tcp-gige"


def test_tcp_builder_rejects_unknown_nic():
    with pytest.raises(ValueError):
        ClusterConfig.tcp(nic="myrinet")


def test_builders_pass_fields_through():
    cfg = ClusterConfig.rdma_rw(strategy="cache", nclients=4, srq=True)
    assert (cfg.strategy, cfg.nclients, cfg.srq) == ("cache", 4, True)


# ---------------------------------------------------------------- facade
def test_connect_round_trip():
    nfs = connect(ClusterConfig.rdma_rw()).mount()
    home, _ = nfs.mkdir(nfs.root, "home")
    fh, _ = nfs.create(home, "hello.dat")
    payload = b"hello, rdma world! " * 1000
    written, _ = nfs.write(fh, 0, payload)
    data, eof, _ = nfs.read(fh, 0, written)
    assert data == payload and eof
    assert [e.name for e in nfs.readdir(home)] == ["hello.dat"]


def test_connect_accepts_field_kwargs():
    dep = connect(transport="tcp-ipoib", nclients=2)
    assert dep.config.transport == "tcp-ipoib"
    assert len(dep.mounts) == 2
    assert isinstance(dep.mount(1), MountHandle)


def test_deployment_rejects_config_and_kwargs():
    with pytest.raises(ValueError):
        Deployment(ClusterConfig(), nclients=2)


def test_run_escape_hatch_for_generator_scripts():
    dep = connect(ClusterConfig.rdma_rw())
    nfs = dep.mount().nfs   # the generator-based client

    def script():
        fh, _ = yield from nfs.create(nfs.root, "multi.dat")
        yield from nfs.write(fh, 0, b"x" * 4096)
        data, _, _ = yield from nfs.read(fh, 0, 4096)
        return data

    assert dep.run(script()) == b"x" * 4096


def test_mount_handle_rejects_unknown_verbs():
    handle = connect(ClusterConfig.rdma_rw()).mount()
    with pytest.raises(AttributeError):
        handle.frobnicate
    assert "readdirplus" in dir(handle)


# ---------------------------------------------------------------- topology
def test_topology_kwargs_route_to_sharded_cluster():
    dep = connect(transport="rdma-rw", strategy="dynamic",
                  nclients=6, servers=2, mux=True, srq=True)
    assert isinstance(dep.cluster, Cluster)
    assert len(dep.cluster.server_stacks) == 2
    assert not hasattr(api, "MultiCluster")
    assert dep.topology is not None and dep.topology.servers == 2
    assert dep.config.nclients == 6   # base knobs still visible


def test_plain_kwargs_stay_single_node():
    dep = connect(transport="rdma-rw", nclients=2)
    assert dep.topology is None
    assert dep.shard_of(0) == 0 and dep.shard_of(1) == 0


def test_sharded_mounts_round_trip_and_report_shards():
    from repro.api import TopologyConfig

    dep = connect(TopologyConfig(
        transport="rdma-rw", strategy="dynamic", nclients=4,
        servers=2, mux=True, srq=True))
    shards = {dep.shard_of(i) for i in range(4)}
    assert shards == {0, 1}   # redirector spread mounts across both
    for i in range(4):
        nfs = dep.mount(i)
        fh, _ = nfs.create(nfs.root, f"m{i}.dat")
        written, _ = nfs.write(fh, 0, bytes([i]) * 8192)
        data, eof, _ = nfs.read(fh, 0, written)
        assert data == bytes([i]) * 8192 and eof


def test_deployment_rejects_unknown_config_type():
    with pytest.raises(TypeError):
        Deployment(object())


# ---------------------------------------------------------------- errors
def test_nfs_errors_are_typed_and_carry_status():
    from repro.nfs.protocol import Nfs3Status

    nfs = connect(ClusterConfig.rdma_rw()).mount()
    with pytest.raises(NfsStatusError) as exc_info:
        nfs.lookup(nfs.root, "missing")
    err = exc_info.value
    assert err.status == Nfs3Status.NOENT
    assert isinstance(err, ReproError)


def test_transport_errors_are_repro_errors():
    from repro.ib.verbs import QPError
    from repro.rpc.transport import RpcTimeout

    assert issubclass(QPError, TransportError)
    assert issubclass(RpcTimeout, TransportError)
    assert issubclass(TransportError, ReproError)
    assert issubclass(PoolExhausted, ReproError)


# ---------------------------------------------------------------- __all__
def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None
    assert sorted(api.__all__) == list(api.__all__)
