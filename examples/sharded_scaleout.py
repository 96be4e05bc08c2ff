#!/usr/bin/env python
"""Scale-out serving: QP multiplexing, server shards, striped data.

Builds the fig13 deployment shapes through the ``TopologyConfig``
surface of ``repro.api`` and shows what each layer buys:

1. the same mount count per-connection vs QP-muxed — registered
   receive memory and QP count collapse from O(N) to O(sqrt N);
2. mounts redirected across four server shards — the redirector's
   placement and the aggregate bandwidth win;
3. a pNFS-style striped mount (one metadata server, three data
   servers) — one file's bytes spread RAID-0 style across nodes.

Run:  python examples/sharded_scaleout.py
"""

from repro.api import IozoneParams, TopologyConfig, connect, run_iozone

MOUNTS = 64
HOSTS = 4


def build(label: str, **topo):
    dep = connect(TopologyConfig(
        client_hosts=HOSTS, credits=8,
        transport="rdma-rw", strategy="dynamic", nclients=MOUNTS,
        server_workers=8, server_queue_depth=64, **topo))
    print(f"{label:<14} {dep.cluster.qp_count():>4} QPs")
    return dep


def main() -> None:
    # -- 1+2: connection cost, per-connection vs muxed vs sharded ----------
    print(f"{MOUNTS} mounts on {HOSTS} hosts:")
    per_conn = build("per-conn")
    muxed = build("muxed", mux=True, srq=True)
    sharded = build("muxed+sharded", servers=4, mux=True, srq=True)
    print(f"redirector placement: {sharded.cluster.redirector.counts()} "
          f"mounts per shard; mount 0 landed on shard "
          f"{sharded.shard_of(0)}")

    params = IozoneParams(nthreads=1, record_bytes=64 * 1024, ops_per_thread=4)
    for label, dep in (("per-conn", per_conn), ("muxed", muxed),
                       ("muxed+sharded", sharded)):
        r = run_iozone(dep.cluster, params)
        recv_kb = dep.cluster.server_recv_buffer_bytes() / 1024
        print(f"{label:<14} aggregate read {r.read_mb_s:7.1f} MB/s, "
              f"p99 {r.read_latency.p99 / 1000:6.1f} ms, "
              f"{recv_kb:6.1f} KB registered recv")

    # -- 3: pNFS-style striping across data servers ------------------------
    dep = connect(TopologyConfig(
        data_servers=3, mux=True, srq=True,
        transport="rdma-rw", strategy="dynamic", nclients=1))
    nfs = dep.mount()
    fh, _ = nfs.create(nfs.root, "striped.dat")
    payload = bytes(range(256)) * 2048                   # 512 KB
    written, _ = nfs.write(fh, 0, payload)
    data, eof, _ = nfs.read(fh, 0, written)
    assert data == payload and eof
    per_ds = [ds.node.hca.reads.value for ds in dep.cluster.data_stacks]
    print(f"\nstriped {written} bytes over {len(per_ds)} data servers; "
          f"per-DS RDMA Read bytes: {per_ds}")


if __name__ == "__main__":
    main()
