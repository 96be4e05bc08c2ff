#!/usr/bin/env python
"""A mounted NFS client doing cached and large I/O.

Walks the full stack from an already-mounted client: FSINFO
negotiation → client-side caching with close-to-open consistency →
large I/O split at the negotiated transfer size — all over the
Read-Write RPC/RDMA transport with the server registration cache.

Run:  python examples/full_deployment.py
"""

from repro.api import Cluster, ClusterConfig
from repro.nfs import CachingNfsClient, ClientCacheConfig


def main() -> None:
    cluster = Cluster(ClusterConfig(transport="rdma-rw", strategy="cache"))
    raw = cluster.mounts[0].nfs
    root = raw.root

    # -- cached I/O on the mounted tree -------------------------------------
    cached = CachingNfsClient(raw, cluster.sim, ClientCacheConfig())

    def work():
        info = yield from raw.fsinfo(root)
        print(f"FSINFO: rtmax={info.rtmax >> 10}KB wtmax={info.wtmax >> 10}KB")
        fh, _ = yield from raw.create(root, "thesis.tex")
        handle = yield from cached.open(fh)
        chapter = b"\\section{NFS over RDMA}\n" * 20_000   # ~480 KB
        yield from cached.write(handle, 0, chapter)
        yield from cached.close(handle)                    # flush + commit
        # Re-open and read: revalidates, then serves from cache.
        handle = yield from cached.open(fh)
        rpcs_before = raw.ops.events
        data, eof = yield from cached.read(handle, 0, len(chapter))
        yield from cached.read(handle, 0, len(chapter))    # pure cache hit
        assert data == chapter and eof
        print(f"read {len(data)} bytes twice with "
              f"{raw.ops.events - rpcs_before} data RPCs after warmup; "
              f"cache hit ratio {cached.pages.hit_ratio():.0%}")
        # Large I/O honours the negotiated transfer ceiling.
        big = bytes(3 << 20)
        yield from raw.write_large(fh, 0, big, limit=info.wtmax)
        back, _ = yield from raw.read_large(fh, 0, len(big), limit=info.rtmax)
        assert back == big
        print(f"3 MB round-trip split into {-(-len(big) // info.wtmax)} "
              "wire transfers per direction")

    cluster.run(work())
    print(f"simulated time: {cluster.sim.now / 1e6:.2f} s; "
          f"server stags exposed: "
          f"{len(cluster.server_node.hca.tpt.stags_exposed_ever)}")


if __name__ == "__main__":
    main()
