"""NFS end-to-end tests across every transport and backend."""

import pytest

from repro.analysis import SOLARIS_SDR
from repro.experiments import Cluster, ClusterConfig
from repro.nfs import NfsError
from repro.nfs.protocol import Nfs3Status

ALL_TRANSPORTS = ["rdma-rw", "rdma-rr", "tcp-ipoib", "tcp-gige"]


def cluster(**kwargs):
    return Cluster(ClusterConfig(**kwargs))


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_nfs_file_lifecycle(transport):
    c = cluster(transport=transport)
    nfs = c.mounts[0].nfs
    blob = bytes(i % 241 for i in range(200_000))

    def proc():
        fh, attrs = yield from nfs.create(nfs.root, "data.bin")
        written, attrs = yield from nfs.write(fh, 0, blob)
        assert written == len(blob)
        assert attrs.size == len(blob)
        data, eof, attrs = yield from nfs.read(fh, 0, len(blob))
        assert eof
        return data

    assert c.run(proc()) == blob


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_nfs_namespace_via_transport(transport):
    c = cluster(transport=transport)
    nfs = c.mounts[0].nfs

    def proc():
        d, _ = yield from nfs.mkdir(nfs.root, "projects")
        f, _ = yield from nfs.create(d, "notes.txt")
        yield from nfs.write(f, 0, b"hello")
        s, _ = yield from nfs.symlink(d, "latest", "notes.txt")
        assert (yield from nfs.readlink(s)) == "notes.txt"
        fh2, attrs = yield from nfs.walk("/projects/notes.txt")
        assert attrs.size == 5
        entries = yield from nfs.readdir(d)
        assert sorted(e.name for e in entries) == ["latest", "notes.txt"]
        yield from nfs.rename(d, "notes.txt", nfs.root, "promoted.txt")
        data, _, _ = yield from (
            nfs.read((yield from nfs.walk("/promoted.txt"))[0], 0, 10)
        )
        return data

    assert c.run(proc()) == b"hello"


def test_nfs_enoent_surfaces_as_status():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        try:
            yield from nfs.lookup(nfs.root, "missing")
        except NfsError as exc:
            return exc.status
        return None

    assert c.run(proc()) is Nfs3Status.NOENT


def test_nfs_getattr_setattr():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "f")
        yield from nfs.write(fh, 0, bytes(1000))
        attrs = yield from nfs.setattr(fh, size=100)
        assert attrs.size == 100
        again = yield from nfs.getattr(fh)
        return again.size

    assert c.run(proc()) == 100


def test_nfs_access_and_fsstat():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        granted = yield from nfs.access(nfs.root)
        stat = yield from nfs.fsstat()
        return granted, stat

    granted, stat = c.run(proc())
    assert granted == 0x3F
    assert stat.total_bytes > 0


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr", "tcp-ipoib"])
def test_nfs_large_readdir_long_reply(transport):
    """A directory big enough that its listing exceeds the inline size."""
    c = cluster(transport=transport)
    nfs = c.mounts[0].nfs

    def proc():
        d, _ = yield from nfs.mkdir(nfs.root, "big")
        for i in range(200):
            yield from nfs.create(d, f"file-{i:04d}.dat")
        entries = yield from nfs.readdir(d)
        return entries

    entries = c.run(proc())
    assert len(entries) == 200
    assert entries[0].name == "file-0000.dat"


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
@pytest.mark.parametrize("strategy", ["dynamic", "fmr", "cache", "all-physical"])
def test_nfs_rdma_strategies_integrity(transport, strategy):
    c = cluster(transport=transport, strategy=strategy)
    nfs = c.mounts[0].nfs
    blob = bytes(i % 233 for i in range(512 * 1024))

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "x")
        yield from nfs.write(fh, 0, blob)
        data, _, _ = yield from nfs.read(fh, 0, len(blob))
        return data

    assert c.run(proc()) == blob


def test_nfs_raid_backend_roundtrip_with_commit():
    c = cluster(backend="raid", cache_bytes=16 << 20)
    nfs = c.mounts[0].nfs
    blob = bytes(range(256)) * 2048  # 512 KB

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "ondisk")
        yield from nfs.write(fh, 0, blob)
        yield from nfs.commit(fh)
        data, _, _ = yield from nfs.read(fh, 0, len(blob))
        return data

    assert c.run(proc()) == blob
    disk_writes = sum(d.bytes_written.value for d in c.raid.disks)
    assert disk_writes >= len(blob)


def test_nfs_multiple_clients_share_namespace():
    c = cluster(nclients=3)

    def writer():
        nfs = c.mounts[0].nfs
        fh, _ = yield from nfs.create(nfs.root, "shared.txt")
        yield from nfs.write(fh, 0, b"from client zero")

    c.run(writer())

    def reader(mount):
        fh, _ = yield from mount.nfs.walk("/shared.txt")
        data, _, _ = yield from mount.nfs.read(fh, 0, 100)
        return data

    for mount in c.mounts[1:]:
        assert c.run(reader(mount)) == b"from client zero"


def test_nfs_zero_copy_direct_io_read():
    c = cluster(transport="rdma-rw")
    nfs = c.mounts[0].nfs
    node = c.mounts[0].node
    blob = bytes(i % 227 for i in range(256 * 1024))

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "dio")
        yield from nfs.write(fh, 0, blob)
        app_buf = node.arena.alloc(256 * 1024)
        data, eof, _ = yield from nfs.read(fh, 0, 256 * 1024, read_buffer=app_buf)
        return data, app_buf.peek(0, 256 * 1024)

    data, in_place = c.run(proc())
    assert data == blob
    assert in_place == blob  # server wrote directly into the app buffer


def test_nfs_write_stable_hits_disks_immediately():
    c = cluster(backend="raid", cache_bytes=64 << 20)
    nfs = c.mounts[0].nfs

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "stable")
        yield from nfs.write(fh, 0, bytes(128 * 1024), stable=True)

    c.run(proc())
    assert sum(d.bytes_written.value for d in c.raid.disks) >= 128 * 1024


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(transport="carrier-pigeon")
    with pytest.raises(ValueError):
        ClusterConfig(strategy="hope")
    with pytest.raises(ValueError):
        ClusterConfig(backend="punchcards")
    with pytest.raises(ValueError):
        ClusterConfig(nclients=0)


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr", "tcp-ipoib"])
def test_nfs_hard_links(transport):
    c = cluster(transport=transport)
    nfs = c.mounts[0].nfs

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "original")
        yield from nfs.write(fh, 0, b"shared content")
        attrs = yield from nfs.link(fh, nfs.root, "alias")
        assert attrs.nlink == 2
        alias_fh, alias_attrs = yield from nfs.lookup(nfs.root, "alias")
        assert alias_attrs.fileid == attrs.fileid
        data, _, _ = yield from nfs.read(alias_fh, 0, 100)
        assert data == b"shared content"
        # Removing one name keeps the inode alive through the other.
        yield from nfs.remove(nfs.root, "original")
        data, _, _ = yield from nfs.read(alias_fh, 0, 100)
        assert data == b"shared content"
        after = yield from nfs.getattr(alias_fh)
        assert after.nlink == 1
        yield from nfs.remove(nfs.root, "alias")
        try:
            yield from nfs.getattr(alias_fh)
        except NfsError as exc:
            return exc.status
        return None

    assert c.run(proc()) is Nfs3Status.STALE


def test_nfs_mknod_special():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        fh, attrs = yield from nfs.mknod(nfs.root, "fifo0")
        return attrs

    attrs = c.run(proc())
    from repro.fs.api import FileKind

    assert attrs.kind is FileKind.SPECIAL


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_nfs_readdirplus_long_reply(transport):
    """READDIRPLUS's per-entry fattrs force the long-reply machinery."""
    c = cluster(transport=transport)
    nfs = c.mounts[0].nfs

    def proc():
        d, _ = yield from nfs.mkdir(nfs.root, "plus")
        for i in range(120):
            f, _ = yield from nfs.create(d, f"entry-{i:03d}")
            yield from nfs.write(f, 0, bytes(i))
        entries = yield from nfs.readdirplus(d)
        return entries

    entries = c.run(proc())
    assert len(entries) == 120
    name, fh, attrs = entries[5]
    assert name == "entry-005"
    assert attrs.size == 5
    assert fh.fileid == attrs.fileid


def test_nfs_fsinfo_reports_transport_limits():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        return (yield from nfs.fsinfo())

    info = c.run(proc())
    assert info.rtmax == 1 << 20
    assert info.wtmax == info.rtmax


def test_nfs_pathconf():
    c = cluster()
    nfs = c.mounts[0].nfs

    def proc():
        return (yield from nfs.pathconf())

    conf = c.run(proc())
    assert conf.name_max == 255
    assert conf.no_trunc


# ---------------------------------------------------------------- large I/O
def test_read_write_large_split_at_limit():
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    nfs = c.mounts[0].nfs
    blob = bytes(i % 249 for i in range(700_000))

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "big")
        info = yield from nfs.fsinfo()
        before = nfs.ops.events
        yield from nfs.write_large(fh, 0, blob, limit=256 * 1024)
        writes = nfs.ops.events - before
        data, eof = yield from nfs.read_large(fh, 0, len(blob), limit=256 * 1024)
        return info, writes, data, eof

    info, writes, data, eof = c.run(proc())
    assert info.rtmax == 1 << 20
    assert writes == 3  # ceil(700000 / 262144)
    assert data == blob and eof


def test_large_io_validation():
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    nfs = c.mounts[0].nfs

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "f")
        with pytest.raises(ValueError):
            yield from nfs.read_large(fh, 0, 10, limit=0)
        with pytest.raises(ValueError):
            yield from nfs.write_large(fh, 0, b"x", limit=0)

    c.run(proc())
