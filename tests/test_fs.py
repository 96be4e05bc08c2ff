"""Tests for the file-system substrates: tmpfs, disks, RAID, page cache,
and the disk-backed extent FS."""

import pytest

from repro.fs import (
    BlockFs,
    Disk,
    DiskConfig,
    FileKind,
    FsError,
    PageCache,
    Raid0,
    TmpFs,
)
from repro.osmodel import CPU, CPUConfig
from repro.sim import DeterministicRNG, Simulator


def make_tmpfs():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))
    return sim, TmpFs(sim, cpu)


def make_blockfs(cache_bytes=4 << 20, ndisks=8, flush_interval_us=0.0):
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))
    raid = Raid0(sim, ndisks=ndisks)
    fs = BlockFs(sim, cpu, raid, cache_bytes=cache_bytes,
                 flush_interval_us=flush_interval_us)
    return sim, fs


#: both server file systems, for behaviour they must share.
BOTH_FS = pytest.mark.parametrize("make_fs", [make_tmpfs, make_blockfs],
                                  ids=["tmpfs", "blockfs"])


def run(sim, gen):
    return sim.run_until_complete(sim.process(gen))


# ---------------------------------------------------------------- tmpfs
def test_tmpfs_create_write_read_roundtrip():
    sim, fs = make_tmpfs()

    def proc():
        fid = yield from fs.create(fs.root_id, "data.bin")
        yield from fs.write(fid, 0, b"hello world")
        data, eof = yield from fs.read(fid, 0, 100)
        return data, eof

    data, eof = run(sim, proc())
    assert data == b"hello world"
    assert eof


def test_tmpfs_partial_read_and_offsets():
    sim, fs = make_tmpfs()

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(range(100)))
        mid, eof1 = yield from fs.read(fid, 10, 20)
        tail, eof2 = yield from fs.read(fid, 90, 50)
        return mid, eof1, tail, eof2

    mid, eof1, tail, eof2 = run(sim, proc())
    assert mid == bytes(range(10, 30))
    assert not eof1
    assert tail == bytes(range(90, 100))
    assert eof2


def test_tmpfs_sparse_write_zero_fills():
    sim, fs = make_tmpfs()

    def proc():
        fid = yield from fs.create(fs.root_id, "sparse")
        yield from fs.write(fid, 100, b"xx")
        data, _ = yield from fs.read(fid, 0, 102)
        return data

    data = run(sim, proc())
    assert data[:100] == bytes(100)
    assert data[100:] == b"xx"


def test_tmpfs_namespace_operations():
    sim, fs = make_tmpfs()

    def proc():
        d = yield from fs.mkdir(fs.root_id, "dir")
        f = yield from fs.create(d, "file")
        s = yield from fs.symlink(d, "link", "/dir/file")
        assert (yield from fs.lookup(d, "file")) == f
        assert (yield from fs.readlink(s)) == "/dir/file"
        entries = yield from fs.readdir(d)
        assert [e.name for e in entries] == ["file", "link"]
        yield from fs.rename(d, "file", fs.root_id, "moved")
        assert (yield from fs.lookup(fs.root_id, "moved")) == f
        yield from fs.remove(fs.root_id, "moved")
        yield from fs.remove(d, "link")
        yield from fs.rmdir(fs.root_id, "dir")
        entries = yield from fs.readdir(fs.root_id)
        return entries

    assert run(sim, proc()) == []


def test_tmpfs_errors():
    sim, fs = make_tmpfs()

    def expect(status, gen):
        try:
            yield from gen
        except FsError as exc:
            assert exc.status == status
        else:
            raise AssertionError(f"expected {status}")

    def proc():
        yield from expect("NOENT", fs.lookup(fs.root_id, "ghost"))
        fid = yield from fs.create(fs.root_id, "f")
        yield from expect("EXIST", fs.create(fs.root_id, "f"))
        yield from expect("NOTDIR", fs.lookup(fid, "x"))
        d = yield from fs.mkdir(fs.root_id, "d")
        yield from fs.create(d, "inner")
        yield from expect("NOTEMPTY", fs.rmdir(fs.root_id, "d"))
        yield from expect("ISDIR", fs.remove(fs.root_id, "d"))
        yield from expect("STALE", fs.getattr(99999))

    run(sim, proc())


@BOTH_FS
def test_setattr_truncate_and_extend(make_fs):
    sim, fs = make_fs()

    def proc():
        fid = yield from fs.create(fs.root_id, "t")
        yield from fs.write(fid, 0, b"abcdef")
        yield from fs.setattr(fid, size=3)
        short, _ = yield from fs.read(fid, 0, 10)
        yield from fs.setattr(fid, size=6)
        padded, _ = yield from fs.read(fid, 0, 10)
        return short, padded

    short, padded = run(sim, proc())
    assert short == b"abc"
    assert padded == b"abc\x00\x00\x00"


@BOTH_FS
def test_rename_over_existing_file_unlinks_it(make_fs):
    sim, fs = make_fs()

    def proc():
        f = yield from fs.create(fs.root_id, "f")
        g = yield from fs.create(fs.root_id, "g")
        yield from fs.write(f, 0, b"F" * 1000)
        yield from fs.write(g, 0, b"G" * 500)
        yield from fs.rename(fs.root_id, "f", fs.root_id, "g")
        assert (yield from fs.lookup(fs.root_id, "g")) == f
        return g

    g = run(sim, proc())
    assert fs.used_bytes == 1000      # the replaced file's 500 B are freed
    assert g not in fs._inodes
    if isinstance(fs, BlockFs):
        assert not fs.cache.is_resident((g, 0))
        assert g not in fs._extents


@BOTH_FS
def test_rename_over_hard_link_keeps_the_other_name(make_fs):
    sim, fs = make_fs()

    def proc():
        f = yield from fs.create(fs.root_id, "f")
        g = yield from fs.create(fs.root_id, "g")
        yield from fs.write(f, 0, b"F" * 1000)
        yield from fs.write(g, 0, b"G" * 500)
        yield from fs.link(fs.root_id, "h", g)
        yield from fs.rename(fs.root_id, "f", fs.root_id, "g")
        attrs = yield from fs.getattr(g)          # still reachable as h
        data, _ = yield from fs.read(g, 0, 1000)
        return attrs.nlink, data

    nlink, data = run(sim, proc())
    assert nlink == 1
    assert data == b"G" * 500
    assert fs.used_bytes == 1500


@BOTH_FS
def test_rename_between_links_of_one_file_is_a_no_op(make_fs):
    sim, fs = make_fs()

    def proc():
        g = yield from fs.create(fs.root_id, "g")
        yield from fs.link(fs.root_id, "h", g)
        yield from fs.rename(fs.root_id, "g", fs.root_id, "h")
        names = [e.name for e in (yield from fs.readdir(fs.root_id))]
        attrs = yield from fs.getattr(g)
        return names, attrs.nlink

    assert run(sim, proc()) == (["g", "h"], 2)


def test_tmpfs_capacity_enforced():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))
    fs = TmpFs(sim, cpu, capacity_bytes=1024)

    def proc():
        fid = yield from fs.create(fs.root_id, "big")
        try:
            yield from fs.write(fid, 0, bytes(2048))
        except FsError as exc:
            return exc.status
        return "no-error"

    assert run(sim, proc()) == "NOSPC"


# ---------------------------------------------------------------- disk
def test_disk_sequential_faster_than_random():
    sim = Simulator()
    disk = Disk(sim, DiskConfig(), DeterministicRNG(5, "d"))

    def seq():
        for i in range(10):
            yield from disk.read(i * 64 * 1024, 64 * 1024)
        return sim.now

    t_seq = run(sim, seq())

    sim2 = Simulator()
    disk2 = Disk(sim2, DiskConfig(), DeterministicRNG(5, "d"))

    def rand():
        for i in range(10):
            yield from disk2.read(i * 500 << 20, 64 * 1024)
        return sim2.now

    t_rand = sim2.run_until_complete(sim2.process(rand()))
    assert t_rand > 3 * t_seq


def test_disk_streaming_rate():
    sim = Simulator()
    disk = Disk(sim, DiskConfig(streaming_mb_s=30.0), DeterministicRNG(5, "d"))
    size = 16 << 20

    def proc():
        pos = 0
        while pos < size:
            yield from disk.read(pos, 1 << 20)
            pos += 1 << 20
        return sim.now

    elapsed = run(sim, proc())
    assert size / elapsed == pytest.approx(30.0, rel=0.05)


def test_disk_serializes_requests():
    sim = Simulator()
    disk = Disk(sim, DiskConfig(), DeterministicRNG(5, "d"))
    ends = []

    def proc():
        yield from disk.read(0, 3 << 20)  # ~100ms at 30MB/s
        ends.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert ends[1] >= 2 * ends[0] * 0.9


# ---------------------------------------------------------------- raid
def test_raid0_aggregate_bandwidth_scales():
    results = {}
    for ndisks in (1, 8):
        sim = Simulator()
        raid = Raid0(sim, ndisks=ndisks, stripe_unit_bytes=64 * 1024)
        size = 16 << 20

        def proc():
            pos = 0
            while pos < size:
                yield from raid.read(pos, 1 << 20)
                pos += 1 << 20
            return sim.now

        results[ndisks] = size / sim.run_until_complete(sim.process(proc()))
    assert results[1] == pytest.approx(30.0, rel=0.1)
    assert results[8] > 5 * results[1]  # near 240 MB/s aggregate


def test_raid0_piece_mapping_covers_request():
    sim = Simulator()
    raid = Raid0(sim, ndisks=4, stripe_unit_bytes=64 * 1024)
    pieces = list(raid._pieces(100 * 1024, 300 * 1024))
    assert sum(p[2] for p in pieces) == 300 * 1024
    # Crossing stripe boundaries touches multiple disks.
    assert len({id(p[0]) for p in pieces}) > 1


def test_raid0_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Raid0(sim, ndisks=0)
    with pytest.raises(ValueError):
        Raid0(sim, ndisks=2, stripe_unit_bytes=100)


# ---------------------------------------------------------------- page cache
def test_pagecache_hit_after_insert():
    cache = PageCache(capacity_bytes=4 * 64 * 1024)
    key = (1, 0)
    assert not cache.touch(key)
    cache.insert(key)
    assert cache.touch(key)
    assert cache.hit_ratio() == 0.5


def test_pagecache_lru_eviction_order():
    cache = PageCache(capacity_bytes=2 * 64 * 1024)
    cache.insert((1, 0))
    cache.insert((1, 1))
    cache.touch((1, 0))        # promote page 0
    evicted = cache.insert((1, 2))
    assert [k for k, _ in evicted] == [(1, 1)]  # LRU page went


def test_pagecache_dirty_eviction_reported():
    cache = PageCache(capacity_bytes=64 * 1024)
    cache.insert((1, 0), dirty=True)
    evicted = cache.insert((1, 1))
    assert evicted == [((1, 0), True)]
    assert cache.writebacks.events == 1


def test_pagecache_capacity_never_exceeded():
    cache = PageCache(capacity_bytes=8 * 64 * 1024)
    for i in range(100):
        cache.insert((1, i))
        assert cache.resident_bytes <= cache.capacity_bytes


def test_pagecache_invalidate_file():
    cache = PageCache(capacity_bytes=16 * 64 * 1024)
    for i in range(4):
        cache.insert((7, i))
    cache.insert((8, 0))
    assert cache.invalidate(7) == 4
    assert cache.resident_pages == 1


def test_pagecache_mark_clean():
    cache = PageCache(capacity_bytes=4 * 64 * 1024)
    cache.insert((1, 0), dirty=True)
    assert cache.dirty_pages() == [(1, 0)]
    cache.mark_clean((1, 0))
    assert cache.dirty_pages() == []


# ---------------------------------------------------------------- blockfs
def test_blockfs_write_read_roundtrip():
    sim, fs = make_blockfs()
    blob = bytes(i % 253 for i in range(300 * 1024))

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, blob)
        data, eof = yield from fs.read(fid, 0, len(blob))
        return data, eof

    data, eof = run(sim, proc())
    assert data == blob
    assert eof


def test_blockfs_partial_page_rmw():
    sim, fs = make_blockfs()

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, b"A" * 100)
        yield from fs.write(fid, 50, b"B" * 10)
        data, _ = yield from fs.read(fid, 0, 100)
        return data

    data = run(sim, proc())
    assert data == b"A" * 50 + b"B" * 10 + b"A" * 40


def test_blockfs_cached_read_is_fast_uncached_is_slow():
    sim, fs = make_blockfs(cache_bytes=64 << 20)
    size = 4 << 20

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(size))
        yield from fs.commit(fid)
        t0 = sim.now
        yield from fs.read(fid, 0, size)
        warm = sim.now - t0
        return warm

    warm = run(sim, proc())
    # Warm read never touches the spindles: memcpy-speed only.
    base_reads = sum(d.bytes_read.value for d in fs.raid.disks)
    assert base_reads == 0
    assert warm < 6000.0  # ~4MB of memcpy, not ~17ms of disk


def test_blockfs_read_misses_hit_disks():
    sim, fs = make_blockfs(cache_bytes=1 << 20)  # tiny cache
    size = 8 << 20

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(size))
        yield from fs.commit(fid)
        # Working set exceeded the cache: sequential re-read must miss.
        yield from fs.read(fid, 0, size)

    run(sim, proc())
    assert sum(d.bytes_read.value for d in fs.raid.disks) >= size * 0.9


def test_blockfs_commit_flushes_dirty_pages():
    sim, fs = make_blockfs(cache_bytes=64 << 20)

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(1 << 20))
        before = sum(d.bytes_written.value for d in fs.raid.disks)
        yield from fs.commit(fid)
        after = sum(d.bytes_written.value for d in fs.raid.disks)
        return before, after

    before, after = run(sim, proc())
    assert before == 0          # unstable write: nothing on disk yet
    assert after >= 1 << 20     # commit pushed it out
    assert fs.cache.dirty_pages() == []


def _rewrite_during_writeback(fs, sim, writeback, rewrite_at):
    """Dirty page 0, run ``writeback``, and rewrite page 0 at time
    ``rewrite_at(start of writeback)``, while that write-back is on the
    disk.  Returns the fid."""
    page = fs.page_bytes
    box = {}

    def rewriter(fid, at):
        yield sim.timeout(at - sim.now)
        yield from fs.write(fid, 0, b"2" * page)

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, b"1" * page)
        box["fid"] = fid
        rewrite = sim.process(rewriter(fid, rewrite_at(sim.now)))
        yield from writeback(fid)
        yield rewrite

    run(sim, proc())
    return box["fid"]


def _disk_bytes_written(fs):
    return sum(d.bytes_written.value for d in fs.raid.disks)


def test_blockfs_commit_keeps_page_rewritten_during_writeback():
    sim, fs = make_blockfs(cache_bytes=64 << 20)
    fid = _rewrite_during_writeback(fs, sim, fs.commit, lambda t: t + 1.0)
    assert fs.cache.dirty_pages() == [(fid, 0)]

    def second_commit():
        before, start = _disk_bytes_written(fs), sim.now
        yield from fs.commit(fid)
        return _disk_bytes_written(fs) - before, sim.now - start

    written, took = run(sim, second_commit())
    assert written == fs.page_bytes     # the rewrite still reaches the disk
    assert took > 1000.0                # a real disk write, not a no-op
    assert fs.cache.dirty_pages() == []


def test_blockfs_flusher_keeps_page_rewritten_during_writeback():
    sim, fs = make_blockfs(cache_bytes=64 << 20, flush_interval_us=1000.0)

    def first_flush(fid):
        # The flusher's first tick starts a ~2.2 ms write-back at 1 ms.
        yield sim.timeout(3500.0 - sim.now)

    fid = _rewrite_during_writeback(fs, sim, first_flush, lambda t: 1001.0)
    assert fs.cache.dirty_pages() == [(fid, 0)]
    assert _disk_bytes_written(fs) == fs.page_bytes
    sim.run(until=8000.0)               # the next tick writes the rewrite
    assert fs.cache.dirty_pages() == []
    assert _disk_bytes_written(fs) == 2 * fs.page_bytes


def test_blockfs_background_flusher_cleans():
    sim, fs = make_blockfs(cache_bytes=64 << 20, flush_interval_us=1000.0)

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(256 * 1024))

    run(sim, proc())
    sim.run(until=sim.now + 1_000_000.0)
    assert fs.cache.dirty_pages() == []


def test_blockfs_page_interning_dedupes_identical_pages():
    sim, fs = make_blockfs()
    pattern = bytes(range(256)) * 256  # one 64KB page content

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, pattern * 16)   # sixteen page slices
        return fid

    data = fs._inodes[run(sim, proc())].data
    assert data.resident_pages == 16
    assert len({id(v) for v in data._pages.values()}) == 1
    assert data.resident_bytes == 64 * 1024   # the one object, counted once


def test_blockfs_unlink_reclaims_everything():
    sim, fs = make_blockfs()

    def proc():
        fid = yield from fs.create(fs.root_id, "f")
        yield from fs.write(fid, 0, bytes(range(256)) * 1024)
        yield from fs.remove(fs.root_id, "f")
        return fid

    fid = run(sim, proc())
    assert fid not in fs._inodes
    assert fs.cache.resident_pages == 0
    assert fs.used_bytes == 0
