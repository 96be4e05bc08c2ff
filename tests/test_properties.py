"""Property-based tests (hypothesis) for core invariants.

DESIGN.md §5 invariants: segment algebra, page-cache capacity, LRU
equivalence to a reference model, data integrity across random NFS
operation sequences, and chunk-pairing conservation.
"""

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.base import TransportError, pair_transfers, slice_segments
from repro.fs import PageCache, TmpFs
from repro.ib.verbs import Segment
from repro.osmodel import CPU, CPUConfig
from repro.sim import Simulator


# ---------------------------------------------------------------- segments
def seg_lists(max_segs=6, max_len=1 << 16):
    return st.lists(
        st.integers(1, max_len), min_size=1, max_size=max_segs
    ).map(lambda lens: _to_segments(lens))


def _to_segments(lengths):
    addr = 0x1000
    out = []
    for i, length in enumerate(lengths):
        out.append(Segment(0x100 + i, addr, length))
        addr += length + 0x10000
    return out


@given(seg_lists(), st.data())
def test_slice_segments_preserves_length_and_order(segments, data):
    total = sum(s.length for s in segments)
    offset = data.draw(st.integers(0, total))
    length = data.draw(st.integers(0, total - offset))
    sliced = slice_segments(segments, offset, length)
    assert sum(s.length for s in sliced) == length
    # Slices come from the original segments, in order, within bounds.
    src_iter = iter(segments)
    for piece in sliced:
        for src in src_iter:
            if src.stag == piece.stag:
                assert src.addr <= piece.addr
                assert piece.addr + piece.length <= src.addr + src.length
                break
        else:
            raise AssertionError("slice referenced an unknown segment")


@given(seg_lists())
def test_slice_segments_overrun_rejected(segments):
    total = sum(s.length for s in segments)
    with pytest.raises(TransportError):
        slice_segments(segments, 0, total + 1)


@given(seg_lists(), seg_lists(), st.data())
def test_pair_transfers_conserves_bytes(src, dst, data):
    length = data.draw(st.integers(0, min(sum(s.length for s in src),
                                          sum(d.length for d in dst))))
    ops = pair_transfers(src, dst, length)
    # Destination coverage equals the source coverage equals length.
    assert sum(op_dst.length for _, op_dst in ops) == length
    assert sum(sum(s.length for s in op_src) for op_src, _ in ops) == length
    # Each op writes exactly one destination segment window.
    for op_src, op_dst in ops:
        assert sum(s.length for s in op_src) == op_dst.length


@given(seg_lists(max_segs=3))
def test_pair_transfers_dst_too_small_rejected(dst):
    capacity = sum(d.length for d in dst)
    src = [Segment(1, 0, capacity + 1)]
    with pytest.raises(TransportError):
        pair_transfers(src, dst, capacity + 1)


# ---------------------------------------------------------------- page cache
class ReferenceLru:
    """Dict-based oracle for the page cache."""

    def __init__(self, max_pages):
        self.max_pages = max_pages
        self.entries = OrderedDict()

    def touch(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
            return True
        return False

    def insert(self, key, dirty):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.entries[key] = self.entries[key] or dirty
            return []
        evicted = []
        while len(self.entries) >= self.max_pages:
            evicted.append(self.entries.popitem(last=False))
        self.entries[key] = dirty
        return evicted


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.tuples(st.sampled_from(["touch", "insert", "insert_dirty", "clean"]),
              st.integers(0, 3), st.integers(0, 15)),
    max_size=200,
))
def test_pagecache_matches_reference_lru(ops):
    page = 64 * 1024
    cache = PageCache(capacity_bytes=6 * page, page_bytes=page)
    oracle = ReferenceLru(max_pages=6)
    for op, fid, pg in ops:
        key = (fid, pg)
        if op == "touch":
            assert cache.touch(key) == oracle.touch(key)
        elif op == "clean":
            cache.mark_clean(key)
            if key in oracle.entries:
                oracle.entries[key] = False
        else:
            dirty = op == "insert_dirty"
            got = cache.insert(key, dirty=dirty)
            want = oracle.insert(key, dirty)
            assert got == want
        assert cache.resident_pages == len(oracle.entries)
        assert cache.resident_bytes <= cache.capacity_bytes
        assert set(cache.dirty_pages()) == {
            k for k, d in oracle.entries.items() if d
        }


@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.tuples(st.sampled_from(["touch", "insert", "insert_dirty", "clean",
                               "clean_stale", "invalidate", "scan"]),
              st.integers(0, 3), st.integers(0, 15),
              st.one_of(st.none(), st.integers(0, 8))),
    max_size=200,
))
def test_pagecache_dirty_index_matches_full_scan(ops):
    """The ordered dirty index answers as the old scan over every page
    did; a write-back's stale generation leaves a rewritten page dirty."""
    page = 64 * 1024
    cache = PageCache(capacity_bytes=6 * page, page_bytes=page)
    oracle = ReferenceLru(max_pages=6)

    def scan(fileid, limit):
        keys = [k for k, d in oracle.entries.items()
                if d and (fileid is None or k[0] == fileid)]
        return keys if limit is None else keys[:limit]

    for op, fid, pg, limit in ops:
        key = (fid, pg)
        if op == "touch":
            assert cache.touch(key) == oracle.touch(key)
        elif op == "clean":
            cache.mark_clean(key, cache.generation(key))
            if key in oracle.entries:
                oracle.entries[key] = False
        elif op == "clean_stale":
            # Rewritten while its write-back was in flight: stays dirty.
            generation = cache.generation(key)
            assert cache.insert(key, dirty=True) == oracle.insert(key, True)
            cache.mark_clean(key, generation)
        elif op == "invalidate":
            dropped = [k for k in oracle.entries if k[0] == fid]
            for k in dropped:
                del oracle.entries[k]
            assert cache.invalidate(fid) == len(dropped)
        elif op == "scan":
            assert cache.dirty_pages(fid, limit) == scan(fid, limit)
        else:
            dirty = op == "insert_dirty"
            assert cache.insert(key, dirty=dirty) == oracle.insert(key, dirty)
        assert cache.dirty_pages(limit=limit) == scan(None, limit)
        assert (cache.generation(key) != 0) == oracle.entries.get(key, False)


# ---------------------------------------------------------------- file system
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "truncate"]),
        st.integers(0, 3),               # file index
        st.integers(0, 200_000),         # offset
        st.integers(0, 64 * 1024),       # length
        st.integers(0, 255),             # fill byte
    ),
    max_size=30,
))
def test_tmpfs_matches_bytearray_model(ops):
    sim = Simulator()
    fs = TmpFs(sim, CPU(sim, CPUConfig(cores=2)))
    model: dict[int, bytearray] = {}
    fids: dict[int, int] = {}

    def driver():
        for op, fidx, offset, length, fill in ops:
            if fidx not in fids:
                fids[fidx] = yield from fs.create(fs.root_id, f"f{fidx}")
                model[fidx] = bytearray()
            fid = fids[fidx]
            ref = model[fidx]
            if op == "write":
                data = bytes([fill]) * length
                yield from fs.write(fid, offset, data)
                if offset + length > len(ref):
                    ref.extend(b"\x00" * (offset + length - len(ref)))
                ref[offset : offset + length] = data
            elif op == "read":
                data, eof = yield from fs.read(fid, offset, length)
                expect = bytes(ref[offset : offset + length])
                assert data == expect
                assert eof == (offset + length >= len(ref))
            else:  # truncate
                size = min(offset, 300_000)
                yield from fs.setattr(fid, size=size)
                if size < len(ref):
                    del ref[size:]
                else:
                    ref.extend(b"\x00" * (size - len(ref)))
            attrs = yield from fs.getattr(fid)
            assert attrs.size == len(ref)

    sim.run_until_complete(sim.process(driver()))


# ---------------------------------------------------------------- transport
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    st.sampled_from(["rdma-rw", "rdma-rr"]),
    st.lists(st.integers(1, 300_000), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_transport_roundtrip_random_sizes(design, sizes, rnd):
    """Any sequence of write/read sizes round-trips bytes exactly."""
    from repro.experiments import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(transport=design))
    nfs = cluster.mounts[0].nfs

    def driver():
        fh, _ = yield from nfs.create(nfs.root, "prop")
        offset = 0
        spans = []
        for size in sizes:
            payload = bytes(rnd.getrandbits(8) for _ in range(min(size, 4096)))
            payload = (payload * (size // len(payload) + 1))[:size] if payload else b""
            yield from nfs.write(fh, offset, payload)
            spans.append((offset, payload))
            offset += size
        for off, payload in spans:
            data, _, _ = yield from nfs.read(fh, off, len(payload))
            assert data == payload

    cluster.run(driver())
