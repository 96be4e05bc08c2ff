"""Tests for the client-side NFS caching layer (CTO consistency model)."""

import pytest

from repro.experiments import Cluster, ClusterConfig
from repro.nfs.cache import CachingNfsClient, ClientCacheConfig


def make(nclients=1, **cache_kwargs):
    c = Cluster(ClusterConfig(transport="rdma-rw", nclients=nclients))
    caches = [
        CachingNfsClient(m.nfs, c.sim, ClientCacheConfig(**cache_kwargs))
        for m in c.mounts
    ]
    return c, caches


def test_attr_cache_hits_within_timeout():
    c, (cache,) = make(attr_timeout_us=1_000_000.0)

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "f")
        a1 = yield from cache.getattr(fh)   # miss, fills
        a2 = yield from cache.getattr(fh)   # hit
        yield c.sim.timeout(2_000_000.0)
        a3 = yield from cache.getattr(fh)   # expired: miss again
        return a1, a2, a3

    c.run(proc())
    assert cache.attr_hits.events == 1
    assert cache.attr_misses.events == 2


def test_attr_cache_saves_rpcs():
    c, (cache,) = make()

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "f")
        before = cache.inner.ops.events
        for _ in range(10):
            yield from cache.getattr(fh)
        return cache.inner.ops.events - before

    rpcs = c.run(proc())
    assert rpcs == 1  # one fill, nine hits


def test_name_cache():
    c, (cache,) = make()

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "hot-name")
        yield from cache.lookup(cache.root, "hot-name")
        before = cache.inner.ops.events
        for _ in range(5):
            yield from cache.lookup(cache.root, "hot-name")
        return cache.inner.ops.events - before

    assert c.run(proc()) == 0
    assert cache.name_hits.events == 5


def test_cached_read_serves_from_memory():
    c, (cache,) = make()
    blob = bytes(i % 251 for i in range(200_000))

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "data")
        yield from cache.inner.write(fh, 0, blob)
        handle = yield from cache.open(fh)
        first, eof1 = yield from cache.read(handle, 0, len(blob))
        rpcs_before = cache.inner.ops.events
        second, eof2 = yield from cache.read(handle, 0, len(blob))
        return first, second, eof1, eof2, cache.inner.ops.events - rpcs_before

    first, second, eof1, eof2, rpcs = c.run(proc())
    assert first == blob and second == blob
    assert eof1 and eof2
    assert rpcs <= 1  # at most a getattr; no data RPCs on the re-read
    assert cache.read_hits.events > 0


def test_write_back_defers_rpcs_until_flush():
    c, (cache,) = make()

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "wb")
        handle = yield from cache.open(fh)
        before = cache.inner.ops.events
        yield from cache.write(handle, 0, b"x" * 64 * 1024)
        mid = cache.inner.ops.events
        yield from cache.close(handle)
        after = cache.inner.ops.events
        data, _, _ = yield from cache.inner.read(fh, 0, 64 * 1024)
        return before, mid, after, data

    before, mid, after, data = c.run(proc())
    assert mid == before            # writes absorbed by the cache
    assert after > mid              # close flushed + committed
    assert data == b"x" * 64 * 1024


def test_flush_keeps_page_rewritten_during_its_write():
    c, (cache,) = make()
    page = 64 * 1024

    def rewriter(handle):
        yield c.sim.timeout(1.0)
        yield from cache.write(handle, 0, b"2" * page)

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "rw")
        handle = yield from cache.open(fh)
        yield from cache.write(handle, 0, b"1" * page)
        rewrite = c.sim.process(rewriter(handle))
        yield from cache.flush(handle)
        yield rewrite
        still_dirty = cache.pages.dirty_pages(fh.fileid)
        yield from cache.close(handle)
        data, _, _ = yield from cache.inner.read(fh, 0, page)
        return still_dirty, handle.dirty, data

    still_dirty, handle_dirty, data = c.run(proc())
    assert len(still_dirty) == 1        # the rewrite is not marked clean
    assert data == b"2" * page          # close pushed it to the server
    assert not handle_dirty


def test_dirty_limit_forces_synchronous_flush():
    c, (cache,) = make(dirty_limit_bytes=128 * 1024)

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "big")
        handle = yield from cache.open(fh)
        before = cache.inner.ops.events
        yield from cache.write(handle, 0, bytes(256 * 1024))
        return cache.inner.ops.events - before

    rpcs = c.run(proc())
    assert rpcs > 0  # crossed the dirty limit: flushed without close


def test_rewriting_a_dirty_page_counts_it_once():
    """A page rewritten while dirty is one dirty page, not one per write:
    four rewrites stay under a two-page limit, and once flushed a write
    to another page starts from an empty dirty budget."""
    page = 64 * 1024
    c, (cache,) = make(page_bytes=page, dirty_limit_bytes=2 * page)

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "hot")
        handle = yield from cache.open(fh)
        before = cache.inner.ops.events
        for fill in b"1234":
            yield from cache.write(handle, 0, bytes([fill]) * page)
        rewrites = cache.inner.ops.events - before
        yield from cache.flush(handle)
        before = cache.inner.ops.events
        yield from cache.write(handle, page, b"5" * page)
        return rewrites, cache.inner.ops.events - before

    rewrites, next_write = c.run(proc())
    assert rewrites == 0
    assert next_write == 0


def test_close_to_open_consistency_between_clients():
    c, (alice, bob) = make(nclients=2)

    def story():
        fh, _ = yield from alice.inner.create(alice.root, "shared")
        a = yield from alice.open(fh)
        yield from alice.write(a, 0, b"version-1")
        yield from alice.close(a)

        b = yield from bob.open("/shared")
        data, _ = yield from bob.read(b, 0, 9)
        assert data == b"version-1"

        # Alice rewrites while Bob still has it cached...
        a = yield from alice.open(fh)
        yield from alice.write(a, 0, b"version-2")
        yield from alice.close(a)

        # ...Bob's cached copy may legitimately be stale until re-open:
        stale, _ = yield from bob.read(b, 0, 9)
        assert stale == b"version-1"

        # CTO: a fresh open revalidates and sees version 2.
        b2 = yield from bob.open("/shared")
        fresh, _ = yield from bob.read(b2, 0, 9)
        assert fresh == b"version-2"

    c.run(story())


def test_partial_page_write_rmw_correct():
    c, (cache,) = make()

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "rmw")
        yield from cache.inner.write(fh, 0, b"A" * 1000)
        handle = yield from cache.open(fh)
        yield from cache.write(handle, 100, b"B" * 50)
        yield from cache.close(handle)
        data, _, _ = yield from cache.inner.read(fh, 0, 1000)
        return data

    data = c.run(proc())
    assert data == b"A" * 100 + b"B" * 50 + b"A" * 850


def test_data_cache_respects_budget():
    c, (cache,) = make(data_cache_bytes=8 * 16 * 1024)  # 8 pages

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "big")
        yield from cache.inner.write(fh, 0, bytes(512 * 1024))
        handle = yield from cache.open(fh)
        yield from cache.read(handle, 0, 512 * 1024)

    c.run(proc())
    assert cache.pages.resident_bytes <= 8 * 16 * 1024
    # Evicted clean pages also dropped their content copies.
    assert len(cache._content) <= 8


def test_buffered_reread_beats_direct_io():
    """The motivation trade-off: cached re-reads are memory-speed, at the
    price of coherence staleness the paper's workloads can't accept."""
    c, (cache,) = make()
    size = 1 << 20

    def proc():
        fh, _ = yield from cache.inner.create(cache.root, "hot")
        yield from cache.inner.write(fh, 0, bytes(size))
        handle = yield from cache.open(fh)
        yield from cache.read(handle, 0, size)   # warm it
        t0 = c.sim.now
        yield from cache.read(handle, 0, size)
        cached_time = c.sim.now - t0
        t0 = c.sim.now
        yield from cache.inner.read(fh, 0, size)  # direct: full RPC
        direct_time = c.sim.now - t0
        return cached_time, direct_time

    cached_time, direct_time = c.run(proc())
    assert cached_time < direct_time / 50  # orders of magnitude apart
