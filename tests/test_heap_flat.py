"""Heap-flat leak check: a deployment's steady state is refcount-only.

A small Read-Write, Read-Read and NFS/TCP point each run three rounds
of the same load on one long-lived deployment, in a fresh subprocess
per simulation core (so ``REPRO_SIM_CORE`` selects the core for real;
set in this test's own environment, it narrows the run to that core).
With the cycle collector disabled and ``gc.DEBUG_SAVEALL`` set:

* a round leaves no cyclic garbage: everything it allocated and
  dropped was freed by reference counting alone (a missing break in a
  process <-> callback cycle shows up here);
* no tracked type grows from round 2 to round 3 (round 1 warms pools
  and lazy structures), once the duplicate request cache's entries are
  left out: the DRC is bounded at 1024 entries and fills as rounds
  go by, so a missing DECREF or a per-op leak shows up here.
"""

import pytest

from tests._cores import CORES, run_json

POINT_SNIPPET = """
import gc, json
from collections import Counter
from repro.api import ClusterConfig, connect
from repro.sim.engine import ACTIVE_CORE, AllOf

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
RECORD, RECORDS, ROUNDS = 8192, 16, 3
PAYLOAD = bytes(range(256)) * (RECORD // 256)


# tracked objects by type, less the DRC's entries and the `earlier` count
def tracked_types(drcs, earlier=None):
    counts = Counter(type(o).__qualname__ for o in gc.get_objects()
                     if o is not earlier)
    for drc in drcs:
        counts.subtract(type(v).__qualname__ for v in drc._entries.values()
                        if gc.is_tracked(v))
    return counts


def point(config):
    dep = connect(config)
    sim = dep.sim
    drcs = [s.drc for s in dep.cluster.server_stacks if s.drc is not None]
    files = [(m.nfs, m.create(m.root, f"flat{{i}}")[0])
             for i, m in enumerate(dep.mounts)]

    def thread(nfs, fh):
        for i in range(RECORDS):
            yield from nfs.write(fh, i * RECORD, PAYLOAD)
        for i in range(RECORDS):
            data, _, _ = yield from nfs.read(fh, i * RECORD, RECORD)
            assert data == PAYLOAD

    def round_():
        yield AllOf(sim, [sim.process(thread(nfs, fh)) for nfs, fh in files])

    garbage, before = [], None
    for i in range(ROUNDS):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        dep.run(round_())
        gc.collect()
        # a str, so the record itself adds no tracked object
        garbage.append(str(Counter(type(o).__qualname__
                                   for o in gc.garbage).most_common(5)))
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if i == ROUNDS - 2:
            before = tracked_types(drcs)
    growth = dict(tracked_types(drcs, before) - before)
    return {{"garbage": garbage, "growth": growth,
             "drc": [[len(d), d.max_entries] for d in drcs]}}


gc.disable()
print(json.dumps({{
    "rdma-rw": point(ClusterConfig.rdma_rw(nclients=2)),
    "rdma-rr": point(ClusterConfig.rdma_rr(nclients=2)),
    "tcp": point(ClusterConfig.tcp(nclients=2)),
}}))
"""


@pytest.mark.parametrize("core", CORES)
def test_rounds_leave_no_cycles_and_no_growth(core):
    report = run_json(core, POINT_SNIPPET.format(core=core))
    assert set(report) == {"rdma-rw", "rdma-rr", "tcp"}
    for point, got in report.items():
        for i, garbage in enumerate(got["garbage"], 1):
            assert garbage == "[]", f"{point} round {i} left cyclic garbage"
        assert got["growth"] == {}, f"{point}: tracked objects grew"
        assert got["drc"], f"{point}: no DRC to leave out"
        for entries, bound in got["drc"]:
            assert 0 < entries <= bound
