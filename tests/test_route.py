"""``Route``, the wire from one port to another, under both sim cores.

A route prices a port pair once: the slower port's bandwidth, the
sender's chunk size and per-message overhead, propagation and the ack
hop.  The delays below are literals recorded from the wire formula as
it stood before routes existed, on GigE, IPoIB and an IB port each
paired with a slower, farther port of higher overhead, in both
directions; the same goes for the carry schedule and the bytes counted
on both ports.  A fault hook installed after the route was built must
still delay ``carry`` by its spike.  Each case runs in a fresh
subprocess per core (``tests/_cores.py``).
"""

import pytest

from tests._cores import CORES, run_json

SNIPPET = """
import json
from dataclasses import replace
from repro.ib.link import DuplexLink, LinkConfig, LinkFaultHook, Route
from repro.sim import Simulator
from repro.sim.engine import ACTIVE_CORE
from repro.tcpip import GIGE_PROFILE, IPOIB_PROFILE

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
IB = LinkConfig(bandwidth_mb_s=1000.0, latency_us=1.2,
                per_message_overhead_bytes=64, chunk_bytes=32 * 1024)
cfg = {{"gige": GIGE_PROFILE.link, "ipoib": IPOIB_PROFILE.link, "ib": IB}}[{link!r}]
far = replace(cfg, bandwidth_mb_s=cfg.bandwidth_mb_s * 0.6,
              latency_us=cfg.latency_us + 0.25,
              per_message_overhead_bytes=cfg.per_message_overhead_bytes + 100)
sim = Simulator()
a = DuplexLink(sim, cfg, name="a")
b = DuplexLink(sim, far, name="b")
routes = {{"ab": Route(a, b), "ba": Route(b, a)}}


def sizes(route):
    edge = route.chunk_bytes - route.overhead_bytes
    return [0, 1, edge, edge + 1, 1 << 20]


out = {{}}
for tag, route in routes.items():
    out[tag] = {{"sizes": sizes(route),
                "delays": [route.delays(n) for n in sizes(route)],
                "propagation_us": route.propagation_us,
                "ack_us": route.ack_us}}
ends = {{}}


def sender(tag, route):
    for n in sizes(route):
        yield from route.carry(n)
    ends[tag] = sim.now


for tag, route in routes.items():
    sim.process(sender(tag, route))
sim.run()
out["ends"] = [ends["ab"], ends["ba"], sim.steps]
out["bytes"] = [a.tx.bytes_carried.value, a.rx.bytes_carried.value,
                b.tx.bytes_carried.value, b.rx.bytes_carried.value]


class Spike(LinkFaultHook):
    def transfer_delay_us(self, link, nbytes):
        return 7.5 if link is a else 0.0


# The hook goes in after the routes were built, as a fault injector's does.
start = sim.now
a.fault_hook = Spike()
spiked = {{}}


def timed(tag, route):
    yield from route.carry(1)
    spiked[tag] = sim.now - start


for tag, route in routes.items():
    sim.process(timed(tag, route))
sim.run()
out["spiked"] = [spiked["ab"], spiked["ba"]]
print(json.dumps(out))
"""

#: per link: {direction: (sizes, delays, propagation_us, ack_us)},
#: the carry schedule's (a→b end, b→a end, sim.steps) and the bytes
#: counted on (a.tx, a.rx, b.tx, b.rx).
EXPECTED = {
    "gige": {
        "ab": ([0, 1, 30268, 30269, 1 << 20],
               [33.333333333333336, 33.346666666666664, 436.9066666666667,
                [436.9066666666667, 0.013333333333333334],
                [436.9066666666667] * 32 + [33.333333333333336]],
               60.25, 30.25),
        "ba": ([0, 1, 30168, 30169, 1 << 20],
               [34.666666666666664, 34.68, 436.9066666666667,
                [436.9066666666667, 0.013333333333333334],
                [436.9066666666667] * 32 + [34.666666666666664]],
               60.25, 30.0),
        "ends": [14954.853333333322, 14958.853333333322, 232],
        "bytes": [1109114.0, 1108914.0, 1108914.0, 1109114.0],
    },
    "ipoib": {
        "ab": ([0, 1, 32256, 32257, 1 << 20],
               [0.8982456140350877, 0.9, 57.487719298245615,
                [57.487719298245615, 0.0017543859649122807],
                [57.487719298245615] * 32 + [0.8982456140350877]],
               30.25, 15.25),
        "ba": ([0, 1, 32156, 32157, 1 << 20],
               [1.0736842105263158, 1.075438596491228, 57.487719298245615,
                [57.487719298245615, 0.0017543859649122807],
                [57.487719298245615] * 32 + [1.0736842105263158]],
               30.25, 15.0),
        "ends": [1957.2807017543846, 1957.8070175438586, 232],
        "bytes": [1113090.0, 1112890.0, 1112890.0, 1113090.0],
    },
    "ib": {
        "ab": ([0, 1, 32704, 32705, 1 << 20],
               [0.10666666666666667, 0.10833333333333334, 54.61333333333334,
                [54.61333333333334, 0.0016666666666666668],
                [54.61333333333334] * 32 + [0.10666666666666667]],
               2.65, 1.45),
        "ba": ([0, 1, 32604, 32605, 1 << 20],
               [0.2733333333333333, 0.275, 54.61333333333334,
                [54.61333333333334, 0.0016666666666666668],
                [54.61333333333334] * 32 + [0.2733333333333333]],
               2.65, 1.2),
        "ends": [1857.1766666666651, 1857.6766666666651, 232],
        "bytes": [1113986.0, 1113786.0, 1113786.0, 1113986.0],
    },
}


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("link", sorted(EXPECTED))
def test_route_prices_and_counts_bit_identical(core, link):
    got = run_json(core, SNIPPET.format(core=core, link=link))
    want = EXPECTED[link]
    for tag in ("ab", "ba"):
        sizes, delays, propagation_us, ack_us = want[tag]
        assert got[tag]["sizes"] == sizes
        assert got[tag]["delays"] == delays
        assert got[tag]["propagation_us"] == propagation_us
        assert got[tag]["ack_us"] == ack_us
    assert got["ends"] == want["ends"]
    assert got["bytes"] == want["bytes"]
    # Only the spiked port's route waits out the spike.
    assert got["spiked"] == pytest.approx([7.5 + want["ab"][1][1], want["ba"][1][1]],
                                          abs=1e-9)
