"""Fixture tests for the static contract analyzer (repro.check.static).

Every rule pack gets a good/bad source pair driven through
``analyze_source`` — the bad fixture must produce exactly the expected
rule, the good twin must be silent — plus the self-check that the repo's
own tree analyzes clean (the bring-up contract: every finding was either
fixed or suppressed with a justification) and a CLI smoke.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.check.static import analyze, analyze_source, rule_names


def rules_of(report):
    return {f.rule for f in report.findings}


def run(source: str, **kwargs):
    return analyze_source(textwrap.dedent(source), **kwargs)


# ---------------------------------------------------------------- purity
def test_purity_bad_wallclock():
    report = run("""
        import time

        def stamp(sim):
            return time.time()
    """)
    assert "wallclock" in rules_of(report)
    assert report.render_text().startswith("<fixture>:5: [wallclock] ")


def test_purity_good_sim_clock():
    report = run("""
        def stamp(sim):
            return sim.now
    """)
    assert report.ok


# ---------------------------------------------------------------- zerocost
def test_zerocost_bad_unguarded_touchpoint():
    report = run("""
        class Transport:
            def send(self, n):
                self.sim.telemetry.tracer.begin("send", "t", "c", "l")
    """)
    assert rules_of(report) == {"zero-cost-off"}


def test_zerocost_good_guarded_touchpoint():
    report = run("""
        class Transport:
            def send(self, n):
                telemetry = self.sim.telemetry
                if telemetry is not None and telemetry.tracer is not None:
                    telemetry.tracer.begin("send", "t", "c", "l")
    """)
    assert report.ok


def test_zerocost_good_early_return_guard():
    report = run("""
        class Transport:
            def span(self):
                telemetry = self.sim.telemetry
                if telemetry is None or telemetry.tracer is None:
                    return None
                tracer = telemetry.tracer
                return tracer.begin("op", "t", "c", "l")
    """)
    assert report.ok


def test_zerocost_guard_does_not_leak_past_branch():
    report = run("""
        class Transport:
            def send(self):
                if self.sim.telemetry is not None:
                    pass
                self.sim.telemetry.tracer
    """)
    assert rules_of(report) == {"zero-cost-off"}


def test_zerocost_only_in_hot_modules():
    report = run(
        """
        class Host:
            def report(self):
                return self.sim.telemetry.tracer
        """,
        name="repro.experiments.fixture",
    )
    assert report.ok


# ---------------------------------------------------------------- interproc
def test_interproc_bad_laundered_wallclock():
    report = run("""
        import time

        def bench_stamp():
            return time.time()  # lint-sim: allow[wallclock]

        def transfer(sim):
            return bench_stamp()
    """)
    assert "purity-escape" in rules_of(report)
    assert "wallclock" not in rules_of(report)  # suppressed at its site


def test_interproc_reports_call_chain():
    report = run("""
        import time

        def inner():
            return time.time()  # lint-sim: allow[wallclock]

        def middle():
            return inner()  # lint-sim: allow[purity-escape]

        def transfer(sim):
            return middle()
    """)
    escape = [f for f in report.findings if f.rule == "purity-escape"]
    assert len(escape) == 1
    assert "middle" in escape[0].message and "inner" in escape[0].message


def test_interproc_good_pure_helper():
    report = run("""
        def pad(n):
            return (n + 3) & ~3

        def transfer(sim):
            return pad(10)
    """)
    assert report.ok


# ---------------------------------------------------------------- procgen
def test_procgen_bad_non_event_yield():
    report = run("""
        def worker(sim):
            yield 5

        def main(sim):
            sim.process(worker(sim))
    """)
    assert rules_of(report) == {"process-yield"}


def test_procgen_yield_from_closure():
    report = run("""
        def helper(sim):
            yield "not an event"

        def worker(sim):
            yield from helper(sim)

        def main(sim):
            sim.process(worker(sim))
    """)
    assert rules_of(report) == {"process-yield"}


def test_procgen_good_event_yields():
    report = run("""
        def worker(sim, ev):
            yield sim.timeout(5)
            yield ev

        def main(sim, ev):
            sim.process(worker(sim, ev))
    """)
    assert report.ok


def test_procgen_plain_iterators_stay_free():
    report = run("""
        def numbers():
            yield 1
            yield 2

        def main(sim):
            return list(numbers())
    """)
    assert report.ok


def test_procgen_bad_generator_callback():
    report = run("""
        def on_done(ev):
            yield ev

        def main(ev):
            ev.callbacks.append(on_done)
    """)
    assert rules_of(report) == {"callback-yield"}


def test_procgen_good_plain_callback():
    report = run("""
        def on_done(ev):
            print(ev)

        def main(ev):
            ev.callbacks.append(on_done)
    """)
    assert report.ok


def test_procgen_bad_double_trigger():
    report = run("""
        def finish(ev):
            ev.succeed(1)
            ev.succeed(2)
    """)
    assert rules_of(report) == {"double-trigger"}


def test_procgen_bad_loop_invariant_trigger():
    report = run("""
        def finish(ev, items):
            for item in items:
                ev.succeed(item)
    """)
    assert rules_of(report) == {"double-trigger"}


def test_procgen_good_guarded_and_fresh_triggers():
    report = run("""
        def finish(events, done):
            for ev in events:
                ev.succeed()
            for item in (1, 2):
                if not done.triggered:
                    done.succeed(item)
    """)
    assert report.ok


# ---------------------------------------------------------------- wire
WIRE_BAD = """
    class Header:
        def encode(self, enc):
            enc.u32(self.xid)
            enc.u64(self.offset)

        @classmethod
        def decode(cls, dec):
            xid = dec.u32()
            offset = dec.u32()
            return cls(xid, offset)
"""

WIRE_GOOD = """
    class Header:
        def encode(self, enc):
            enc.u32(self.xid)
            enc.u64(self.offset)
            if self.version >= 2:
                enc.u32(self.lane)

        @classmethod
        def decode(cls, dec):
            xid = dec.u32()
            offset = dec.u64()
            lane = 0
            if dec.peek_version() >= 2:
                lane = dec.u32()
            return cls(xid, offset, lane)
"""


def test_wire_bad_mismatched_field():
    report = run(WIRE_BAD, name="repro.core.header")
    assert rules_of(report) == {"wire-symmetry"}
    (finding,) = report.findings
    assert "u64" in finding.message and "u32" in finding.message


def test_wire_good_symmetric_with_optional_group():
    report = run(WIRE_GOOD, name="repro.core.header")
    assert report.ok


def test_wire_scoped_to_wire_modules():
    # The same asymmetric codec outside the wire modules is not checked.
    report = run(WIRE_BAD, name="repro.experiments.fixture")
    assert report.ok


def test_wire_missing_trailing_read():
    report = run(
        """
        class Msg:
            def encode(self, enc):
                enc.u32(1).opaque(self.body)

            @classmethod
            def decode(cls, dec):
                return cls(dec.u32())
        """,
        name="repro.rpc.msg",
    )
    (finding,) = report.findings
    assert finding.rule == "wire-symmetry"
    assert "never read" in finding.message


WIRE_FUSED_GOOD = """
    import struct

    _SEG = struct.Struct(">IIQ")

    class Seg:
        def encode(self, enc):
            enc.pack(_SEG, self.stag, self.length, self.addr)
            enc.u32(self.flags)

        @classmethod
        def decode(cls, dec):
            stag, length, addr = dec.unpack(_SEG)
            return cls(stag, addr, length, dec.u32())
"""


def test_wire_good_fused_layout():
    report = run(WIRE_FUSED_GOOD, name="repro.core.chunks")
    assert report.ok


def test_wire_bad_fused_layout_mismatch():
    source = WIRE_FUSED_GOOD.replace(
        '_SEG = struct.Struct(">IIQ")',
        '_SEG = struct.Struct(">IIQ")\n    _ALT = struct.Struct(">IQI")',
    ).replace("dec.unpack(_SEG)", "dec.unpack(_ALT)")
    report = run(source, name="repro.core.chunks")
    (finding,) = report.findings
    assert finding.rule == "wire-symmetry"
    assert "pack:_SEG" in finding.message and "unpack:_ALT" in finding.message


def test_wire_bad_fused_arity():
    source = WIRE_FUSED_GOOD.replace(
        "enc.pack(_SEG, self.stag, self.length, self.addr)",
        "enc.pack(_SEG, self.stag, self.length)",
    ).replace("stag, length, addr = dec.unpack(_SEG)",
              "stag, length, addr, extra = dec.unpack(_SEG)")
    report = run(source, name="repro.core.chunks")
    assert rules_of(report) == {"wire-symmetry"}
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert "passes 2 value(s), _SEG has 3 field(s)" in messages[0]
    assert "binds 4 name(s), _SEG has 3 field(s)" in messages[1]


def test_wire_bad_fused_layout_not_xdr():
    source = WIRE_FUSED_GOOD.replace('">IIQ"', '"<IHQ"')
    report = run(source, name="repro.core.chunks")
    assert rules_of(report) == {"wire-symmetry"}
    assert all("not an XDR layout" in f.message for f in report.findings)


# ---------------------------------------------------------------- boundary
def test_boundary_bad_broad_except():
    report = run("""
        def deliver(msg):
            try:
                msg.send()
            except Exception:
                return None
    """)
    assert rules_of(report) == {"exception-boundary"}


def test_boundary_bad_repro_error():
    report = run("""
        from repro.errors import ReproError

        def deliver(msg):
            try:
                msg.send()
            except (ValueError, ReproError):
                return None
    """)
    assert rules_of(report) == {"exception-boundary"}


def test_boundary_good_reraise_and_narrow():
    report = run("""
        from repro.errors import ProtectionError

        def deliver(msg):
            try:
                msg.send()
            except ProtectionError:
                return None
            except Exception:
                msg.log()
                raise
    """)
    assert report.ok


def test_boundary_scoped_to_transport_modules():
    report = run(
        """
        def host_side(fn):
            try:
                fn()
            except Exception:
                return None
        """,
        name="repro.experiments.fixture",
    )
    assert report.ok


# ------------------------------------------------------- suppressions/audit
def test_suppression_silences_finding():
    report = run("""
        import time

        def stamp(sim):
            return time.time()  # lint-sim: allow[wallclock]
    """)
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["wallclock"]


def test_unused_suppression_is_a_finding():
    report = run("""
        def stamp(sim):
            return sim.now  # lint-sim: allow[wallclock]
    """)
    assert rules_of(report) == {"unused-suppression"}


def test_docstring_mention_is_not_a_suppression():
    report = run('''
        def stamp(sim):
            """Suppress with ``# lint-sim: allow[wallclock]`` if needed."""
            return sim.now
    ''')
    assert report.ok


# ---------------------------------------------------------------- selection
def test_rule_selection_restricts_packs():
    report = run(
        """
        import time

        def stamp(sim):
            return time.time()
        """,
        rules=["zero-cost-off"],
    )
    assert report.ok  # wallclock not selected
    assert report.rules_run == ("zero-cost-off",)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        analyze_source("x = 1", rules=["bogus"])


def test_rule_names_cover_all_packs():
    names = rule_names()
    for expected in ("wallclock", "zero-cost-off", "purity-escape",
                     "process-yield", "callback-yield", "double-trigger",
                     "wire-symmetry", "exception-boundary",
                     "unused-suppression"):
        assert expected in names


# ---------------------------------------------------------------- self-check
def test_repo_tree_analyzes_clean():
    """The bring-up contract: the shipped tree has zero findings."""
    report = analyze()
    assert report.findings == []
    assert report.modules_scanned > 100


# ---------------------------------------------------------------- CLI
def test_cli_static_text(capsys):
    from repro.__main__ import main

    assert main(["check", "--static"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_static_json_with_rule(capsys):
    from repro.__main__ import main

    assert main(["check", "--static", "--rule", "wire",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["rules_run"] == ["wire-symmetry"]


def test_cli_rule_requires_static(capsys):
    from repro.__main__ import main

    assert main(["check", "--rule", "wire"]) == 2
