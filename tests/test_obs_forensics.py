"""Tests for repro.obs.forensics: per-transaction causal explanations.

The acceptance gate is attribution: for a seeded identifier collision,
``repro obs why`` must name the correct partner transaction and the
window (or interval) where the identifiers clashed.
"""

import pytest

from repro.flow.shard import simulate_traced
from repro.flow.streams import massive_scenario
from repro.obs.envelope import TraceWriter, read_trace
from repro.obs.forensics import (
    ForensicsError,
    TraceForensics,
    parse_txn_id,
    why,
)
from repro.obs.record import record_montecarlo


def test_parse_txn_id():
    assert parse_txn_id("3:14") == (3, 14)
    with pytest.raises(ForensicsError):
        parse_txn_id("3")
    with pytest.raises(ForensicsError):
        parse_txn_id("a:b")


# ----------------------------------------------------------------------
# Pinned synthetic flow trace: the attribution is exactly known
# ----------------------------------------------------------------------
def _write_flow_trace(path):
    """Window 2 holds three txns; 2:0 and 2:2 share identifier 9."""
    with TraceWriter(path, meta={"scenario": "flow"}) as writer:
        writer.emit(20.0, "flow.window", window=2, fidelity="frame",
                    arrival_rate=0.3, density=6.0)
        writer.emit(20.5, "flow.txn", window=2, identifier=9, collided=True)
        writer.emit(21.0, "flow.txn", window=2, identifier=5, collided=False)
        writer.emit(21.5, "flow.txn", window=2, identifier=9, collided=True)
        writer.emit(30.0, "flow.outcome", window=2, transactions=3,
                    collisions=2)
        writer.emit(30.0, "flow.window", window=3, fidelity="flow",
                    arrival_rate=0.1, density=1.0)


class TestFlowAttribution:
    def test_partner_and_window_are_named(self, tmp_path):
        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        forensics = TraceForensics.from_trace(path)

        lost = forensics.lost()
        assert lost == ["2:0", "2:2"]
        first = forensics.lifecycle("2:0")
        assert first.identifier == 9
        assert first.partners == ["2:2"]
        assert forensics.lifecycle("2:2").partners == ["2:0"]
        # The bystander that delivered with a different identifier has
        # no partners and is not blamed.
        assert forensics.lifecycle("2:1").partners == []

        text = forensics.explain("2:0")
        assert "outcome: LOST" in text
        assert "identifier 0x9 (9)" in text
        assert "in window 2" in text
        assert "transaction 2:2" in text
        assert "2:1" not in text  # bystanders never appear in the chain

    def test_flow_fidelity_window_is_explained(self, tmp_path):
        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        forensics = TraceForensics.from_trace(path)
        with pytest.raises(ForensicsError, match="flow fidelity"):
            forensics.lifecycle("3:0")

    def test_unknown_txn_is_an_error(self, tmp_path):
        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        with pytest.raises(ForensicsError, match="no transaction"):
            why(path, "9:9")


# ----------------------------------------------------------------------
# Seeded end-to-end flow run: attribution agrees with the trace
# ----------------------------------------------------------------------
def test_seeded_flow_collision_attribution(tmp_path):
    scenario = massive_scenario(
        n_nodes=200, id_bits=5, horizon=40.0, window=10.0,
        packets_per_node=0.4,
    )
    trace = tmp_path / "run.jsonl"
    result = simulate_traced(scenario, 11, trace, fidelity="frame")
    assert result.collisions > 0

    forensics = TraceForensics.from_trace(trace)
    lost = forensics.lost()
    assert len(lost) == result.collisions

    # Index the raw records independently of the reconstruction.
    txns = [r for r in read_trace(trace) if r.category == "flow.txn"]
    ordinals = {}
    raw = {}
    for record in txns:
        window = record["window"]
        ordinal = ordinals.get(window, 0)
        ordinals[window] = ordinal + 1
        raw[f"{window}:{ordinal}"] = record

    for txn_id in lost[:25]:
        txn = forensics.lifecycle(txn_id)
        assert raw[txn_id]["collided"] is True
        assert txn.partners, f"{txn_id} lost without a partner"
        for partner_id in txn.partners:
            partner = raw[partner_id]
            # Correct partner: same window, same ephemeral identifier,
            # itself flagged by the frame replay.
            assert partner["window"] == txn.major
            assert partner["identifier"] == txn.identifier
            assert partner["collided"] is True


# ----------------------------------------------------------------------
# Monte Carlo traces: interval-overlap attribution
# ----------------------------------------------------------------------
def test_montecarlo_attribution(tmp_path):
    trace = tmp_path / "mc.jsonl"
    record_montecarlo(trace, id_bits=4, rate=4.0, horizon=40.0, seed=1)
    forensics = TraceForensics.from_trace(trace)
    lost = forensics.lost()
    assert lost

    begins = {}
    for record in read_trace(trace):
        if record.category == "txn.begin":
            begins[(record["segment"], record["owner"])] = record
    for txn_id in lost[:10]:
        txn = forensics.lifecycle(txn_id)
        assert txn.partners, f"{txn_id} lost without a partner"
        for partner_id in txn.partners:
            partner = forensics.lifecycle(partner_id)
            assert partner.identifier == txn.identifier
            # Intervals overlap (half-open).
            assert partner.begin < (txn.end or float("inf"))
            assert txn.begin < (partner.end or float("inf"))
        assert begins[(txn.major, txn.minor)]["id"] == txn.identifier

    text = forensics.explain(lost[0])
    assert "outcome: LOST" in text
    assert "overlapping interval" in text


def test_end_at_begin_does_not_contend(tmp_path):
    path = tmp_path / "mc.jsonl"
    with TraceWriter(path, meta={"scenario": "montecarlo"}) as writer:
        writer.emit(0.0, "txn.begin", segment=0, owner=0, id=7)
        writer.emit(1.0, "txn.end", segment=0, owner=0)
        writer.emit(1.0, "txn.begin", segment=0, owner=1, id=7)
        writer.emit(2.0, "txn.end", segment=0, owner=1)
    forensics = TraceForensics.from_trace(path)
    assert forensics.lifecycle("0:0").partners == []
    assert forensics.lifecycle("0:1").partners == []


# ----------------------------------------------------------------------
# Frame traces: delivery delay
# ----------------------------------------------------------------------
def test_collision_trace_delay(tmp_path):
    path = tmp_path / "col.jsonl"
    with TraceWriter(path, meta={"scenario": "collision"}) as writer:
        writer.emit(1.0, "frame.tx", origin=4, seq=0, bits=40)
        writer.emit(1.25, "frame.rx", origin=4, seq=0, receiver=0, bits=40)
        writer.emit(2.0, "frame.tx", origin=5, seq=0, bits=40)
        writer.emit(2.5, "frame.drop", origin=5, seq=0, receiver=0,
                    reason="channel")
    forensics = TraceForensics.from_trace(path)
    delivered = forensics.lifecycle("4:0")
    assert delivered.fate == "delivered"
    assert "delay 0.250000s" in forensics.explain("4:0")
    dropped = forensics.lifecycle("5:0")
    assert dropped.fate == "lost"
    assert "channel" in forensics.explain("5:0")


def test_unsupported_scenario_rejected(tmp_path):
    path = tmp_path / "other.jsonl"
    with TraceWriter(path, meta={"scenario": "mystery"}) as writer:
        writer.emit(0.0, "x.y", a=1)
    with pytest.raises(ForensicsError, match="mystery"):
        TraceForensics.from_trace(path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestWhyCli:
    def test_explains_and_lists(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        assert main(["obs", "why", "2:0", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "transaction 2:2" in out
        assert main(["obs", "why", "--trace", str(path), "--lost"]) == 0
        assert "2:2" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        assert main(["obs", "why", "2:2", "--trace", str(path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partners"] == ["2:0"]
        assert payload["fate"] == "lost"

    def test_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "flow.jsonl"
        _write_flow_trace(path)
        assert main(["obs", "why", "9:9", "--trace", str(path)]) == 2
        assert main(["obs", "why", "bogus", "--trace", str(path)]) == 2
        missing = tmp_path / "absent.jsonl"
        assert main(["obs", "why", "2:0", "--trace", str(missing)]) == 2
        # A txn id (or --lost) is required.
        assert main(["obs", "why", "--trace", str(path)]) == 2
        capsys.readouterr()
