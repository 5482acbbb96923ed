"""Trace diffing and cross-process shard crash semantics.

* ``repro obs diff`` reports the first diverging record of a perturbed
  trace and refuses an unreadable one;
* a worker that crashes mid-shard leaves only an orphan ``.tmp`` that
  shard collection drops whole — partial shards are complete-or-
  excluded, never truncated mid-record — and the next run's freshly
  forked worker completes the shard.
"""

import os
import pathlib

from repro.cli import main
from repro.exec import TrialRunner, TrialSpec
from repro.obs.envelope import read_trace, write_trace
from repro.obs.merge import collect_shards, merge_shards
from repro.obs.record import record_montecarlo
from repro.sim.trace import TraceRecord

SCENARIO = dict(id_bits=6, rate=5.0, horizon=40.0, seed=3)


def flaky_shard_writer(spool, marker):
    """Crash mid-shard on the first call; complete the shard on retry."""
    from repro.obs.envelope import TraceWriter

    spool_dir = pathlib.Path(spool)
    spool_dir.mkdir(parents=True, exist_ok=True)
    shard = spool_dir / "shard-0000.jsonl"
    flag = pathlib.Path(marker)
    if not flag.exists():
        flag.write_text("crashed")
        # What a real crash leaves behind: the .tmp holds a header, one
        # complete record, and one cut off mid-write.
        tmp = shard.with_name(shard.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as out:
            out.write(
                '{"kind":"repro.obs/trace","meta":{},"schema":1,"writer":"1.0.0"}\n'
            )
            out.write('{"c":"txn.begin","f":{"owner":0},"t":1.0}\n')
            out.write('{"c":"txn.beg')
            out.flush()
        os._exit(1)
    with TraceWriter(shard, meta={"segment": 0}) as writer:
        for owner in range(3):
            writer.write(TraceRecord(float(owner), "txn.begin", {"owner": owner}))
    return 3.0


class TestPooledTraceIdentity:
    def test_perturbed_trace_diff_exits_nonzero(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        record_montecarlo(good, **SCENARIO)
        bad = tmp_path / "bad.jsonl"
        lines = good.read_text().splitlines()
        lines[5] = lines[5].replace('"txn.', '"txnX.', 1)
        bad.write_text("\n".join(lines) + "\n")
        assert main(["obs", "diff", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "record #4 diverges" in out  # line 5 is the 5th record line

    def test_unreadable_trace_diff_exits_two(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_trace(good, iter([]))
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(good.read_text().splitlines()[0] + "\n")
        assert main(["obs", "diff", str(good), str(truncated)]) == 2
        assert "obs diff" in capsys.readouterr().err


class TestCrashRespawn:
    def test_partial_shards_complete_or_excluded(self, tmp_path):
        spool = tmp_path / "spool"
        marker = tmp_path / "marker"
        kwargs = {"spool": str(spool), "marker": str(marker)}
        # Two pending specs, so the runner forks: a lone pending spec
        # runs in-process, where os._exit would take pytest down.
        specs = [
            TrialSpec(fn=flaky_shard_writer, kwargs=kwargs),
            TrialSpec(fn=lambda: 0.0, kwargs={}),
        ]
        runner = TrialRunner(workers=2)
        outcome, mate = runner.run(specs)
        assert not outcome.ok
        assert outcome.failure.error_type == "WorkerCrashed"
        assert mate.ok
        # The crash left a shard cut off mid-record — but only as a
        # .tmp, which shard collection drops whole.
        orphan = spool / "shard-0000.jsonl.tmp"
        assert orphan.exists()
        assert not orphan.read_text().endswith("\n")
        assert collect_shards(spool) == []

        # The next run forks a fresh worker that completes the shard.
        retry, _ = runner.run(specs)
        assert retry.ok and retry.value == 3.0
        shards = collect_shards(spool)
        assert shards == [spool / "shard-0000.jsonl"]
        records = list(read_trace(shards[0]))
        assert [r.fields["owner"] for r in records] == [0, 1, 2]

        # The completed shard merges byte-identically to a direct write.
        merged = tmp_path / "merged.jsonl"
        merge_shards(shards, merged, meta={"run": 1})
        reference = tmp_path / "reference.jsonl"
        write_trace(reference, iter(records), meta={"run": 1})
        assert merged.read_bytes() == reference.read_bytes()
