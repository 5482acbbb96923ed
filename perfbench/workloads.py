"""The four workloads: inputs from a seed, one op, and its output check.

Every op's output is checked against references pinned in
``reference.json`` (written by ``pin.py`` at the pinned commit).  The
seed picks which pinned inputs a run visits and in what order, so any
seed's ops have references: the same seed gives the same op sequence.

A workload object is built in three steps: ``__init__`` (cheap),
``setup`` (what ``setup_s`` times: inputs built, runner or corpus
ready), then ``ops()`` / ``run(op)`` / ``check(op, result)``.
``pool()`` lists every input a run can visit, for pinning.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tarfile
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CORPUS = HERE / "corpus" / "src.tar.gz"

#: Figure 4's grid and testbed (Section 5.1)
FIG4_ID_BITS = (2, 3, 4, 5, 6, 8, 10)
FIG4_SELECTORS = ("uniform", "listening")
FIG4_SENDERS = 5
FIG4_DURATION = 20.0
#: pinned replicates per grid point; a run picks among them by seed
FIG4_REPLICATES = 4
#: pinned scenario seeds of the flow workloads
HYBRID_SEEDS = 8
SHARDED_SEEDS = 16


@dataclass
class Check:
    """Outcome of one op's output check.

    ``work`` is what the op completed (transactions or files) and
    ``counters`` are per-layer facts read off the op's output.
    """

    ok: bool
    work: float
    counters: Dict[str, float]
    problem: str = ""


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def _cycle(seed: int, pool: List[Any]) -> Iterator[Any]:
    """Endless passes over ``pool``, each in a fresh seed-derived order."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(pool, len(pool))


class Workload:
    name = ""
    #: one untimed op before timing (lazy imports, allocator, caches)
    warmup = True

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]], root: Path):
        self.seed = seed
        self.reference = reference
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def pool(self) -> List[Any]:
        raise NotImplementedError

    def key(self, op: Any) -> str:
        """The op's entry in the pinned outputs."""
        return str(op)

    def ops(self) -> Iterator[Any]:
        return _cycle(self.seed, self.pool())

    def run(self, op: Any) -> Any:
        raise NotImplementedError

    def observe(self, op: Any, result: Any) -> Any:
        """The op's output in its pinned JSON form."""
        raise NotImplementedError

    def check(self, op: Any, result: Any) -> Check:
        raise NotImplementedError

    def check_run(self, checked: List[Tuple[Any, Any]]) -> List[str]:
        """Checks over the whole run's outputs; problems found."""
        return []

    def close(self) -> None:
        pass

    def expected(self, op: Any) -> Any:
        if self.reference is None:
            raise RuntimeError("no pinned reference loaded")
        return self.reference[self.name]["outputs"].get(self.key(op))


# ----------------------------------------------------------------------
# fig4_discrete
# ----------------------------------------------------------------------
def eq4(id_bits: int, density: int) -> float:
    """Eq. 4: P(collision) = 1 - (1 - 2^-H)^(2(T-1))."""
    return 1.0 - (1.0 - 2.0 ** -id_bits) ** (2 * (density - 1))


class Fig4Discrete(Workload):
    """One op: one Figure-4 collision trial, run through ``replicate``."""

    name = "fig4_discrete"

    def setup(self) -> None:
        from repro.exec import TrialRunner
        from repro.experiments import harness

        self.harness = harness
        self.runner = TrialRunner(workers=1)

    def pool(self) -> List[Tuple[int, str, int]]:
        return [
            (b, s, r)
            for b in FIG4_ID_BITS
            for s in FIG4_SELECTORS
            for r in range(FIG4_REPLICATES)
        ]

    def ops(self) -> Iterator[Tuple[int, str, int]]:
        # A pass visits every grid point once, both selectors of an
        # identifier size back to back, so a run's partial last pass
        # still compares whole random/listening pairs.
        rng = random.Random(self.seed)
        while True:
            for id_bits in rng.sample(FIG4_ID_BITS, len(FIG4_ID_BITS)):
                replicate = rng.randrange(FIG4_REPLICATES)
                for selector in rng.sample(FIG4_SELECTORS, 2):
                    yield (id_bits, selector, replicate)

    def run(self, op: Tuple[int, str, int]) -> Any:
        id_bits, selector, replicate = op
        config = self.harness.CollisionTrialConfig(
            id_bits=id_bits,
            n_senders=FIG4_SENDERS,
            packet_bytes=80,
            mtu_bytes=27,
            duration=FIG4_DURATION,
            selector=selector,
            seed=replicate,
        )
        _mean, _stdev, results = self.harness.replicate(
            config, trials=1, runner=self.runner
        )
        return results[0]

    def key(self, op: Tuple[int, str, int]) -> str:
        return "{}/{}/{}".format(*op)

    def observe(self, op: Any, result: Any) -> Dict[str, Any]:
        return {
            f.name: getattr(result, f.name)
            for f in fields(result)
            if f.name != "config"
        }

    def check(self, op: Any, result: Any) -> Check:
        seen = self.observe(op, result)
        counters = {
            "radio.deliveries": float(seen["frames_delivered"]),
            "radio.rf_drops": float(seen["frames_dropped_rf"]),
        }
        expected = self.expected(op)
        if seen != expected:
            return Check(False, 0.0, counters, f"{self.key(op)}: {seen} != {expected}")
        return Check(True, float(seen["packets_offered"]), counters)

    def check_run(self, checked: List[Tuple[Any, Any]]) -> List[str]:
        """The paper's oracle over the run's grid points (Figure 4)."""
        rates: Dict[Tuple[int, str], List[float]] = {}
        for op, result in checked:
            rates.setdefault(op[:2], []).append(result.collision_loss_rate)
        mean = {point: sum(v) / len(v) for point, v in rates.items()}
        problems = []
        for (id_bits, selector), rate in sorted(mean.items()):
            bound = eq4(id_bits, FIG4_SENDERS) + 0.05
            if selector == "uniform" and rate > bound:
                problems.append(f"random {id_bits}-bit rate {rate} > Eq. 4 + 0.05 = {bound}")
        paired = [b for b in FIG4_ID_BITS if (b, "uniform") in mean and (b, "listening") in mean]
        random_sum = sum(mean[(b, "uniform")] for b in paired)
        listening_sum = sum(mean[(b, "listening")] for b in paired)
        if paired and not listening_sum < random_sum:
            problems.append(
                f"listening sum {listening_sum} !< random sum {random_sum} over {paired}"
            )
        return problems


# ----------------------------------------------------------------------
# Flow workloads
# ----------------------------------------------------------------------
def flow_rows(result: Any) -> Dict[str, Any]:
    return {
        "transactions": result.transactions,
        "collisions": result.collisions,
        "windows": [
            [w.index, w.fidelity, w.transactions, w.collisions, w.density]
            for w in result.windows
        ],
    }


class _FlowWorkload(Workload):
    pool_size = 0

    def pool(self) -> List[int]:
        return list(range(self.pool_size))

    def observe(self, op: int, result: Any) -> Dict[str, Any]:
        return flow_rows(result)

    def check(self, op: int, result: Any) -> Check:
        seen = self.observe(op, result)
        frame = sum(w.transactions for w in result.windows if w.fidelity == "frame")
        counters = {"flow.frame_txn": float(frame), "flow.txn": float(result.transactions)}
        if seen != self.expected(op):
            return Check(False, 0.0, counters, f"seed {op}: FlowResult differs from pinned")
        return Check(True, float(result.transactions), counters)


class HybridBurst(_FlowWorkload):
    """One op: a hybrid-fidelity 20k-node run with a replayed burst."""

    name = "hybrid_burst"
    pool_size = HYBRID_SEEDS

    def setup(self) -> None:
        from repro.flow import hybrid, streams

        self.hybrid = hybrid
        self.scenario = streams.massive_scenario(n_nodes=20_000, horizon=600)

    def run(self, op: int) -> Any:
        return self.hybrid.simulate(
            self.scenario, op, fidelity="hybrid", switch_threshold=200
        )


class FlowSharded(_FlowWorkload):
    """One op: a 1M-node flow run sharded over two forked workers."""

    name = "flow_sharded"
    pool_size = SHARDED_SEEDS

    def setup(self) -> None:
        from repro.exec import TrialRunner
        from repro.flow import shard, streams

        self.shard = shard
        self.scenario = streams.massive_scenario(n_nodes=1_000_000, horizon=120)
        self.runner = TrialRunner(workers=max(1, min(2, os.cpu_count() or 1)))

    def run(self, op: int) -> Any:
        return self.shard.simulate_sharded(
            self.scenario, op, fidelity="flow", shards=2, runner=self.runner
        )


# ----------------------------------------------------------------------
# lint_tree
# ----------------------------------------------------------------------
class LintTree(Workload):
    """One op: ``lint --project --ranges`` in process over a frozen tree.

    The corpus is ``src/`` at the pinned commit, unpacked at set-up, so
    a change that deletes source does not shrink the input.  The seed
    has no effect: the input is the same tree every time.
    """

    name = "lint_tree"
    warmup = False

    def __init__(self, seed: int, reference: Optional[Dict[str, Any]], root: Path):
        super().__init__(seed, reference, root)
        self.scratch: Optional[Path] = None

    def setup(self) -> None:
        from repro.analysis import core, ranges

        self.core = core
        self.ranges = ranges
        workdir = self.root / ".perfbench"
        workdir.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="corpus-", dir=workdir))
        with tarfile.open(CORPUS, "r:gz") as archive:
            archive.extractall(self.scratch, filter="data")
        self.corpus = self.scratch / "src"
        try:
            shown = self.corpus.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            shown = self.corpus.as_posix()
        self.prefix = shown + "/"

    def pool(self) -> List[int]:
        return [0]

    def key(self, op: int) -> str:
        return "tree"

    def run(self, op: int) -> Any:
        linter = self.core.Linter()
        report = linter.lint_paths([self.corpus], project=True)
        ledger = self.ranges.build_proof_ledger(linter.last_project)
        return report, ledger

    def _rel(self, path: str) -> str:
        return path[len(self.prefix):] if path.startswith(self.prefix) else path

    def observe(self, op: int, result: Any) -> Dict[str, Any]:
        report, ledger = result
        return {
            "files": report.files_checked,
            "errors": [[self._rel(p), m] for p, m in report.errors],
            "findings": [
                [f.rule_id, self._rel(f.path), f.line, f.col, f.message]
                for f in report.findings
            ],
            "ledger": [
                [self._rel(e.path), e.line, e.function, e.status] for e in ledger
            ],
        }

    def check(self, op: int, result: Any) -> Check:
        seen = self.observe(op, result)
        counters = {"analysis.files": float(seen["files"])}
        if seen != self.expected(op):
            return Check(False, 0.0, counters, "lint findings or ledger differ from pinned")
        return Check(True, float(seen["files"]), counters)

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None


WORKLOAD_TYPES = {
    cls.name: cls for cls in (Fig4Discrete, HybridBurst, FlowSharded, LintTree)
}


def make(name: str, seed: int, root: Path, reference: Optional[Dict[str, Any]] = None) -> Workload:
    return WORKLOAD_TYPES[name](seed, reference, root)
