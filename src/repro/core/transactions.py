"""Ground-truth transaction tracking and collision detection.

A *transaction* is "any computation during which some state must be
maintained by the nodes involved" (Section 1) — here: an interval of
simulated time, an owner node, a transaction identifier, and the set of
receivers that can observe it.

:class:`TransactionLog` is the experiment harness's omniscient view: it
knows every transaction's true owner, so it can decide — like the
paper's instrumented driver — which transactions *collided* (another
overlapping transaction used the same identifier within a shared
audience) independent of what the protocol under test delivered.  It
also measures the realised transaction density ``T`` as the
time-weighted average number of concurrently open transactions, which is
how simulation results are matched against the analytic model's ``T``
parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..sim.monitor import TimeWeightedValue

__all__ = ["Transaction", "TransactionLog"]

_txn_seq = itertools.count(1)


@dataclass(slots=True, eq=False)
class Transaction:
    """One tracked transaction (ground truth, not protocol state).

    ``slots=True`` matters: the reference Monte Carlo pipeline allocates
    one instance per simulated transaction (tens of thousands per run),
    and slotted instances are both smaller and faster to create than
    ``__dict__``-backed ones.  ``eq=False`` keeps identity comparison:
    every instance draws a unique ``uid``, so field equality never held
    between distinct transactions anyway, and the log's open-list
    removal is an identity scan, not a field-by-field walk.
    """

    owner: int
    identifier: int
    start: float
    audience: Optional[FrozenSet[int]] = None
    end: Optional[float] = None
    uid: int = field(default_factory=lambda: next(_txn_seq))

    @property
    def open(self) -> bool:
        return self.end is None

    def overlaps(self, other: "Transaction") -> bool:
        """Temporal overlap, treating open transactions as unbounded."""
        self_end = self.end if self.end is not None else float("inf")
        other_end = other.end if other.end is not None else float("inf")
        return self.start < other_end and other.start < self_end

    def shares_audience(self, other: "Transaction") -> bool:
        """True when some receiver could see both transactions.

        ``audience=None`` means "visible everywhere" (the full-mesh case)
        and intersects with anything.
        """
        if self.audience is None or other.audience is None:
            return True
        return bool(self.audience & other.audience)

    def __repr__(self) -> str:
        state = "open" if self.open else f"end={self.end:.3f}"
        return (
            f"<Txn uid={self.uid} owner={self.owner} id={self.identifier} "
            f"start={self.start:.3f} {state}>"
        )


class TransactionLog:
    """Records transactions and detects ground-truth identifier collisions.

    Collision semantics follow the model's success criterion: "a
    transaction is successful if and only if the source uses an
    identifier that is unique with respect to all other transactions at
    the same point in the network for the entire duration of the
    transaction" (Section 4.1).  Both parties to a shared identifier are
    marked collided.
    """

    def __init__(self) -> None:
        self._all: List[Transaction] = []
        self._open_by_id: Dict[int, List[Transaction]] = {}
        self._collided: Set[int] = set()  # txn uids
        self._density = TimeWeightedValue()
        self._last_time = 0.0

    # ------------------------------------------------------------------
    def begin(
        self,
        owner: int,
        identifier: int,
        time: float,
        audience: Optional[Set[int]] = None,
    ) -> Transaction:
        """Open a transaction; immediately flags collisions with open peers."""
        txn = Transaction(
            owner=owner,
            identifier=identifier,
            start=time,
            audience=frozenset(audience) if audience is not None else None,
        )
        open_list = self._open_by_id.get(identifier)
        if open_list is None:
            open_list = self._open_by_id[identifier] = []
        else:
            collided = self._collided
            for peer in open_list:  # same id, still open
                if peer.owner != owner and txn.shares_audience(peer):
                    collided.add(txn.uid)
                    collided.add(peer.uid)
        self._all.append(txn)
        open_list.append(txn)
        self._density.adjust(time, +1)
        if time > self._last_time:
            self._last_time = time
        return txn

    def end(self, txn: Transaction, time: float) -> None:
        """Close a transaction at ``time``."""
        if txn.end is not None:
            raise ValueError(f"{txn!r} already ended")
        if time < txn.start:
            raise ValueError("transaction cannot end before it starts")
        txn.end = time
        open_list = self._open_by_id.get(txn.identifier)
        if open_list is not None and txn in open_list:
            open_list.remove(txn)
            if not open_list:
                del self._open_by_id[txn.identifier]
        self._density.adjust(time, -1)
        if time > self._last_time:
            self._last_time = time

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def collided(self, txn: Transaction) -> bool:
        return txn.uid in self._collided

    @property
    def transactions(self) -> List[Transaction]:
        return list(self._all)

    @property
    def total(self) -> int:
        return len(self._all)

    @property
    def collision_count(self) -> int:
        """Number of *transactions* marked collided (both parties count)."""
        return len(self._collided)

    def collision_rate(self) -> float:
        """Fraction of transactions that suffered an identifier collision.

        This is the observable the paper's Figure 4 plots and that Eq. 4
        predicts as ``1 - (1 - 2^-H)^(2(T-1))``.
        """
        if not self._all:
            return float("nan")
        return len(self._collided) / len(self._all)

    def measured_density(self, now: Optional[float] = None) -> float:
        """Realised transaction density: time-weighted mean concurrency."""
        return self._density.average(now if now is not None else self._last_time)

    def open_count(self) -> int:
        return sum(len(v) for v in self._open_by_id.values())

    def successes(self) -> List[Transaction]:
        return [t for t in self._all if t.uid not in self._collided]

    def failures(self) -> List[Transaction]:
        return [t for t in self._all if t.uid in self._collided]
