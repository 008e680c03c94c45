"""Search budgets.

Exhaustive subroutines (subset enumeration, separation search, theta
scans) accept an optional Budget so callers can bound worst-case cost.
A Budget counts abstract "nodes" (one per explored candidate) and wall
time; exceeding either limit raises BudgetExceededError.  The CLI maps
--max-subsets / --max-seconds onto one shared Budget per invocation.
"""

from __future__ import annotations

import time

__all__ = ["Budget", "BudgetExceededError"]

# The batch size of batch_limit(): a hot loop that counts nodes itself
# ticks, and so reads the clock, at least once per this many nodes.
CHECK_EVERY = 4096


class BudgetExceededError(Exception):
    """Raised when a bounded search runs out of nodes or seconds."""

    def __init__(self, message: str, *, nodes: int = 0, seconds: float = 0.0):
        super().__init__(message)
        self.nodes = nodes
        self.seconds = seconds


class Budget:
    """Mutable node/time budget shared across one logical computation.

    max_nodes / max_seconds of None mean unlimited.  With max_seconds
    set, every tick() reads the clock, since one node may be a pass over
    every coordinate.  A hot loop whose nodes are cheap may count them
    itself and tick once per batch_limit() of them.  check_time() reads
    the clock without counting a node.  The clock starts when the budget
    is made.
    """

    __slots__ = ("max_nodes", "max_seconds", "nodes", "_started")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def check_time(self) -> None:
        """Raise if the time limit has passed; counts no node."""
        if self.max_seconds is None:
            return
        elapsed = self.elapsed()
        if elapsed > self.max_seconds:
            raise BudgetExceededError(
                f"time budget exhausted ({elapsed:.2f}s > {self.max_seconds}s)",
                nodes=self.nodes,
                seconds=elapsed,
            )

    def batch_limit(self) -> int:
        """How many nodes a caller may count itself before it must tick.

        CHECK_EVERY, so that a batched loop reads the clock at least
        once per that many nodes; or, when the node cap is nearer, one
        more than the nodes left under it, so the batch that crosses the
        cap raises on the same node, with the same count, as ticking one
        by one.
        """
        if self.max_nodes is None:
            return CHECK_EVERY
        return min(CHECK_EVERY, self.max_nodes - self.nodes + 1)

    def tick(self, count: int = 1) -> None:
        """Count nodes, then raise if either limit has passed."""
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.nodes} > {self.max_nodes})",
                nodes=self.nodes,
                seconds=self.elapsed(),
            )
        self.check_time()
