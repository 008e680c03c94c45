"""Search budgets.

Exhaustive subroutines (subset enumeration, separation search, theta
scans) accept an optional Budget so callers can bound worst-case cost.
A Budget counts abstract "nodes" (one per explored candidate) and wall
time; exceeding either limit raises BudgetExceededError.  The CLI maps
--max-subsets / --max-seconds onto one shared Budget per invocation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Budget", "BudgetExceededError"]

# tick() consults the clock only once per this many nodes.
CHECK_EVERY = 4096


class BudgetExceededError(Exception):
    """Raised when a bounded search runs out of nodes or seconds."""

    def __init__(self, message: str, *, nodes: int = 0, seconds: float = 0.0):
        super().__init__(message)
        self.nodes = nodes
        self.seconds = seconds


@dataclass
class Budget:
    """Mutable node/time budget shared across one logical computation.

    max_nodes / max_seconds of None mean unlimited.  tick() is cheap:
    the clock is only consulted every CHECK_EVERY nodes.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None
    nodes: int = field(default=0, init=False)
    _started: float = field(default_factory=time.monotonic, init=False)

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def tick(self, count: int = 1) -> None:
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.nodes} > {self.max_nodes})",
                nodes=self.nodes,
                seconds=self.elapsed(),
            )
        if self.max_seconds is not None and self.nodes % CHECK_EVERY < count:
            elapsed = self.elapsed()
            if elapsed > self.max_seconds:
                raise BudgetExceededError(
                    f"time budget exhausted ({elapsed:.2f}s > {self.max_seconds}s)",
                    nodes=self.nodes,
                    seconds=elapsed,
                )
