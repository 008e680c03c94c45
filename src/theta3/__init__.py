"""Binary matroid toolkit built around theta subgeometries.

The package answers four questions about a binary matroid M:

* is M theta-closed? (`theta.is_theta3_closed`)
* what is its theta-closure, and which theta subgeometries forced each
  new point? (`theta.theta3_closure`)
* what is its canonical tree decomposition into circuits, cocircuits and
  3-connected pieces? (`decompose.canonical_tree_decomposition`)
* does M belong to the class generated by circuits, cycle matroids of
  complete graphs and binary projective geometries under direct sums and
  parallel connections, and if so by which recipe? (`decompose.classify_theta3`
  answers from `construct.certificate`, which finds the recipe by cut
  points and also proves `check`'s large closed verdicts)

Matroids are always given by a binary representation: one integer per
element, bit i encoding row i+1 of the column.  See `theta3.matroid`.
"""

from __future__ import annotations

from theta3.budget import Budget, BudgetExceededError
from theta3.matroid import BinaryMatroid
from theta3.theta import ThetaGraph, is_theta3_closed, theta3_closure, theta_graphs
from theta3.decompose import (
    canonical_tree_decomposition,
    classify_theta3,
    recompose,
)

__all__ = [
    "Budget",
    "BudgetExceededError",
    "BinaryMatroid",
    "ThetaGraph",
    "is_theta3_closed",
    "theta3_closure",
    "theta_graphs",
    "canonical_tree_decomposition",
    "classify_theta3",
    "recompose",
]

__version__ = "0.1.0"
