"""Structure matching (paper Section 6): the TreeMatch algorithm."""

from repro.structure.dense import DenseSimilarityStore, numpy_available
from repro.structure.similarity import SimilarityStore
from repro.structure.treematch import TreeMatch, TreeMatchResult

__all__ = [
    "DenseSimilarityStore",
    "SimilarityStore",
    "TreeMatch",
    "TreeMatchResult",
    "numpy_available",
]
