"""Fill-reducing orderings: nested dissection (METIS stand-in), minimum
degree, reverse Cuthill–McKee, plus graph utilities and quality metrics."""

from .graph import (
    AdjacencyGraph,
    adjacency_from_matrix,
    bfs_levels,
    connected_components,
    pseudo_peripheral_vertex,
)
from .mindeg import minimum_degree
from .rcm import reverse_cuthill_mckee
from .nested_dissection import nested_dissection
from .metrics import OrderingQuality, evaluate_ordering

__all__ = [
    "AdjacencyGraph",
    "adjacency_from_matrix",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_vertex",
    "minimum_degree",
    "reverse_cuthill_mckee",
    "nested_dissection",
    "OrderingQuality",
    "evaluate_ordering",
    "order_matrix",
    "ORDERINGS",
]

#: The accepted ``method`` values of :func:`order_matrix`, default first.
ORDERINGS = ("nd", "mindeg", "rcm", "natural")


def order_matrix(A, method="nd", **kwargs):
    """Convenience dispatcher: compute a fill-reducing permutation of ``A``.

    Parameters
    ----------
    A:
        :class:`~repro.sparse.csc.SymmetricCSC`.
    method:
        One of :data:`ORDERINGS`: ``"nd"`` (nested dissection, default —
        the paper's choice), ``"mindeg"``, ``"rcm"`` or ``"natural"``.
    kwargs:
        Forwarded to the underlying algorithm.
    """
    import numpy as np

    if method not in ORDERINGS:
        raise ValueError(f"unknown ordering method {method!r}; "
                         f"expected one of {', '.join(ORDERINGS)}")
    if method == "natural":
        return np.arange(A.n, dtype=np.int64)
    algorithm = {"nd": nested_dissection, "mindeg": minimum_degree,
                 "rcm": reverse_cuthill_mckee}[method]
    return algorithm(adjacency_from_matrix(A), **kwargs)
