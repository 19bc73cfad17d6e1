"""Fundamental supernode detection (Liu–Ng–Peyton, paper's ref [7]).

A supernode is a maximal set of *consecutive* columns ``{f, ..., l}`` of the
factor such that each column's structure nests into the next:
``struct(j) = struct(j+1) ∪ {j}``.  On a postordered matrix this is detected
purely from the elimination tree and column counts:

column ``j`` extends the supernode of ``j - 1`` iff

* ``parent[j-1] == j`` (chain in the etree),
* ``cc[j-1] == cc[j] + 1`` (structures nest exactly), and
* ``j - 1`` is the only child of ``j`` (*fundamental* condition; without it
  one gets the maximal supernode partition).

The partition is returned as ``snptr`` (length ``nsup + 1``): supernode ``s``
owns columns ``snptr[s]:snptr[s+1]``.
"""

from __future__ import annotations

import numpy as np

from .etree import is_postordered

__all__ = ["fundamental_supernodes", "snode_of_column", "supernodal_tree", "validate_snptr"]


def fundamental_supernodes(parent, counts, *, fundamental=True):
    """Compute the supernode partition from etree + column counts.

    Parameters
    ----------
    parent:
        Elimination tree of the (postordered) matrix.
    counts:
        Column counts of its factor.
    fundamental:
        When true (default) require the only-child condition, giving
        fundamental supernodes; when false, the maximal partition.

    Returns
    -------
    snptr:
        ``int64`` array of supernode column boundaries.
    """
    n = parent.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    if not is_postordered(parent):
        raise ValueError("matrix must be postordered before supernode detection")
    childcount = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(childcount, parent[has_parent], 1)
    chain = (parent[:-1] == np.arange(1, n)) & (counts[:-1] == counts[1:] + 1)
    if fundamental:
        chain &= childcount[1:] == 1
    return np.concatenate(([0], np.flatnonzero(~chain) + 1, [n])).astype(np.int64)


def snode_of_column(snptr, n=None):
    """Map each column to its supernode id (inverse of ``snptr``)."""
    if n is None:
        n = int(snptr[-1])
    return np.repeat(np.arange(snptr.size - 1, dtype=np.int64), np.diff(snptr))[:n]


def supernodal_tree(snptr, parent):
    """Parent of every supernode (``-1``: root) when each one's columns are
    a chain of the elimination tree ``parent``: the one holding ``parent[last]``."""
    up = parent[snptr[1:] - 1]
    return np.where(up >= 0, snode_of_column(snptr)[up], -1)


def validate_snptr(snptr, n):
    """Raise ``ValueError`` unless ``snptr`` is a valid partition of 0..n."""
    snptr = np.asarray(snptr)
    if snptr.ndim != 1 or snptr.size < 1:
        raise ValueError("snptr must be a 1-D array of length >= 1")
    if snptr[0] != 0 or snptr[-1] != n:
        raise ValueError("snptr must start at 0 and end at n")
    if np.any(np.diff(snptr) < 1):
        raise ValueError("snptr must be strictly increasing")
