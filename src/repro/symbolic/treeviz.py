"""ASCII rendering and shape statistics of supernodal elimination trees.

The shape of the supernodal elimination tree decides everything downstream:
wide independent subtrees mean parallelism (task-DAG overlap), a heavy
separator chain near the root means the offloaded work serializes, and the
per-depth panel sizes are exactly what the CPU/GPU threshold slices.
``render_tree`` draws the tree (largest panels first, optionally
truncated), ``tree_stats`` summarizes depth, branching and where the flops
live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["render_tree", "tree_stats", "TreeStats"]


@dataclass
class TreeStats:
    """Shape summary of a supernodal elimination tree.

    ``work_by_depth`` maps depth (root = 0) to total factor flops, the
    quantity whose concentration near the root limits tree parallelism.
    """

    nsup: int
    height: int
    nroots: int
    nleaves: int
    max_children: int
    work_by_depth: dict
    top_heavy_fraction: float

    def summary_lines(self):
        """Human-readable summary rows (label, value)."""
        return [
            ("supernodes", str(self.nsup)),
            ("tree height", str(self.height)),
            ("roots / leaves", f"{self.nroots} / {self.nleaves}"),
            ("max children", str(self.max_children)),
            ("flops in top 3 levels",
             f"{100 * self.top_heavy_fraction:.0f}%"),
        ]


def _depths(symb):
    depth = np.zeros(symb.nsup, dtype=np.int64)
    # supernodes are topologically ordered (children before parents), so a
    # reverse sweep assigns root depth 0 downwards
    for s in range(symb.nsup - 1, -1, -1):
        p = int(symb.sn_parent[s])
        depth[s] = 0 if p < 0 else -1  # placeholder
    for s in range(symb.nsup - 1, -1, -1):
        p = int(symb.sn_parent[s])
        depth[s] = 0 if p < 0 else depth[p] + 1
    return depth


def _snode_flops(symb, s):
    m, w = symb.panel_shape(s)
    b = m - w
    return w ** 3 // 3 + w ** 2 * b + w * b * b


def tree_stats(symb):
    """Compute :class:`TreeStats` for a symbolic factorization."""
    depth = _depths(symb)
    children = symb.children()
    nroots = int(np.count_nonzero(symb.sn_parent < 0))
    nleaves = sum(1 for c in children if c.size == 0)
    work = {}
    total = 0.0
    for s in range(symb.nsup):
        f = _snode_flops(symb, s)
        work[int(depth[s])] = work.get(int(depth[s]), 0.0) + f
        total += f
    top = sum(work.get(d, 0.0) for d in (0, 1, 2))
    return TreeStats(
        nsup=symb.nsup,
        height=int(depth.max()) + 1 if symb.nsup else 0,
        nroots=nroots,
        nleaves=nleaves,
        max_children=max((c.size for c in children), default=0),
        work_by_depth=work,
        top_heavy_fraction=top / total if total else 0.0,
    )


def render_tree(symb, *, max_nodes=40, max_depth=None):
    """Draw the supernodal elimination tree as indented ASCII.

    Nodes are labelled ``s: m x w  [flops]``; at each level children are
    shown largest-first and the tail beyond ``max_nodes`` total nodes is
    elided with a count.  Forests (multiple roots) render root by root.
    """
    children = symb.children()
    roots = [s for s in range(symb.nsup) if symb.sn_parent[s] < 0]
    lines = []
    shown = 0
    elided = 0

    def visit(s, prefix, is_last, depth):
        nonlocal shown, elided
        if shown >= max_nodes or (max_depth is not None
                                  and depth > max_depth):
            elided += 1 + sum(1 for _ in _descendants(children, s))
            return
        m, w = symb.panel_shape(s)
        tag = "`-" if is_last else "|-"
        head = prefix + tag if prefix or not is_last or depth else ""
        lines.append(f"{prefix}{tag}{s}: {m}x{w}  "
                     f"[{_snode_flops(symb, s):.2e} flops]")
        shown += 1
        kids = sorted(children[s].tolist(),
                      key=lambda c: -symb.panel_size(c))
        ext = prefix + ("  " if is_last else "| ")
        for i, c in enumerate(kids):
            visit(c, ext, i == len(kids) - 1, depth + 1)

    for i, r in enumerate(sorted(roots, key=lambda s: -symb.panel_size(s))):
        visit(r, "", i == len(roots) - 1, 0)
    if elided:
        lines.append(f"... ({elided} more supernodes elided)")
    return "\n".join(lines)


def _descendants(children, s):
    stack = list(children[s])
    while stack:
        c = int(stack.pop())
        yield c
        stack.extend(children[c])
