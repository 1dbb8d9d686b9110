"""Plain-text diagrams of small simplicial sets.

The emitter produces a DOT graph of the 1-skeleton: one node per
vertex, one undirected edge per nondegenerate 1-cell, and comment
annotations listing the nondegenerate cells of every higher level with
their vertex tuples.  Output ordering follows level order throughout,
so equal inputs yield identical bytes.
"""

from __future__ import annotations

from .delta import vertex
from .errors import InputError
from .sset import TruncatedSSet, act, edgewise, nondegenerate_cells, \
    standard_simplex

__all__ = ["subdivided_simplex", "emit_diagram"]

_CELL_LIMIT = 200


def subdivided_simplex(k: int) -> TruncatedSSet:
    """The subdivision of the k-simplex, truncated at level k."""
    if not 1 <= k <= 4:
        raise InputError("subdivided simplex drawing needs 1 <= k <= 4")
    return edgewise(standard_simplex(k, 2 * k + 1))


def emit_diagram(target) -> str:
    """Graph-description text for an integer k or a small TruncatedSSet."""
    if isinstance(target, int):
        X = subdivided_simplex(target)
    elif isinstance(target, TruncatedSSet):
        X = target
        if sum(X.level_sizes()) > _CELL_LIMIT:
            raise InputError(
                f"diagram limited to {_CELL_LIMIT} cells, "
                f"got {sum(X.level_sizes())}")
    else:
        raise InputError(f"cannot draw {target!r}")

    lines = [f'graph "{X.name or "sset"}" {{']
    lines.append(f"  // nodes: {len(X.level(0))}")
    for v in X.level(0):
        lines.append(f'  "{v}";')
    if X.truncation >= 1:
        edges = nondegenerate_cells(X, 1)
        lines.append(f"  // edges: {len(edges)}")
        tail, head = X.face_map(1, 1), X.face_map(1, 0)
        for c in edges:
            lines.append(f'  "{tail[c]}" -- "{head[c]}";  // "{c}"')
    for n in range(2, X.truncation + 1):
        cells = nondegenerate_cells(X, n)
        lines.append(f"  // level {n}: {len(cells)} nondegenerate cells")
        corners = [act(vertex(j, n), X) for j in range(n + 1)]
        for c in cells:
            spots = ", ".join(table[c] for table in corners)
            lines.append(f'  // "{c}": {spots}')
    lines.append("}")
    return "\n".join(lines) + "\n"
