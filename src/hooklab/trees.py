"""Labelled tree families: increasing trees, Cayley trees, binary shapes.

Each family lives in the encoding its generator yields; no tree object
is built.

* Increasing trees on {1..n}: rooted trees in which every non-root
  vertex has a parent with a smaller label, so the root is 1.  A tree
  is its parent-position vector (parent_vectors); there are (n-1)! of
  them, and rooted_shapes generates their unordered shapes, once each.

* Cayley trees: unrooted labelled trees on {1..r}, as edge lists.
  There are r^(r-2) of them, and the Pruefer code gives the explicit
  bijection with sequences that the enumerator decodes (prufer_edges,
  cayley_edge_lists); r = 1 has the one empty edge list.

* Binary shapes: unlabelled rooted binary trees, each the nested pair
  (left, right) of its subtrees, with None for the empty shape
  (enumerate_binary).

The *_to_json_dict and *_to_dot functions render each encoding for
`hooklab enumerate`.

Enumeration order is part of the contract: callers rely on it being
deterministic, and each family is one in-order pass.  For increasing
trees the order is lexicographic in the parent-position vector
(the choice for the largest label varying fastest); for Cayley trees
it is lexicographic in the Pruefer sequence; for binary shapes left
subtree size ascends first.
"""

from __future__ import annotations

import heapq
import itertools
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

__all__ = [
    "automorphisms",
    "binary_to_dot",
    "binary_to_json_dict",
    "cayley_count",
    "cayley_edge_lists",
    "cayley_to_dot",
    "cayley_to_json_dict",
    "enumerate_binary",
    "increasing_count",
    "increasing_to_dot",
    "increasing_to_json_dict",
    "parent_vectors",
    "prufer_edges",
    "rooted_shapes",
    "subtree_totals",
]


def _is_int(v) -> bool:
    """Whether v is an int and not a bool, as every vertex must be."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_int(n, least: int = 1) -> None:
    """Refuse a size or count that is not an int of at least `least`;
    a bool is not an int here."""
    if not _is_int(n) or n < least:
        raise ValueError(f"expected an int of at least {least}, got {n!r}")


def _clean_labels(labels: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(labels))
    if not out:
        raise ValueError("a tree needs at least one vertex")
    if any(not _is_int(v) or v < 1 for v in out):
        raise ValueError(f"labels must be positive ints: {out}")
    if len(set(out)) != len(out):
        raise ValueError(f"labels must be distinct: {out}")
    return out


def increasing_count(n: int) -> int:
    """Number of increasing trees on n labels: (n-1)!."""
    _check_int(n)
    return factorial(n - 1)


def parent_vectors(n: int) -> Iterator[tuple]:
    """Parent-position vectors of the increasing trees on n labels, in order.

    Entry j-1 is the position, counted from 0 along the sorted labels,
    of the parent of the label at position j, so it lies in [0, j).
    """
    _check_int(n)
    return itertools.product(*(range(j) for j in range(1, n)))


def _check_parent_vector(pv: Sequence) -> None:
    """Refuse a parent vector whose entry j-1 is not an int in [0, j)."""
    for j, p in enumerate(pv, 1):
        if not _is_int(p) or not 0 <= p < j:
            raise ValueError(f"parent vector entry {j - 1} must be an int in [0, {j}), got {p!r}")


def increasing_to_json_dict(pv: Sequence[int]) -> dict:
    """{"labels": …, "parent": {label: parent label}} of the increasing
    tree on {1..len(pv)+1} with parent vector pv; JSON keys are strings."""
    return {
        "labels": list(range(1, len(pv) + 2)),
        "parent": {str(j + 1): p + 1 for j, p in enumerate(pv, 1)},
    }


def increasing_to_dot(pv: Sequence[int], graph_name: str = "increasing_tree") -> str:
    """Edges parent -> child in label order, so each parent's children
    are declared in ascending order and renderers draw them left to right."""
    lines = [f"digraph {graph_name} {{", "  ordering=out;"]
    lines.extend(f"  {v};" for v in range(1, len(pv) + 2))
    lines.extend(f"  {p + 1} -> {j + 1};" for j, p in enumerate(pv, 1))
    lines.append("}")
    return "\n".join(lines)


def subtree_totals(values: Sequence, pv: Sequence[int]) -> list:
    """Per-vertex values summed with + over each subtree, given parent positions.

    values[j] belongs to the label at position j: values of 1 give the
    hook sizes, 1-tuples the hooks themselves.  Parents precede their
    children, so one backward pass adds each subtree into its parent.
    """
    out = list(values)
    for j in range(len(out) - 1, 0, -1):
        p = pv[j - 1]
        out[p] = out[p] + out[j]
    return out


def _shape_key(pv: Sequence[int]) -> tuple:
    """AHU key (Aho, Hopcroft and Ullman, 1974) of the shape with parent
    positions pv: a vertex's key is the sorted tuple of its children's, a
    leaf's is ().  Parents precede children, so one backward pass does."""
    kids: list = [[] for _ in range(len(pv) + 1)]
    for j in range(len(pv), 0, -1):
        kids[pv[j - 1]].append(tuple(sorted(kids[j])))
    return tuple(sorted(kids[0]))


def rooted_shapes(n: int) -> Iterator[tuple]:
    """(AHU key, parent vector) of each unordered rooted shape on n
    vertices, once each, as in Beyer and Hedetniemi, "Constant time
    generation of rooted trees" (SIAM J. Comput. 1980): a shape is its
    preorder depths, each subtree's no smaller than a later sibling's.
    The next shape repeats the depths from q, the parent of the last
    vertex p below depth 1, with period p - q to the end.  Preorder
    positions label the shape increasingly: the parent vector."""
    _check_int(n)
    levels = list(range(n))
    while True:
        last = [0] * n  # last[d]: latest position at depth d
        pv = []
        for j in range(1, n):
            pv.append(last[levels[j] - 1])
            last[levels[j]] = j
        yield _shape_key(pv), tuple(pv)
        p = next((j for j in range(n - 1, 0, -1) if levels[j] > 1), 0)
        if not p:
            return
        q = max(j for j in range(p) if levels[j] == levels[p] - 1)
        for j in range(p, n):
            levels[j] = levels[j - (p - q)]


def automorphisms(key: tuple) -> int:
    """Order of the automorphism group of the rooted shape with AHU key key.

    At each vertex, every group of m identical children can be permuted
    in m! ways, on top of each child's own automorphisms.
    """
    memo: dict = {}

    def aut(k: tuple) -> int:
        if k not in memo:
            group_perms = prod(factorial(len(list(g))) for _, g in itertools.groupby(k))
            memo[k] = group_perms * prod(aut(c) for c in k)
        return memo[k]

    return aut(key)


def cayley_count(r: int) -> int:
    """Number of labelled trees on r vertices: r^(r-2), with 1 for r <= 2."""
    _check_int(r)
    return 1 if r <= 2 else r ** (r - 2)


def prufer_edges(seq: Sequence[int]) -> list:
    """Edges (leaf, neighbour) of the tree on {1..len(seq)+2} with the
    given Pruefer sequence, in the order the decoder finds them.

    The smallest leaf is cut at each step and joined to the next entry;
    the last two leaves make the last edge.  A union-find pass then
    checks that no edge closes a cycle, so the r-1 edges span a tree on
    all r vertices; ValueError otherwise.
    """
    r = len(seq) + 2
    if any(not (_is_int(s) and 1 <= s <= r) for s in seq):
        raise ValueError(f"sequence entries must be ints in 1..{r}")
    deg = [1] * (r + 1)
    for s in seq:
        deg[s] += 1
    edges = []
    leaves = [v for v in range(1, r + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    root = list(range(r + 1))
    for a, b in edges:
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a == b:
            raise ValueError(f"decoded edges of {tuple(seq)} close a cycle")
        root[a] = b
    return edges


def cayley_edge_lists(r: int) -> Iterator[list]:
    """Edge lists of all r^(r-2) labelled trees on {1..r} in
    Pruefer-lexicographic order, as prufer_edges decodes them; the one
    tree on {1} has the empty list."""
    _check_int(r)
    if r == 1:
        return iter([[]])
    return map(prufer_edges, itertools.product(range(1, r + 1), repeat=r - 2))


def _low_first(edges) -> list:
    """The edges, each low end first, in ascending order."""
    return sorted((a, b) if a < b else (b, a) for a, b in edges)


def cayley_to_json_dict(edges) -> dict:
    """{"r": …, "edges": …} of the tree on {1..r} with the given edges,
    each edge low end first, the edges sorted."""
    return {"r": len(edges) + 1, "edges": [list(e) for e in _low_first(edges)]}


def cayley_to_dot(edges, graph_name: str = "cayley_tree") -> str:
    lines = [f"graph {graph_name} {{"]
    lines.extend(f"  {v};" for v in range(1, len(edges) + 2))
    lines.extend(f"  {a} -- {b};" for a, b in _low_first(edges))
    lines.append("}")
    return "\n".join(lines)


def enumerate_binary(n: int) -> Iterator["tuple | None"]:
    """Yield all binary shapes with n vertices, left subtree size ascending.

    A shape is the pair (left, right) of its subtrees, and the empty
    shape is None.  The shapes of every size up to n are built once per
    call, each from the smaller ones, and shared as subtrees of the
    larger.
    """
    _check_int(n, 0)
    shapes: list[tuple] = [(None,)]
    for m in range(1, n + 1):
        shapes.append(
            tuple(
                (left, right)
                for left_size in range(m)
                for left in shapes[left_size]
                for right in shapes[m - 1 - left_size]
            )
        )
    return iter(shapes[n])


def binary_to_json_dict(t: "tuple | None") -> "dict | None":
    """Nested {"left": …, "right": …} objects; the empty shape is None."""
    if t is None:
        return None
    return {"left": binary_to_json_dict(t[0]), "right": binary_to_json_dict(t[1])}


def binary_to_dot(t: "tuple | None", graph_name: str = "binary_tree") -> str:
    lines = [f"digraph {graph_name} {{"]
    counter = [0]

    def walk(node) -> int:
        my_id = counter[0]
        counter[0] += 1
        lines.append(f"  n{my_id};")
        for child, side in zip(node, "LR"):
            if child is not None:
                cid = walk(child)
                lines.append(f'  n{my_id} -> n{cid} [label="{side}"];')
        return my_id

    if t is not None:
        walk(t)
    lines.append("}")
    return "\n".join(lines)


def _collapse(r: int, edges) -> tuple:
    """Parent vector of the increasing tree that the collapse map sends
    the tree on {1..r} with the given edges to.

    Remove the minimum vertex; each remaining component hangs its own
    minimum under the removed one, and the same rule inside the
    components fills in the rest.  The map is onto, and summing a
    monomial over each fiber is what links degree-weighted Cayley
    counts to hook weights of increasing trees.

    One pass over the edges by smaller end v, largest first: the partial
    trees on the labels above v are the components of the tree there,
    each rooted at its minimum, and each neighbour w > v of v lies in
    its own one, whose root becomes a child of v.
    """
    parent = [0] * (r + 1)  # parent[w]: label of w's father, 0 for none yet
    for v, w in reversed(_low_first(edges)):
        while parent[w]:
            w = parent[w]
        parent[w] = v
    return tuple(p - 1 for p in parent[2:])

