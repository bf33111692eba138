"""Labelled tree families: increasing trees, Cayley trees, binary shapes.

Three shapes of object live here.

* IncreasingTree: a rooted tree on a finite set of positive integer
  labels in which every non-root vertex has a parent with a smaller
  label.  The root is forced to be the minimum label, and the whole
  tree is determined by the parent map.  There are (n-1)! of them on
  any n labels; rooted_shapes generates their unordered shapes, once
  each.

* CayleyTree: an unrooted labelled tree on vertices {1..r}, stored as a
  sorted edge list.  There are r^(r-2) of them, and the Pruefer code
  gives the explicit bijection with sequences that the enumerator
  decodes (prufer_edges).

* BinaryTree: an unlabelled rooted binary shape (each vertex has an
  optional left and right child).  The empty shape is represented by
  None throughout; the module-level helpers all accept it.

Enumeration order is part of the contract: callers rely on it being
deterministic, and each family is one in-order pass.  For increasing
trees the order is lexicographic in the parent-position vector
(non-root labels ascending, the choice for the largest label varying
fastest), and parent_vectors is the one sweep of it; for Cayley trees
it is lexicographic in the Pruefer sequence; for binary shapes left
subtree size ascends first.
"""

from __future__ import annotations

import heapq
import itertools
from math import factorial, prod
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "BinaryTree",
    "CayleyTree",
    "IncreasingTree",
    "automorphisms",
    "binary_to_dot",
    "binary_to_json_dict",
    "cayley_count",
    "cayley_edge_lists",
    "enumerate_binary",
    "enumerate_cayley",
    "enumerate_increasing",
    "increasing_count",
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


class IncreasingTree:
    """Rooted tree where every non-root label exceeds its parent's label."""

    __slots__ = ("_labels", "_parent")

    def __init__(self, labels: Iterable[int], parent: Mapping[int, int]):
        self._labels = _clean_labels(labels)
        expected = set(self._labels[1:])
        if set(parent) != expected:
            raise ValueError(
                "parent map must cover exactly the non-root labels "
                f"{sorted(expected)}, got {sorted(parent)}"
            )
        label_set = set(self._labels)
        for v, p in parent.items():
            if not _is_int(p) or p not in label_set:
                raise ValueError(f"parent {p!r} of {v} is not a vertex")
            if p >= v:
                raise ValueError(f"parent {p} of {v} must carry a smaller label")
        self._parent = {v: parent[v] for v in self._labels[1:]}

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def parent(self) -> Mapping[int, int]:
        return MappingProxyType(self._parent)

    @property
    def root(self) -> int:
        return self._labels[0]

    def __len__(self) -> int:
        return len(self._labels)

    def _key(self):
        return (self._labels, tuple(self._parent[v] for v in self._labels[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncreasingTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IncreasingTree({list(self._labels)}, {self._parent})"

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self._labels),
            "parent": {str(v): self._parent[v] for v in self._labels[1:]},
        }

    def to_dot(self, graph_name: str = "increasing_tree") -> str:
        """Edges parent -> child, children declared in ascending label
        order per parent so renderers draw them left to right."""
        lines = [f"digraph {graph_name} {{", "  ordering=out;"]
        for v in self._labels:
            lines.append(f"  {v};")
        for v in self._labels[1:]:
            lines.append(f"  {self._parent[v]} -> {v};")
        lines.append("}")
        return "\n".join(lines)


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


def enumerate_increasing(labels: Iterable[int]) -> Iterator[IncreasingTree]:
    """Yield increasing trees on the given labels in enumeration order."""
    labs = _clean_labels(labels)
    for pv in parent_vectors(len(labs)):
        yield IncreasingTree(labs, {labs[j]: labs[p] for j, p in enumerate(pv, 1)})


def _parent_positions(t: IncreasingTree) -> tuple:
    """The parent-position vector of t, as parent_vectors yields it."""
    pos = {v: i for i, v in enumerate(t.labels)}
    return tuple(pos[t.parent[v]] for v in t.labels[1:])


class CayleyTree:
    """Unrooted labelled tree on {1..r}, stored as a sorted edge list."""

    __slots__ = ("_vertices", "_edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]]):
        self._vertices = _clean_labels(vertices)
        vset = set(self._vertices)
        norm = []
        for e in edges:
            a, b = e
            if not (_is_int(a) and _is_int(b)) or a == b or a not in vset or b not in vset:
                raise ValueError(f"bad edge {e!r}")
            norm.append((a, b) if a < b else (b, a))
        norm.sort()
        if len(set(norm)) != len(norm):
            raise ValueError("repeated edge")
        if len(norm) != len(self._vertices) - 1:
            raise ValueError(
                f"{len(self._vertices)} vertices need {len(self._vertices) - 1} edges, "
                f"got {len(norm)}"
            )
        adj: dict[int, list[int]] = {v: [] for v in self._vertices}
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self._vertices[0]}
        stack = [self._vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self._vertices):
            raise ValueError("edge list is not connected")
        self._edges = tuple(norm)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CayleyTree):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"CayleyTree({list(self._vertices)}, {[list(e) for e in self._edges]})"

    def to_json_dict(self) -> dict:
        """{"r": …, "edges": …} on vertex set {1..r}; general vertex sets
        carry an explicit "vertices" list instead."""
        n = len(self._vertices)
        edges = [list(e) for e in self._edges]
        if self._vertices == tuple(range(1, n + 1)):
            return {"r": n, "edges": edges}
        return {"vertices": list(self._vertices), "edges": edges}

    def to_dot(self, graph_name: str = "cayley_tree") -> str:
        lines = [f"graph {graph_name} {{"]
        for v in self._vertices:
            lines.append(f"  {v};")
        for a, b in self._edges:
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines)


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
    """Edge lists of all r^(r-2) labelled trees on {1..r}, r >= 2, in
    Pruefer-lexicographic order, as prufer_edges decodes them."""
    if r < 2:
        raise ValueError("Pruefer codes need at least two vertices")
    return map(prufer_edges, itertools.product(range(1, r + 1), repeat=r - 2))


def enumerate_cayley(r: int) -> Iterator[CayleyTree]:
    """Yield all labelled trees on {1..r} in Pruefer-lexicographic order."""
    _check_int(r)
    if r == 1:
        yield CayleyTree([1], [])
        return
    for edges in cayley_edge_lists(r):
        yield CayleyTree(range(1, r + 1), edges)


class BinaryTree:
    """Non-empty rooted binary shape; children are BinaryTree or None."""

    __slots__ = ("left", "right", "size")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        for c in (left, right):
            if c is not None and not isinstance(c, BinaryTree):
                raise TypeError("children must be BinaryTree or None")
        self.left = left
        self.right = right
        self.size = 1 + (left.size if left else 0) + (right.size if right else 0)

    def _key(self):
        return (
            self.left._key() if self.left else None,
            self.right._key() if self.right else None,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"BinaryTree(size={self.size})"


def enumerate_binary(n: int) -> Iterator["BinaryTree | None"]:
    """Yield all binary shapes with n vertices, left subtree size ascending.

    The shapes of every size up to n are built once per call, each
    from the smaller ones, and shared as subtrees of the larger.
    """
    _check_int(n, 0)
    shapes: list[tuple] = [(None,)]
    for m in range(1, n + 1):
        shapes.append(
            tuple(
                BinaryTree(left, right)
                for left_size in range(m)
                for left in shapes[left_size]
                for right in shapes[m - 1 - left_size]
            )
        )
    return iter(shapes[n])


def binary_to_json_dict(t: "BinaryTree | None") -> "dict | None":
    """Nested {"left": …, "right": …} objects; the empty shape is None."""
    if t is None:
        return None
    return {"left": binary_to_json_dict(t.left), "right": binary_to_json_dict(t.right)}


def binary_to_dot(t: "BinaryTree | None", graph_name: str = "binary_tree") -> str:
    lines = [f"digraph {graph_name} {{"]
    counter = [0]

    def walk(node) -> int:
        my_id = counter[0]
        counter[0] += 1
        lines.append(f"  n{my_id};")
        if node.left:
            cid = walk(node.left)
            lines.append(f'  n{my_id} -> n{cid} [label="L"];')
        if node.right:
            cid = walk(node.right)
            lines.append(f'  n{my_id} -> n{cid} [label="R"];')
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
    for v, w in sorted([(a, b) if a < b else (b, a) for a, b in edges], reverse=True):
        while parent[w]:
            w = parent[w]
        parent[w] = v
    return tuple(p - 1 for p in parent[2:])

