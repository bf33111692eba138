"""Brute-force references that tests hold hooklab's fast paths to.

No `hooklab verify` or `enumerate` run reaches these; each builds its
answer the slow, direct way:

* tree_weight expands one tree's hook weight.  Summed over the trees,
  it checks the one-sum-per-size recursion of hook_weight_sum and
  tree_weight_sum; its top homogeneous part checks the top_only weights.
* split_at_second_min and grafting_law_sides split a tree into host and
  shoot and expand both sides of the grafting law: they check
  recurrences.grafting_law_holds, which decides on factored weights.
* shape_classes groups the (n-1)! increasing trees by unordered shape:
  it checks trees.rooted_shapes and the automorphism counts.
* subtree_sizes lists a binary shape's hooks: it checks the split sums
  of binary_hook_sum and binary_reciprocal_hook_sum shape by shape.
* prufer_encode reads off a tree's Pruefer sequence: it checks
  prufer_edges and the order of enumerate_cayley.
* factorization_counts_by_type builds every long cycle: it checks the
  pruned walk of kerov.count_factorizations and, type by type,
  kerov.bedard_goupil.  Sizes past FACTORIZATION_BOUND are refused.
"""

import itertools
import operator
from typing import Iterator, Mapping, Sequence

import hooklab.hookformula as hf
import hooklab.kerov as kv
import hooklab.recurrences as rc
import hooklab.trees as tr
from hooklab.multipoly import MultiPoly

FACTORIZATION_BOUND = 9


def tree_weight(t: tr.IncreasingTree, ambient: int | None = None) -> MultiPoly:
    """Expanded hook weight of one increasing tree.

    The ambient variable count defaults to the largest label; passing
    it explicitly keeps subtree weights of a split comparable.
    """
    ambient = hf._resolve_ambient(t.labels, ambient)
    units = hf._label_keys(t.labels, ambient)
    return MultiPoly._raw(ambient, hf._weight_terms(units, tr._parent_positions(t)))


def split_at_second_min(t: tr.IncreasingTree) -> tuple:
    """Cut the edge above the second-smallest label.

    Returns (host, shoot): shoot is the subtree rooted at the
    second-smallest label s (whose parent is always the root, since no
    other label is small enough), host is what remains.  Hanging
    shoot's root under host's root restores the original tree.
    """
    if len(t) < 2:
        raise ValueError("need at least two vertices to split")
    s = t.labels[1]
    hooks = tr.subtree_totals([(v,) for v in t.labels], tr._parent_positions(t))
    shoot_set = set(hooks[1])
    host_labels = [v for v in t.labels if v not in shoot_set]
    shoot_labels = sorted(shoot_set)
    host = tr.IncreasingTree(
        host_labels, {v: t.parent[v] for v in host_labels if v != t.root}
    )
    shoot = tr.IncreasingTree(
        shoot_labels, {v: t.parent[v] for v in shoot_labels if v != s}
    )
    return host, shoot


def grafting_law_sides(t: tr.IncreasingTree, ambient: int | None = None) -> tuple:
    """One tree's weight against the product form over its split.

    Splitting t above its second-smallest label leaves host and shoot;
    the weight of t is the product of their weights times the factor
    the new edge contributes,

        k_(host root) * (K_(shoot labels) - |shoot| + 1),

    because the shoot hangs under the host's root and so disturbs no
    other vertex's subtree.
    """
    if ambient is None:
        ambient = t.labels[-1]
    host, shoot = split_at_second_min(t)
    edge = rc._var(ambient, host.root) * hf._hook_factor(ambient, shoot.labels)
    lhs = tree_weight(t, ambient)
    rhs = tree_weight(host, ambient) * tree_weight(shoot, ambient) * edge
    return lhs, rhs


def shape_classes(n: int) -> dict:
    """The increasing trees on n labels grouped by unordered shape.

    Maps each shape's AHU key (trees._shape_key) to (first parent vector
    of that shape, number of trees of that shape), in order of first
    appearance along parent_vectors.
    """
    tr._check_int(n)
    out: dict = {}
    for pv in tr.parent_vectors(n):
        key = tr._shape_key(pv)
        first, mult = out.get(key, (pv, 0))
        out[key] = (first, mult + 1)
    return out


def subtree_sizes(t: "tr.BinaryTree | None") -> tuple:
    """Subtree sizes in preorder; empty tuple for the empty shape."""
    out: list = []

    def walk(node: "tr.BinaryTree | None") -> None:
        if node is None:
            return
        out.append(node.size)
        walk(node.left)
        walk(node.right)

    walk(t)
    return tuple(out)


def prufer_encode(u: tr.CayleyTree) -> tuple:
    """Pruefer sequence of a tree on {1..r}, r >= 2 (length r-2)."""
    r = len(u)
    if r < 2:
        raise ValueError("Pruefer codes need at least two vertices")
    if u.vertices != tuple(range(1, r + 1)):
        raise ValueError("Pruefer codec works on vertex set {1..r}")
    adj: dict = {v: set() for v in u.vertices}
    for a, b in u.edges:
        adj[a].add(b)
        adj[b].add(a)
    deg = {v: len(adj[v]) for v in u.vertices}
    seq = []
    for _ in range(r - 2):
        leaf = min(v for v in u.vertices if deg[v] == 1)
        (nb,) = adj[leaf]
        seq.append(nb)
        deg[leaf] = 0
        deg[nb] -= 1
        adj[nb].discard(leaf)
    return tuple(seq)


def _cycle_sizes(images: Sequence[int]) -> list:
    """Cycle lengths of a permutation of 0..n-1 given by its images,
    in order of each cycle's smallest element."""
    seen = 0
    sizes = []
    for start, x in enumerate(images):
        if not seen >> start & 1:
            size = 1
            while x != start:
                seen |= 1 << x
                x = images[x]
                size += 1
            sizes.append(size)
    return sizes


def _inverse_long_cycles(n: int) -> Iterator:
    """s2^(-1) for the long cycles s2 of 0..n-1, the visiting orders from 0
    in lexicographic order, each as a composer: compose(sigma) is the
    images of sigma * s2^(-1)."""
    inv = [0] * n
    for tail in itertools.permutations(range(1, n)):
        order = (0,) + tail
        for i in range(n - 1):
            inv[order[i + 1]] = order[i]
        inv[0] = order[n - 1]
        # itemgetter of one index returns the item, not a 1-tuple; the
        # one long cycle of size 1 is the identity
        yield operator.itemgetter(*inv) if n > 1 else tuple


def factorization_counts_by_type(mu: kv.IntPartition) -> Mapping:
    """All pairs (s1, s2) with s1*s2 = sigma and s2 an n-cycle, grouped
    by the cycle type of s1.

    No cycle-count filter: the full distribution comes back, so the
    per-type closed formula can be checked type by type and the
    filtered total recovered by restricting to types of length j-1.
    Every long cycle is built in full, so sizes past FACTORIZATION_BOUND
    are refused before the first.
    """
    kv._check_size(mu.size)
    if mu.size > FACTORIZATION_BOUND:
        raise ValueError(f"long-cycle enumeration is capped at size {FACTORIZATION_BOUND}")
    sigma = kv._block_images(mu)
    out: dict = {}
    for compose in _inverse_long_cycles(mu.size):
        key = kv.IntPartition(_cycle_sizes(compose(sigma)))
        out[key] = out.get(key, 0) + 1
    kv._check_coverage(sum(out.values()), mu.size)
    return out
