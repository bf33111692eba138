"""Brute-force references that tests hold hooklab's fast paths to.

No `hooklab verify` or `enumerate` run reaches these; each builds its
answer the slow, direct way.  Trees come in the encodings of
hooklab.trees: an increasing tree as (labels, pv), its sorted labels
and its parent-position vector; a binary shape as nested (left, right)
tuples with None for the empty shape; a labelled tree on {1..r} as an
edge list.  A partition comes as in hooklab.kerov, a weakly decreasing
tuple of positive ints, and a permutation of 0..n-1 as its images.

* increasing_trees(labels) lists the (labels, pv) of the trees on any
  label set, for the references below.
* tree_weight(labels, pv, ambient) expands one tree's hook weight.
  Summed over the trees, it checks the one-sum-per-size recursion of
  hook_weight_sum and tree_weight_sum; its top homogeneous part checks
  the top_only weights.
* split_at_second_min(labels, pv) and grafting_law_sides(labels, pv,
  ambient) split a tree into host and shoot and expand both sides of
  the grafting law: they check recurrences.grafting_law_holds, which
  decides on factored weights.
* shape_classes(n) groups the (n-1)! increasing trees by unordered
  shape: it checks trees.rooted_shapes and the automorphism counts.
* subtree_sizes(t) lists a binary shape's hooks: it checks the split
  sums of binary_hook_sum and binary_reciprocal_hook_sum shape by shape.
* prufer_encode(edges) reads off a tree's Pruefer sequence: it checks
  prufer_edges and the order of cayley_edge_lists.
* factorization_counts_by_type(mu) builds every long cycle and keys
  the count of each cycle type of the first factor by its partition
  tuple: it checks the pruned walk of kerov.count_factorizations and,
  type by type, kerov.bedard_goupil.  Sizes past FACTORIZATION_BOUND
  are refused.
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


def increasing_trees(labels) -> Iterator[tuple]:
    """(labels, pv) of each increasing tree on the given labels, sorted,
    in the order of trees.parent_vectors."""
    labels = tuple(sorted(labels))
    return ((labels, pv) for pv in tr.parent_vectors(len(labels)))


def tree_weight(labels: tuple, pv: tuple, ambient: int | None = None) -> MultiPoly:
    """Expanded hook weight of the increasing tree on the sorted labels
    with parent vector pv.

    The ambient variable count defaults to the largest label; passing
    it explicitly keeps subtree weights of a split comparable.
    """
    ambient = hf._resolve_ambient(labels, ambient)
    units = hf._label_keys(labels, ambient)
    return MultiPoly._raw(ambient, hf._weight_terms(units, pv))


def split_at_second_min(labels: tuple, pv: tuple) -> tuple:
    """Cut the edge above the second-smallest label.

    Returns (host, shoot), each as (labels, parent vector): shoot is the
    subtree rooted at the second-smallest label (whose parent is always
    the root, since no other label is small enough), host is what
    remains.  Hanging shoot's root under host's root restores the
    original tree.
    """
    if not pv:
        raise ValueError("need at least two vertices to split")
    shoot_set = set(tr.subtree_totals([(v,) for v in labels], pv)[1])
    parent = {labels[j]: labels[p] for j, p in enumerate(pv, 1)}

    def part(inside: bool) -> tuple:
        sub = [v for v in labels if (v in shoot_set) is inside]
        at = {v: i for i, v in enumerate(sub)}
        return tuple(sub), tuple(at[parent[v]] for v in sub[1:])

    return part(False), part(True)


def grafting_law_sides(labels: tuple, pv: tuple, ambient: int | None = None) -> tuple:
    """One tree's weight against the product form over its split.

    Splitting t above its second-smallest label leaves host and shoot;
    the weight of t is the product of their weights times the factor
    the new edge contributes,

        k_(host root) * (K_(shoot labels) - |shoot| + 1),

    because the shoot hangs under the host's root and so disturbs no
    other vertex's subtree.
    """
    if ambient is None:
        ambient = labels[-1]
    host, shoot = split_at_second_min(labels, pv)
    edge = rc._var(ambient, host[0][0]) * hf._hook_factor(ambient, shoot[0])
    lhs = tree_weight(labels, pv, ambient)
    rhs = tree_weight(*host, ambient) * tree_weight(*shoot, ambient) * edge
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


def subtree_sizes(t: "tuple | None") -> tuple:
    """Subtree sizes of a binary shape in preorder; empty tuple for the
    empty shape.  Each vertex adds one entry, so a subtree's size is the
    length of its own list."""
    if t is None:
        return ()
    left, right = subtree_sizes(t[0]), subtree_sizes(t[1])
    return (1 + len(left) + len(right), *left, *right)


def prufer_encode(edges: Sequence) -> tuple:
    """Pruefer sequence of the tree on {1..r} with the given r-1 edges,
    r >= 2 (length r-2)."""
    r = len(edges) + 1
    if r < 2:
        raise ValueError("Pruefer codes need at least two vertices")
    vertices = range(1, r + 1)
    adj: dict = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    deg = {v: len(adj[v]) for v in vertices}
    seq = []
    for _ in range(r - 2):
        leaf = min(v for v in vertices if deg[v] == 1)
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


def factorization_counts_by_type(mu: tuple) -> Mapping:
    """All pairs (s1, s2) with s1*s2 = sigma and s2 an n-cycle, grouped
    by the cycle type of s1, a partition tuple.

    No cycle-count filter: the full distribution comes back, so the
    per-type closed formula can be checked type by type and the
    filtered total recovered by restricting to types of length j-1.
    Every long cycle is built in full, so sizes past FACTORIZATION_BOUND
    are refused before the first.
    """
    kv._check_partition(mu)
    n = sum(mu)
    if n > FACTORIZATION_BOUND:
        raise ValueError(f"long-cycle enumeration is capped at size {FACTORIZATION_BOUND}")
    sigma = kv.block_cycle_permutation(mu)
    out: dict = {}
    for compose in _inverse_long_cycles(n):
        key = tuple(sorted(_cycle_sizes(compose(sigma)), reverse=True))
        out[key] = out.get(key, 0) + 1
    kv._check_coverage(sum(out.values()), n)
    return out
