"""Hook weights on trees and the summation identities built from them.

The central object is the weight of an unordered increasing tree T on a
label set inside the ambient variable ring k_1..k_r: every non-root
vertex v with father f(v) contributes the factor

    k_{f(v)} * ( sum of k_u over the subtree rooted at v
                 - subtree size + 1 ).

Summed over all increasing trees on {1..r}, these weights collapse to
the closed product k_1...k_r * (K-1)_(r-2) with K = k_1+...+k_r; the
r = 1 sum is the empty product 1, which is what the closed form is
taken to mean there.  Everything else in this module is a specialization
or companion of that identity:

* setting every k_i to x+1 turns the weight sum into the univariate
  hook-product identity over increasing trees;
* the analogous univariate identity over binary shapes, with each shape
  weighted by its count of increasing labellings, n!/prod(h); for
  unordered trees that count is certified shape by shape against a
  linear-extension count (linear_extension_check), with the shapes
  grouped by hooklab.trees.shape_classes;
* dropping each factor's constant gives the top-degree weight, whose
  sum over trees reproduces the degree-refined count of labelled
  unrooted trees, with the collapse map from unrooted trees providing
  the fiber-by-fiber refinement.

Identity functions return both sides and never assert; callers compare.
Label ℓ always binds to variable index ℓ-1 of the ambient ring, so
subtree weights over split label sets multiply without reindexing.

The sums over increasing trees are not expanded tree by tree: the
pending-subtree sweep (_pending_sweep) chooses parents from the largest
label down and adds the partial products of all choice sequences that
leave the same subtrees pending, so most of the (n-1)! products are
shared.  Every sweep here runs in one process, the Cayley degree sum
included: one pass over the edge lists that the Prüfer sequences decode
to, in order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping

from hooklab._kernel_py import (
    FIELD_MAX,
    addmul_terms,
    check_fields,
    iadd_terms,
    mul_terms,
    pack,
    scale_terms,
    unit,
)
from hooklab.multipoly import MultiPoly, Var, falling_factorial, specialize
from hooklab.trees import (
    IncreasingTree,
    _clean_labels,
    _parent_positions,
    cayley_edge_lists,
    degree_vector,
    enumerate_binary,
    enumerate_cayley,
    increasing_from_cayley,
    subtree_sizes,
    subtree_totals,
)

__all__ = [
    "binary_hook_sum",
    "binary_reciprocal_hook_sum",
    "cayley_degree_identity",
    "cayley_fiber_sums",
    "hook_weight_closed_form",
    "hook_weight_sum",
    "increasing_hook_sum",
    "linear_extension_check",
    "subset_closed_form",
    "top_weight",
    "top_weight_sum",
    "tree_weight",
    "tree_weight_sum",
    "uniform_chain_sides",
]

LINEAR_EXTENSION_BOUND = 9


def _label_keys(labels, ambient: int) -> list:
    """Packed key of the variable k_l of each label l in the ambient ring.

    The root-side monomial of a weight raises k_l to the number of
    children of l, at most len(labels) - 1, which must fit a key field.
    """
    if len(labels) - 1 > FIELD_MAX:
        raise OverflowError(f"a tree on {len(labels)} vertices overflows a key field")
    return [unit(ambient, l - 1) for l in labels]


def _ksum(ambient: int, labels) -> MultiPoly:
    """K_X, the sum of the variables of the labels X; zero for no labels."""
    return MultiPoly._raw(ambient, dict.fromkeys(_label_keys(labels, ambient), 1))


def _kprod(ambient: int, labels) -> MultiPoly:
    """k_X, the product of the variables of the labels X."""
    return MultiPoly._raw(ambient, {sum(_label_keys(labels, ambient)): 1})


def _linear_factor(keys, top_only: bool = False) -> dict:
    """Term map of K_S - |S| + 1 for a subtree S given by its variable keys.

    With top_only the constant is dropped, leaving the bare K_S; a
    single vertex has no constant either way.
    """
    lin = dict.fromkeys(keys, 1)
    if not top_only and len(keys) != 1:
        lin[0] = 1 - len(keys)
    return lin


def _hook_factor(ambient: int, labels) -> MultiPoly:
    """K_S - |S| + 1 for a subtree S given by its labels: the factor an
    edge into S contributes besides the variable of its upper end."""
    return MultiPoly._raw(ambient, _linear_factor(_label_keys(labels, ambient)))


def _weight_terms(units, pv, top_only: bool = False) -> dict:
    """Packed term map of the weight of one tree, given parent positions.

    units[j] is the key of the variable of the j-th smallest label (see
    _label_keys); pv[j-1] is the position of the father of that label.
    With top_only the constant in each linear factor is dropped, which
    yields exactly the terms of maximal total degree.
    """
    mono = 0
    for p in pv:
        mono += units[p]
    factors = [
        _linear_factor(keys, top_only)
        for keys in subtree_totals([(u,) for u in units], pv)[1:]
    ]
    factors.sort(key=len)
    acc = {mono: 1}
    for f in factors:
        acc = mul_terms(acc, f)
    return acc


def _parent_choices(j: int) -> range:
    """Parent positions open to the vertex at position j: every smaller one.

    A function of its own so that a test can drop or double a branch.
    """
    return range(j)


def _pending_sweep(shifts, factor) -> dict:
    """Sum over increasing trees on n = len(shifts) positions of the
    product, over every non-root position v with parent position p, of
    shifts[p] (a key: the monomial k_p, or 0 for none) times
    factor(S_v), S_v being v's subtree as a bit mask of positions.

    Parents are chosen from the largest label down, and once v's parent
    is chosen every factor still to come depends only on the pending
    sets, the positions hanging below each of 0..v-1.  Choice sequences
    ending in the same pending sets are therefore added before
    multiplying further: one merged state per pending tuple, holding a
    partial sum and the count of trees merged into it.  Merging goes on
    down to position 2; the last factor then depends on the set below
    position 1 alone, and multiplies each state of that last level once.

    A level is built one state at a time, each from every state that
    reaches it, and a state of the level before is dropped after its
    last use; the states of the last level are finished as they are
    built.  The states handed from one level to the next share their
    keys, one int per distinct monomial: at n = 9 the 75,996 terms of
    the level before the last have 4,081 distinct keys.  So the peak
    memory stays below that of the level before the last built alone.

    Raises RuntimeError unless the states covered exactly the (n-1)!
    trees, and OverflowError when an exponent overflows its key field.
    Every state is checked before it is multiplied, and so is the
    result: between two guard checks no field grows by more than 2, one
    shift and one factor, so a field can set its guard bit but never
    carry into the next one.
    """
    n = len(shifts)
    if n == 1:
        return {0: 1}

    def merged(level: dict, j: int):
        """The states left once position j has its parent, each yielded
        as soon as it is built; consumes level."""
        feeds: dict = {}  # new pending tuple -> [(old pending tuple, parent)]
        uses: dict = {}
        for pend, (poly, _) in level.items():
            check_fields(poly)
            sub = pend[j] | 1 << j
            for p in _parent_choices(j):
                moved = pend[:p] + (pend[p] | sub,) + pend[p + 1 : j]
                feeds.setdefault(moved, []).append((pend, p))
                uses[pend] = uses.get(pend, 0) + 1
        for moved, sources in feeds.items():
            poly, count = {}, 0
            for pend, p in sources:
                part, part_count = level[pend]
                lin = factor(pend[j] | 1 << j)
                addmul_terms(poly, part, {e + shifts[p]: c for e, c in lin.items()})
                count += part_count
                uses[pend] -= 1
                if not uses[pend]:
                    del level[pend]
            yield moved, (poly, count)

    keep = {}.setdefault  # the one key object of each monomial
    acc: dict = {}
    trees = 0
    states = [((0,) * n, ({0: 1}, 1))]
    for j in range(n - 1, 1, -1):
        level = {
            pend: ({keep(e, e): c for e, c in poly.items()}, count)
            for pend, (poly, count) in states
        }
        states = merged(level, j)
    for pend, (poly, count) in states:
        check_fields(poly)
        last = factor(pend[1] | 1 << 1)
        for p in _parent_choices(1):
            addmul_terms(acc, poly, {e + shifts[p]: c for e, c in last.items()})
            trees += count
    expected = factorial(n - 1)
    if trees != expected:
        raise RuntimeError(f"the sweep covered {trees} trees, expected {expected}")
    return check_fields(acc)


def _resolve_ambient(labels: tuple, ambient: int | None) -> int:
    """ambient, or the largest of the sorted labels when it is None;
    refuses a label with no variable among the ambient ones."""
    if ambient is None:
        return labels[-1]
    if labels[-1] > ambient:
        raise ValueError(
            f"ambient ring with {ambient} variables cannot hold label {labels[-1]}"
        )
    return ambient


def tree_weight(t: IncreasingTree, ambient: int | None = None) -> MultiPoly:
    """Expanded hook weight of one increasing tree.

    The ambient variable count defaults to the largest label; passing
    it explicitly keeps subtree weights of a split comparable.
    """
    ambient = _resolve_ambient(t.labels, ambient)
    units = _label_keys(t.labels, ambient)
    return MultiPoly._raw(ambient, _weight_terms(units, _parent_positions(t)))


def top_weight(t: IncreasingTree, ambient: int | None = None) -> MultiPoly:
    """Top-degree part of the hook weight, computed directly.

    Each non-root vertex contributes k_{f(v)} times the bare subtree
    k-sum.  Summed over a fiber of the collapse map this is the degree
    generating monomial total, and it coincides with taking the top
    homogeneous component of tree_weight.
    """
    ambient = _resolve_ambient(t.labels, ambient)
    units = _label_keys(t.labels, ambient)
    return MultiPoly._raw(ambient, _weight_terms(units, _parent_positions(t), top_only=True))


def _weight_sum(labels: tuple, ambient: int, top_only: bool) -> dict:
    """Summed weights of the trees on a label set, by the pending-subtree sweep.

    With top_only the constant of every linear factor is dropped.
    """
    units = _label_keys(labels, ambient)

    @lru_cache(maxsize=None)
    def factor(mask: int) -> dict:
        keys = [u for j, u in enumerate(units) if mask >> j & 1]
        return _linear_factor(keys, top_only)

    return _pending_sweep(units, factor)


@lru_cache(maxsize=None)
def _swept(labels: tuple, ambient: int) -> MultiPoly:
    """The weight sum of tree_weight_sum, on labels it has checked."""
    return MultiPoly._raw(ambient, _weight_sum(labels, ambient, False))


def tree_weight_sum(labels: tuple, ambient: int) -> MultiPoly:
    """Sum of hook weights over all increasing trees on a label set.

    Cached: the splitting recurrences evaluate it on many overlapping
    subsets.  labels must be distinct positive ints, at most ambient.
    """
    labels = _clean_labels(labels)
    _resolve_ambient(labels, ambient)
    return _swept(labels, ambient)


tree_weight_sum.cache_info = _swept.cache_info
tree_weight_sum.cache_clear = _swept.cache_clear


def hook_weight_sum(r: int) -> MultiPoly:
    """Left side of the main identity: sum of weights over all trees on {1..r}."""
    return tree_weight_sum(tuple(range(1, r + 1)), r)


def subset_closed_form(labels: Iterable[int], ambient: int) -> MultiPoly:
    """Closed form of the tree weight sum on a label set X: k_X * (K_X - 1)_(|X|-2).

    At a single label the falling factorial index would be negative;
    the convention there is that the whole product collapses to 1,
    matching the single-vertex tree of weight 1, so that constant is
    returned directly.  Labels are checked like tree_weight_sum's.
    """
    labels = _clean_labels(labels)
    _resolve_ambient(labels, ambient)
    if len(labels) == 1:
        return MultiPoly.const(ambient, 1)
    k_minus_1 = _ksum(ambient, labels) - 1
    return _kprod(ambient, labels) * falling_factorial(k_minus_1, len(labels) - 2)


def hook_weight_closed_form(r: int) -> MultiPoly:
    """Right side of the main identity: k_1...k_r * (K-1)_(r-2)."""
    return subset_closed_form(range(1, r + 1), r)


def increasing_hook_sum(r: int) -> tuple:
    """Both sides of the univariate hook identity over increasing trees.

    lhs: sum over trees of the product of (x*h + 1) over every vertex,
    root included.  rhs: (x+1) * prod_{i=1}^{r-1} (x*r + i).
    """
    if r < 1:
        raise ValueError("need at least one vertex")

    def factor(mask: int) -> dict:
        return {1: mask.bit_count(), 0: 1}

    acc = _pending_sweep([0] * r, factor)
    acc = mul_terms(acc, {1: r, 0: 1})
    lhs = MultiPoly._raw(1, acc)
    x = MultiPoly.variable(1, 0)
    rhs = x + 1
    for i in range(1, r):
        rhs = rhs * (r * x + i)
    return lhs, rhs


def uniform_chain_sides(r: int, lhs_uni: MultiPoly | None = None) -> tuple:
    """The univariate identity rederived from the multivariate sum.

    Setting every k_i to the same k in the weight turns each factor
    into k((k-1)h+1); with x = k-1 the per-tree product differs from
    prod (x*h+1) by the root factor (x*r+1) against k^(r-1) = (x+1)^(r-1).
    Cross-multiplying keeps everything polynomial:

        lhs_univariate * (x+1)^(r-1)  ==  weight_sum|_{k_i=x+1} * (x*r+1).

    Returns that pair; equality certifies the derivation chain.
    lhs_univariate is the lhs of increasing_hook_sum(r), computed here
    unless the caller passes the one it already has as lhs_uni.
    """
    if lhs_uni is None:
        lhs_uni, _ = increasing_hook_sum(r)
    x = MultiPoly.variable(1, 0)
    left = lhs_uni * (x + 1) ** (r - 1)
    collapsed = specialize(
        hook_weight_sum(r), {i: Var(0) for i in range(r)}
    )
    right = collapsed.substitute([x + 1], 1) * (r * x + 1)
    return left, right


def binary_hook_sum(n: int) -> tuple:
    """Both sides of the univariate hook identity over binary shapes.

    Each shape stands in for its increasing labellings: the shape's
    product of (x*h + 1) is scaled by n!/prod(h), the labelling count.
    rhs: prod_{i=0}^{n-1} ((n+1+i)x + n+1-i) divided by n+1; the
    division is exact once the product is expanded.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    nfact = factorial(n)
    acc: dict = {}
    for shape in enumerate_binary(n):
        sizes = subtree_sizes(shape)
        prod_h = 1
        term = {0: 1}
        for h in sizes:
            prod_h *= h
            term = mul_terms(term, {1: h, 0: 1})
        count, rem = divmod(nfact, prod_h)
        if rem:
            raise ValueError(f"hook product {prod_h} does not divide {n}!")
        iadd_terms(acc, scale_terms(term, count))
    lhs = MultiPoly._raw(1, acc)
    x = MultiPoly.variable(1, 0)
    rhs = MultiPoly.const(1, Fraction(1, n + 1))
    for i in range(n):
        rhs = rhs * ((n + 1 + i) * x + (n + 1 - i))
    return lhs, rhs


def binary_reciprocal_hook_sum(n: int) -> Fraction:
    """Sum over binary shapes of the product of 1/h; the identity says 1."""
    if n < 1:
        raise ValueError("size must be at least 1")
    total = Fraction(0)
    for shape in enumerate_binary(n):
        total += Fraction(1, prod(subtree_sizes(shape)))
    return total


def _lext_count(pv) -> int:
    """Number of linear extensions of a tree poset, given parent positions.

    The frontier, the unplaced vertices whose parent is placed,
    determines every vertex still to place, so the count is memoised on
    the frontier as a bit mask; the memo lives for one call.
    """
    kids = [0] * (len(pv) + 1)
    for j, p in enumerate(pv, 1):
        kids[p] |= 1 << j

    @lru_cache(maxsize=None)
    def count(frontier: int) -> int:
        if not frontier:
            return 1
        places = (v for v in range(len(kids)) if frontier >> v & 1)
        return sum(count(frontier ^ 1 << v | kids[v]) for v in places)

    return count(1)


def linear_extension_check(t: IncreasingTree) -> tuple:
    """Labelling count of one tree against its hook quotient.

    Returns (extension count, |T|!/prod of hook sizes); the classical
    formula says they match.  The quotient is checked to divide
    exactly.  The count places the vertices one at a time, memoised on
    the set of vertices ready to place, so its cost follows the number
    of such frontiers (at most 2^|T|); the size bound keeps that small.
    """
    n = len(t)
    if n > LINEAR_EXTENSION_BOUND:
        raise ValueError(
            f"exhaustive labelling count is capped at {LINEAR_EXTENSION_BOUND} vertices"
        )
    pv = _parent_positions(t)
    lext = _lext_count(pv)
    prod_h = prod(subtree_totals([1] * n, pv))
    quotient, rem = divmod(factorial(n), prod_h)
    if rem:
        raise ValueError(f"hook product {prod_h} does not divide {n}!")
    return lext, quotient


def cayley_fiber_sums(r: int) -> Mapping:
    """Degree-monomial sums of every fiber of the collapse map on {1..r}.

    One pass over all labelled unrooted trees, grouped by forward
    image.  The keys are exactly the increasing trees on {1..r} (the
    map is onto), and the values sum the monomial prod k_v^(degree of v)
    over each group.
    """
    if r < 1:
        raise ValueError("need at least one vertex")
    groups: dict = {}
    for u in enumerate_cayley(r):
        image = increasing_from_cayley(u)
        key = pack(degree_vector(u))
        acc = groups.setdefault(image, {})
        acc[key] = acc.get(key, 0) + 1
    return {t: MultiPoly._raw(r, terms) for t, terms in groups.items()}


def cayley_degree_identity(r: int) -> tuple:
    """Both sides of the degree-refined count of labelled unrooted trees.

    lhs: sum of prod k_v^(deg v) over all r^(r-2) trees.  rhs:
    k_1...k_r * K^(r-2).  This is also the top-degree shadow of the
    main identity, which top_weight_sum cross-checks.

    The lhs reads the edge lists that the Pruefer decoder yields, in
    Pruefer-lexicographic order, and builds no tree object: a monomial
    key is the sum of its variables' keys, so each edge adds the key of
    k_v for both of its endpoints v.
    """
    if r < 2:
        raise ValueError("need at least two vertices")
    units = [0, *(unit(r, v) for v in range(r))]  # units[v]: key of k_v
    acc: dict = {}
    for edges in cayley_edge_lists(r):
        key = 0
        for a, b in edges:
            key += units[a] + units[b]
        acc[key] = acc.get(key, 0) + 1
    lhs = MultiPoly._raw(r, acc)
    rhs = _kprod(r, range(1, r + 1)) * _ksum(r, range(1, r + 1)) ** (r - 2)
    return lhs, rhs


def top_weight_sum(r: int) -> MultiPoly:
    """Sum of top-degree weights over all increasing trees on {1..r}."""
    labels = _clean_labels(range(1, r + 1))
    return MultiPoly._raw(r, _weight_sum(labels, r, True))
