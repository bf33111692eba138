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

The sums over increasing trees are not expanded tree by tree.  The
root's subtree B that holds the largest label splits a tree on X into
a tree on B and one on X without B, so the sum on X is

    sum over B of k_root * (K_B - |B| + 1) * W(B) * W(X without B),

and W(B), W(X without B) are the sums on {1..|B|} and {1..|X|-|B|}
relabelled in order (_split_sum, _swept): one sum is built per size,
and the sum on any label set is a relabelled copy.  Every sweep here
runs in one process, the Cayley degree sum and the fiber sums included:
one pass over the edge lists that the Prüfer sequences decode to, in
order.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping

from hooklab._kernel_py import (
    _FIELD_CODE,
    FIELD_MAX,
    WIDTH,
    addmul_terms,
    check_fields,
    iadd_terms,
    mul_terms,
    scale_terms,
    unit,
)
from hooklab.multipoly import MultiPoly, Var, falling_factorial, specialize
from hooklab.trees import (
    IncreasingTree,
    _clean_labels,
    _collapse,
    _parent_positions,
    cayley_edge_lists,
    enumerate_binary,
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


def _weight_factors(units, pv, top_only: bool = False) -> tuple:
    """The weight of one tree, given parent positions, as (monomial key,
    one _linear_factor map per non-root subtree) to multiply together.

    units[j] is the key of the variable of the j-th smallest label (see
    _label_keys); pv[j-1] is the position of the father of that label.
    With top_only the constant in each linear factor is dropped.
    """
    mono = 0
    for p in pv:
        mono += units[p]
    factors = [
        _linear_factor(keys, top_only)
        for keys in subtree_totals([(u,) for u in units], pv)[1:]
    ]
    return mono, factors


def _weight_terms(units, pv, top_only: bool = False) -> dict:
    """Packed term map of the weight of one tree, given parent positions:
    _weight_factors multiplied out, shortest factors first.  With
    top_only that yields exactly the terms of maximal total degree.
    """
    mono, factors = _weight_factors(units, pv, top_only)
    factors.sort(key=len)
    acc = {mono: 1}
    for f in factors:
        acc = mul_terms(acc, f)
    return acc


def _subtree_choices(n: int):
    """The positions of the root's subtree that holds the last of the
    positions 0..n-1: each subset of 1..n-1 holding n-1, sorted.  A
    function of its own so that a test can drop or double a choice."""
    for mask in range(1 << n - 2):
        yield (*(j for j in range(1, n - 1) if mask >> j - 1 & 1), n - 1)


def _split_sum(n: int, planted, below) -> dict:
    """Sum over the increasing trees on the positions 0..n-1, split at the
    root's subtree B that holds n-1: each tree is one tree on B, hung
    from the root, and one on the rest R.  planted(B) sums the trees on
    B times the edge into B, below(R) the trees on R times what that
    edge adds at the root.

    Raises RuntimeError unless the choices covered the (n-1)! trees,
    (|B|-1)! (|R|-1)! for each B, and OverflowError when an exponent
    overflows its key field: a product adds two keys with no field past
    2**(WIDTH-1), so none carries into the next before the final check.
    """
    acc: dict = {}
    trees = 0
    for sub in _subtree_choices(n):
        rest = tuple(p for p in range(n) if p not in sub)
        addmul_terms(acc, planted(sub), below(rest))
        trees += factorial(len(sub) - 1) * factorial(len(rest) - 1)
    if trees != factorial(n - 1):
        raise RuntimeError(f"the split covered {trees} trees, expected {factorial(n - 1)}")
    return check_fields(acc)


def _edge_factor(size: int, top_only: bool) -> dict:
    """K - size + 1 in a ring of size variables: the recursion's edge
    factor, apart so that a test can change its constant alone."""
    return _linear_factor([unit(size, j) for j in range(size)], top_only)


@lru_cache(maxsize=None)
def _swept(top_only: bool, size: int) -> dict:
    """Term map of the weight sum over the trees on {1..size} in a ring
    of size variables: the one cached sum per size, never changed.

    _split_sum builds it from the sums of the smaller sizes, each
    multiplied and packed once per size and relabelled per choice.  The
    split is at the largest label; grafting/split splits at the second
    smallest and root-recurrence groups all of the root's subtrees, so
    neither restates this sum.  With the constant 1 - |B| of
    _edge_factor changed to 2 - |B|, theorem1, grafting/split and
    root-recurrence fail at every r from 3 to 6; pq, on closed forms
    only, passes.
    """
    if size == 1:
        return {0: 1}
    parts: dict = {}

    def part(positions: tuple, planted: bool) -> dict:
        m = len(positions)
        if (m, planted) not in parts:
            terms = _swept(top_only, m)
            if planted:
                terms = mul_terms(terms, _edge_factor(m, top_only))
            parts[m, planted] = _packed(terms, m)
        return _relabel(*parts[m, planted], positions, size, 0 if planted else unit(size, 0))

    return _split_sum(size, lambda sub: part(sub, True), lambda rest: part(rest, False))


def _packed(terms: dict, nvars: int) -> tuple:
    """(terms, rows), the rows holding the exponents of each key in term
    map order as WIDTH-bit fields, all in one bytes buffer."""
    return terms, b"".join(e.to_bytes(WIDTH // 8 * nvars, "big") for e in terms)


def _relabel(terms: dict, rows: bytes, positions, nvars: int, shift: int = 0) -> dict:
    """Term map of a _packed map with its variable j moved to the sorted
    position positions[j] of a ring of nvars variables, plus shift."""
    buf = bytearray(len(rows) // len(positions) * nvars)
    out, src = memoryview(buf).cast(_FIELD_CODE), memoryview(rows).cast(_FIELD_CODE)
    for j, p in enumerate(positions):
        out[p::nvars] = src[j :: len(positions)]
    packed = struct.iter_unpack(f"{out.itemsize * nvars}s", buf)
    keys = (int.from_bytes(k, "big") + shift for k, in packed)
    return dict(zip(keys, terms.values()))


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
    """Summed weights of the trees on sorted labels: the sum on
    {1..len(labels)} relabelled in order.  With top_only the constant of
    every linear factor is dropped.  On all of {1..ambient} that is the
    cached map itself.
    """
    n = len(labels)
    if n == ambient:
        return _swept(top_only, n)
    return _relabel(*_packed(_swept(top_only, n), n), [l - 1 for l in labels], ambient)


def tree_weight_sum(labels: tuple, ambient: int) -> MultiPoly:
    """Sum of hook weights over all increasing trees on a label set.

    The sum on {1..n} for n labels, relabelled: the splitting
    recurrences evaluate it on many overlapping subsets, and only the
    one sum per size is cached.  labels must be distinct positive ints,
    at most ambient.
    """
    labels = _clean_labels(labels)
    _resolve_ambient(labels, ambient)
    return MultiPoly._raw(ambient, _weight_sum(labels, ambient, False))


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

    # whole[n]: the sum over trees on n vertices of the factors of the
    # non-root ones; planted[n]: that times the root's factor x*n + 1
    whole, planted = [None, {0: 1}], [None, {1: 1, 0: 1}]
    for n in range(2, r + 1):
        whole.append(_split_sum(n, lambda sub: planted[len(sub)], lambda rest: whole[len(rest)]))
        planted.append(mul_terms(whole[n], {1: n, 0: 1}))
    lhs = MultiPoly._raw(1, planted[r])
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


def _degree_keys(r: int):
    """(edges, key of prod k_v^(deg v)) of each labelled tree on {1..r},
    r >= 2, from the decoded edge lists of cayley_edge_lists: each edge
    adds the key of k_v for both of its endpoints v."""
    units = [0, *(unit(r, v) for v in range(r))]  # units[v]: key of k_v
    for edges in cayley_edge_lists(r):
        key = 0
        for a, b in edges:
            key += units[a] + units[b]
        yield edges, key


def cayley_fiber_sums(r: int) -> Mapping:
    """Degree-monomial sums of every fiber of the collapse map on {1..r}.

    One pass over the edge lists of all labelled unrooted trees
    (_degree_keys), grouped by the parent vector of their image
    (trees._collapse).  The keys are exactly the parent vectors of the
    increasing trees on {1..r} (the map is onto), and the values sum the
    monomial prod k_v^(degree of v) over each group.
    """
    if r < 1:
        raise ValueError("need at least one vertex")
    if r == 1:
        return {(): MultiPoly.const(1, 1)}
    groups: dict = {}
    for edges, key in _degree_keys(r):
        acc = groups.setdefault(_collapse(r, edges), {})
        acc[key] = acc.get(key, 0) + 1
    return {pv: MultiPoly._raw(r, terms) for pv, terms in groups.items()}


def cayley_degree_identity(r: int) -> tuple:
    """Both sides of the degree-refined count of labelled unrooted trees.

    lhs: sum of prod k_v^(deg v) over all r^(r-2) trees.  rhs:
    k_1...k_r * K^(r-2).  This is also the top-degree shadow of the
    main identity, which top_weight_sum cross-checks.

    The lhs counts the degree keys of _degree_keys and builds no tree.
    """
    if r < 2:
        raise ValueError("need at least two vertices")
    acc: dict = {}
    for _, key in _degree_keys(r):
        acc[key] = acc.get(key, 0) + 1
    lhs = MultiPoly._raw(r, acc)
    rhs = _kprod(r, range(1, r + 1)) * _ksum(r, range(1, r + 1)) ** (r - 2)
    return lhs, rhs


def top_weight_sum(r: int) -> MultiPoly:
    """Sum of top-degree weights over all increasing trees on {1..r}."""
    labels = _clean_labels(range(1, r + 1))
    return MultiPoly._raw(r, _weight_sum(labels, r, True))
