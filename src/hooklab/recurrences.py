"""Inductive recurrences behind the hook weight sum, verified exactly.

Two independent derivations of the closed form are mechanized here.

The first runs through grafting.  Splitting each tree at its
second-smallest label turns the weight sum over trees on {1..r} into a
sum over ordered pairs (X1, X2) partitioning {3..r} of products of
smaller sums.  Feeding the closed form into that split yields the
polynomial split_polynomial(r); the target closed_polynomial(r) is the
falling factorial itself (both with the common monomial k_1...k_r
divided out).  The two agree, and they share the two properties that
pin such a family down: the constant term in k_1, and a finite
difference equation in k_1 relating size r to size r-1.

The second runs through the root degree.  Grouping trees by the set
partition of {2..r} induced by the root's subtrees expresses the weight
sum as a partition sum (root_degree_sides); substituting the closed
form for the inner sums turns it into a pure partition identity
(lagrange_identity_sides), which is exactly what inverting the system
w_i = t_i (1 + w_1 + ... + w_r)^{k_i} predicts for the coefficient of
t_1...t_r in w_1.  An exact solver on coefficient lists indexed by
subsets plays that inversion back as an independent oracle; it settles
every coefficient in one pass, each subset after all of its subsets.

Side-returning functions never assert; comparing is the caller's job
(hooklab.cli sweeps each family).  Where a right side sums the output
of a *_summands generator, the caller may pass that output as
`summands`, so that a traced run renders and sums the same summands,
each built once.
All polynomial arithmetic is exact.
"""

from __future__ import annotations

import warnings
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from hooklab.multipoly import MultiPoly, falling_factorial
from hooklab.hookformula import (
    _hook_factor,
    _kprod,
    _ksum,
    _label_keys,
    _linear_factor,
    _weight_factors,
    hook_weight_closed_form,
    hook_weight_sum,
    tree_weight_sum,
)
from hooklab.trees import _check_int, _check_parent_vector

__all__ = [
    "closed_polynomial",
    "constant_term_sides",
    "finite_difference_sides",
    "grafting_law_holds",
    "grafting_split_sides",
    "grafting_split_summands",
    "lagrange_identity_sides",
    "lagrange_series_oracle",
    "lagrange_summands",
    "oracle_closed_form",
    "root_degree_sides",
    "root_degree_summands",
    "set_partitions",
    "split_polynomial",
    "split_summands",
]


def _var(r: int, label: int) -> MultiPoly:
    """The variable bound to a label, inside the ambient ring of size r."""
    return MultiPoly.variable(r, label - 1)


def _ordered_splits(rest: Sequence[int]) -> Iterator[tuple[tuple, tuple]]:
    """All ordered pairs (X1, X2) with X1 and X2 disjoint covering rest.

    Bitmask order on X1 membership, so the stream is deterministic.
    """
    m = len(rest)
    for mask in range(1 << m):
        x1 = tuple(rest[i] for i in range(m) if mask >> i & 1)
        x2 = tuple(rest[i] for i in range(m) if not mask >> i & 1)
        yield x1, x2


def set_partitions(items: Sequence[int]) -> Iterator[tuple]:
    """Partitions of items into unordered nonempty blocks.

    Yields each partition as a tuple of blocks (tuples).  The first
    item is anchored: a partition of the tail either receives it as a
    new singleton block or absorbs it at the front of one existing
    block, so nothing repeats and the order is deterministic.  The
    empty sequence has exactly one partition, with no blocks.
    """
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1 :]


def split_summands(r: int) -> Iterator[tuple[tuple, tuple, MultiPoly]]:
    """Per-split contributions to split_polynomial, as (X1, X2, summand).

    The X1 = empty summand is pre-simplified to its tail factor alone:
    the k1 * (k1 - 1)_(-1) it would carry cancels to 1, the one place
    the negative falling factorial convention is consumed.
    """
    if r < 2:
        raise ValueError("the split needs at least two vertices")
    k1 = _var(r, 1)
    k2 = _var(r, 2)
    for x1, x2 in _ordered_splits(range(3, r + 1)):
        tail = falling_factorial(k2 + _ksum(r, x2) - 1, len(x2))
        if x1:
            term = k1 * falling_factorial(k1 + _ksum(r, x1) - 1, len(x1) - 1) * tail
        else:
            term = tail
        yield x1, x2, term


def split_polynomial(r: int, summands: Iterable | None = None) -> MultiPoly:
    """Weight sum over trees on {1..r} divided by k_1...k_r, via the split.

    Each ordered pair (X1, X2) partitioning {3..r} contributes the
    closed forms of the two smaller sums times the new-edge factor,
    everything already divided by the full variable monomial:

        k1 * (k1 + K_X1 - 1)_(|X1|-1) * (k2 + K_X2 - 1)_(|X2|).
    """
    return MultiPoly.sum(r, (term for _, _, term in summands or split_summands(r)))


def closed_polynomial(r: int) -> MultiPoly:
    """The closed form with the variable monomial divided out: (K-1)_(r-2)."""
    if r < 2:
        raise ValueError("the closed quotient needs at least two vertices")
    return falling_factorial(_ksum(r, range(1, r + 1)) - 1, r - 2)


def constant_term_sides(
    r: int, family: Callable[[int], MultiPoly] = closed_polynomial
) -> tuple[MultiPoly, MultiPoly]:
    """family(r) at k_1 = 0 against the closed constant (K_{2..r} - 1)_(r-2).

    The constant term in k_1 is one of the two properties that
    determine the family; both split_polynomial and closed_polynomial
    must produce the same value here.
    """
    if r < 2:
        raise ValueError("need at least two vertices")
    at_zero = family(r).substitute(
        [MultiPoly.zero(r)] + [_var(r, l) for l in range(2, r + 1)], r
    )
    target = falling_factorial(_ksum(r, range(2, r + 1)) - 1, r - 2)
    return at_zero, target


def finite_difference_sides(
    r: int, family: Callable[[int], MultiPoly] = closed_polynomial
) -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the finite difference equation in k_1.

    lhs: F_r(k_1 + 1, k_2, ..., k_r) - F_r(k_1, ..., k_r).
    rhs: sum over i in {3..r} of F_{r-1} evaluated at (k_1 + k_i, k_2,
    and the remaining variables with k_i dropped, in ascending label
    order).  For r = 2 the right side is the empty sum and the
    difference must vanish.
    """
    if r < 2:
        raise ValueError("need at least two vertices")
    f_r = family(r)
    k1 = _var(r, 1)
    shifted = [k1 + 1] + [_var(r, l) for l in range(2, r + 1)]
    lhs = f_r.substitute(shifted, r) - f_r
    rhs = MultiPoly.zero(r)
    if r > 2:
        f_small = family(r - 1)
        for i in range(3, r + 1):
            rest = [l for l in range(3, r + 1) if l != i]
            images = [k1 + _var(r, i), _var(r, 2)] + [_var(r, l) for l in rest]
            rhs = rhs + f_small.substitute(images, r)
    return lhs, rhs


def _graft_split(pv) -> tuple:
    """The tree with parent vector pv cut above its second-smallest
    label: (host, shoot), each as (positions, parent vector on them).
    The shoot is the subtree of position 1; parents come first, so one
    forward pass marks it."""
    if not pv:
        raise ValueError("need at least two vertices to split")
    inside = [False]
    for j, p in enumerate(pv, 1):
        inside.append(j == 1 or inside[p])
    parts = []
    for side in (False, True):
        at = [j for j, s in enumerate(inside) if s is side]
        index = {p: i for i, p in enumerate(at)}
        parts.append((at, tuple(index[pv[p - 1]] for p in at[1:])))
    return parts


def _law_form(mono: int, factors) -> tuple:
    """Canonical form of mono times the product of the factor maps:
    single-term factors folded into mono and a coefficient, the rest
    sorted as item tuples.  Equal forms multiply the same maps."""
    coeff, rest = 1, []
    for f in factors:
        if len(f) == 1:
            ((key, c),) = f.items()
            mono, coeff = mono + key, coeff * c
        else:
            rest.append(tuple(sorted(f.items())))
    return mono, coeff, sorted(rest)


def grafting_law_holds(pv) -> bool:
    """Whether the grafting law holds on the tree t on {1..len(pv)+1}
    with parent vector pv, decided on factored weights alone.

    Cut t above its second-smallest label (_graft_split): the shoot
    hangs under the host's root and so disturbs no other vertex's
    subtree, and the law says the weight of t is the product of the
    host's and the shoot's weights times k_(host root) * (K_(shoot
    labels) - |shoot| + 1), the factor of the new edge.  The three
    weights are each a monomial times linear factor maps
    (hookformula._weight_factors); the edge is k_1 times the factor of
    the shoot's labels.  In Q[k_1..k_r], a unique factorization domain
    (Gauss's lemma), each K_S - |S| + 1 with |S| >= 2 has degree 1, so
    is irreducible, two with different S are not associates, and a
    single-variable factor folds into the monomial; so the sides are
    equal exactly when their _law_forms are.  A pv whose entry j-1 is
    not an int in [0, j) is refused with ValueError.
    """
    _check_parent_vector(pv)
    r = len(pv) + 1
    units = _label_keys(range(1, r + 1), r)
    (host, host_pv), (shoot, shoot_pv) = _graft_split(pv)
    host_mono, host_factors = _weight_factors([units[p] for p in host], host_pv)
    shoot_units = [units[p] for p in shoot]
    shoot_mono, shoot_factors = _weight_factors(shoot_units, shoot_pv)
    edge = _linear_factor(shoot_units)
    rhs = _law_form(host_mono + shoot_mono + units[0], [*host_factors, *shoot_factors, edge])
    return _law_form(*_weight_factors(units, pv)) == rhs


def grafting_split_sides(
    r: int, summands: Iterable | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """The weight sum on {1..r} against its expansion over splits.

    Grouping trees by which labels end up in the subtree at the
    second-smallest vertex gives

        sum over X1 disjoint-union X2 = {3..r} of
        k1 * (k2 + K_X2 - |X2|) * S({1} with X1) * S({2} with X2)

    where S is the tree weight sum on a label set.
    """
    lhs = hook_weight_sum(r)
    rhs = MultiPoly.sum(r, (term for _, _, term in summands or grafting_split_summands(r)))
    return lhs, rhs


def grafting_split_summands(r: int) -> Iterator[tuple[tuple, tuple, MultiPoly]]:
    """Per-split contributions to the grafting right side, as (X1, X2, summand)."""
    if r < 2:
        raise ValueError("the split needs at least two vertices")
    k1 = _var(r, 1)
    for x1, x2 in _ordered_splits(range(3, r + 1)):
        edge = k1 * _hook_factor(r, (2,) + x2)
        host_sum = tree_weight_sum(tuple(sorted((1,) + x1)), r)
        shoot_sum = tree_weight_sum(tuple(sorted((2,) + x2)), r)
        yield x1, x2, edge * host_sum * shoot_sum


def root_degree_sides(
    r: int, summands: Iterable | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """The weight sum against its expansion over root subtree partitions.

    Grouping trees by the set partition of {2..r} formed by the root's
    subtrees gives

        sum over partitions pi of k1^(number of blocks) *
        prod over blocks B of (K_B - |B| + 1) * S(B)

    with S the tree weight sum on B.  The sum is over unordered
    partitions: ordering the blocks would multiply each summand by
    (number of blocks)! and divide it right back out.
    """
    if r < 1:
        raise ValueError("need at least one vertex")
    lhs = hook_weight_sum(r)
    rhs = MultiPoly.sum(r, (term for _, term in summands or root_degree_summands(r)))
    return lhs, rhs


def root_degree_summands(r: int) -> Iterator[tuple[tuple, MultiPoly]]:
    """Per-partition contributions to the root degree right side; the
    factor of a block B is (K_B - |B| + 1) * S(B)."""

    def factor(block: tuple) -> MultiPoly:
        return _hook_factor(r, block) * tree_weight_sum(block, r)

    return _partition_summands(r, factor)


def _partition_summands(
    r: int, factor: Callable[[tuple], MultiPoly]
) -> Iterator[tuple[tuple, MultiPoly]]:
    """(partition, k1^(blocks) * product of factor(B) over its blocks) for
    every partition of {2..r}.

    Each block's factor is built once and dropped after its last use.  A
    block B occurs once for each partition of the other m - |B| labels,
    in bell[m - |B|] partitions, so the large blocks, which have the
    large factors, go soon.
    """
    m = r - 1
    bell = [1]
    for n in range(m):
        bell.append(sum(comb(n, j) * bell[j] for j in range(n + 1)))
    k1 = _var(r, 1)
    factors: dict = {}
    for part in set_partitions(range(2, r + 1)):
        term = k1 ** len(part)
        for block in part:
            entry = factors.get(block)
            if entry is None:
                entry = factors[block] = [factor(block), bell[m - len(block)]]
            entry[1] -= 1
            if not entry[1]:
                del factors[block]
            term = term * entry[0]
        yield part, term


def lagrange_identity_sides(
    r: int, summands: Iterable | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """The closed form against the partition sum it must satisfy.

    Substituting the closed form for the inner tree sums in the root
    degree recurrence, each block's factor collapses by one more step
    of the falling factorial:

        (K_B - |B| + 1) * prod(k in B) * (K_B - 1)_(|B|-2)
            = prod(k in B) * (K_B - 1)_(|B|-1).

    So the identity reads: k_1...k_r (K-1)_(r-2) equals the sum over
    partitions of {2..r} of k1^(blocks) prod over blocks of
    prod(k) * (K_B - 1)_(|B|-1).  This is precisely the coefficient
    identity that Lagrange inversion of w_i = t_i(1+sum w)^{k_i}
    produces, hence the name.
    """
    if r < 2:
        raise ValueError("need at least two vertices")
    lhs = hook_weight_closed_form(r)
    rhs = MultiPoly.sum(r, (term for _, term in summands or lagrange_summands(r)))
    return lhs, rhs


def lagrange_summands(r: int) -> Iterator[tuple[tuple, MultiPoly]]:
    """Per-partition contributions to the Lagrange-form right side; the
    factor of a block B is k_B * (K_B - 1)_(|B|-1)."""

    def factor(block: tuple) -> MultiPoly:
        return _kprod(r, block) * falling_factorial(_ksum(r, block) - 1, len(block) - 1)

    return _partition_summands(r, factor)


def _subset_entry(a: list, b: list, m: int) -> int:
    """Entry m of the product of two series in t_1..t_r cut to exponent
    at most one per variable, as coefficient lists indexed by subsets
    (bit i-1 for t_i): the sum of a[s] * b[m - s] over the subsets s of
    m.  A function of its own so that a test can change it."""
    acc = 0
    s = m
    while True:
        ca = a[s]
        if ca:
            cb = b[m ^ s]
            if cb:
                acc += ca * cb
        if s == 0:
            return acc
        s = (s - 1) & m


def _oracle_exponents(r: int, kvals: Sequence[int]) -> list:
    """kvals as a list of r int exponents, refused otherwise."""
    _check_int(r)
    kvals = list(kvals)
    if len(kvals) != r:
        raise ValueError(f"need {r} exponents, got {len(kvals)}")
    for k in kvals:
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("exponents must be ints")
    return kvals


def lagrange_series_oracle(r: int, kvals: Sequence[int]) -> int:
    """Coefficient of t_1...t_r in w_1 for w_i = t_i (1 + sum w)^(k_i).

    Solves the functional system in the multilinear window, on
    coefficient lists indexed by subsets, in one pass over the subsets
    in increasing order, which reaches the subsets of a set first.
    With nil = w_1 + ... + w_r, (1 + nil)^k is the sum over j < r of
    C(k, j) nil^j, so a negative k needs no inverse.  At a set m, w_i[m]
    is the sum over j of C(k_i, j) nil^j[m - {t_i}] for each t_i in m,
    nil[m] is their sum, and nil^j[m] for 2 <= j <= min(|m|, r-1) is
    _subset_entry(nil, nil^(j-1), m).  Each depends on proper subsets of
    m only, so one pass settles every coefficient; at the full set only
    w_1 is read.  The result must match k_1 (K-1)_(r-2) at the given
    integer values, which oracle_closed_form computes; the comparison is
    the caller's.

    Any integers are legal since the underlying identity is polynomial,
    but non-positive entries leave tree-counting territory, so they are
    flagged with a warning.
    """
    kvals = _oracle_exponents(r, kvals)
    if any(k <= 0 for k in kvals):
        warnings.warn(
            "non-positive exponents: the identity still holds as a polynomial "
            "statement, but the values no longer count trees",
            stacklevel=2,
        )
    rows = []  # C(k_i, j) for j < r, by the generalized binomial recurrence
    for k in kvals:
        row, c = [], 1
        for j in range(r):
            row.append(c)
            c = c * (k - j) // (j + 1)
        rows.append(row)
    full = (1 << r) - 1
    # powers[j] is nil^j, which vanishes on sets of fewer than j t's
    nil = [0] * (full + 1)
    powers = [[1] + [0] * full, nil] + [[0] * (full + 1) for _ in range(2, r)]
    for m in range(1, full):
        size = m.bit_count()
        # w_i[m] for each t_i in m, summed: m less t_i has size - 1 t's
        nil[m] = sum(c * p[m ^ 1 << i] for i, row in enumerate(rows) if m >> i & 1
                     for c, p in zip(row, powers[:size]))
        for j in range(2, min(size, r - 1) + 1):
            powers[j][m] = _subset_entry(nil, powers[j - 1], m)
    return sum(c * p[full ^ 1] for c, p in zip(rows[0], powers))


def oracle_closed_form(r: int, kvals: Sequence[int]) -> int:
    """k_1 (K-1)_(r-2) at integer values; 1 at r = 1 by the usual convention."""
    kvals = _oracle_exponents(r, kvals)
    if r == 1:
        return 1
    big_k = sum(kvals)
    out = kvals[0]
    for j in range(r - 2):
        out *= big_k - 1 - j
    return out
