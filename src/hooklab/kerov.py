"""Factorization counts in the symmetric group and their closed forms.

A partition mu of n is a nonempty weakly decreasing tuple of positive
ints, and a permutation of 0..n-1 is the tuple of its images.  Fix mu
and the canonical permutation sigma_mu whose cycles are the consecutive
blocks (0..mu_1-1)(mu_1..mu_1+mu_2-1)...  The objects counted here are
the pairs (s1, s2) with s1*s2 = sigma_mu, s2 a single n-cycle, and s1
having exactly j-1 cycles, where j = n - l(mu) + 2 and l is the number
of parts.  The cycle count of s1 = sigma * s2^(-1) is the genus
statistic of unicellular maps (Goupil and Schaeffer, 1998):
c(s1) + c(s2) + c(sigma) <= n + 2, so the j-1 = n-l+1 cycles asked for
are the most s1 can have, the genus-0 factorizations.

The count is a pruned depth-first walk over the long cycles s2, built
as visiting orders one position at a time: each position fixes one arc
of s1, and a branch whose s1 has already closed too many cycles, or
can no longer close enough, is cut and credited with all the long
cycles below it.  What is left to count below a branch depends only on
the cycle type of a residual permutation, with one cycle marked, and
on the number of cycles still needed (the lemma in _walk), so each
such residual subproblem is solved once and every other branch that
reaches it is credited with its count.  The walk still accounts for
exactly (n-1)! long cycles and raises unless it did.

Two closed forms of that count are evaluated alongside: grouping by
the cycle type of s1 (a per-type product formula) and the all-types
total prod(mu_i) * (n-1)!/(n-l+1)!; a binomial identity that the
per-type sum collapses to is checked too.  The same total, carrying the
sign (-1)^(l-1), is the top coefficient of a character polynomial.
signed_factorization_count gives it as the all-types total with that
sign attached, so the signed column is shown, not checked: a wrong sign
passes until the sign has a derivation of its own.

tree_sum_at and closed_rhs_at tie the count to the tree weight sum: the
expanded sum over trees and its closed form, each evaluated at
k_i = mu_i, must reproduce it for partitions of at most
TREE_BRIDGE_BOUND parts.

Check functions compare and return; they never assert.  Every function
that takes a partition refuses any other value, before any work.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from typing import Iterator, Sequence

from hooklab.hookformula import hook_weight_closed_form, hook_weight_sum
from hooklab.multipoly import MultiPoly
from hooklab.trees import _check_int, _is_int

__all__ = [
    "bedard_goupil",
    "binomial_simplification_check",
    "block_cycle_permutation",
    "closed_rhs_at",
    "count_factorizations",
    "cycle_index",
    "factorization_count_closed_form",
    "partitions_of",
    "signed_factorization_count",
    "tree_sum_at",
]

TREE_BRIDGE_BOUND = 7


def _check_partition(mu) -> None:
    """Refuse anything but a nonempty weakly decreasing tuple of
    positive ints; a bool is not an int here."""
    if not (
        isinstance(mu, tuple)
        and mu
        and all(_is_int(p) and p >= 1 for p in mu)
        and all(a >= b for a, b in zip(mu, mu[1:]))
    ):
        raise ValueError(
            f"a partition is a nonempty weakly decreasing tuple of positive ints, got {mu!r}"
        )


def _partition_tuples(n: int, cap: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def partitions_of(n: int) -> Iterator[tuple]:
    """Partitions of n in reverse lexicographic order: (n) first, (1,..,1) last."""
    _check_int(n, 0)
    return _partition_tuples(n, n)


def cycle_index(mu: tuple) -> int:
    """The shared index j = |mu| - l(mu) + 2 of the counting formulas.

    j - 1 is the required cycle count of the first factor in the pairs
    being counted, and j - 2 the lower index of the binomial the
    per-type sum collapses to.
    """
    _check_partition(mu)
    return sum(mu) - len(mu) + 2


def block_cycle_permutation(mu: tuple) -> tuple:
    """The images of 0, 1, ..., n-1 under the permutation whose cycles
    are consecutive blocks of sizes mu_1, mu_2, ...

    The first cycle visits 0..mu_1-1 in order, the next
    mu_1..mu_1+mu_2-1, and so on; it is the canonical representative of
    its conjugacy class, which is all the counting below depends on.
    """
    _check_partition(mu)
    images = []
    start = 0
    for p in mu:
        images.extend(range(start + 1, start + p))
        images.append(start)
        start += p
    return tuple(images)


def _check_coverage(visited: int, n: int) -> None:
    expected = factorial(n - 1)
    if visited != expected:
        raise RuntimeError(f"the sweep covered {visited} long cycles, expected {expected}")


def _residual(
    inverse: Sequence[int], head: Sequence[int], free: Sequence[bool], prev: int, needed: int
) -> tuple:
    """The memo key of _walk: (length of the marker's cycle, sorted
    lengths of the other cycles) of the residual permutation rho, and
    the number of cycles still needed.

    rho acts on the unplaced points and the marker, which is index 0 in
    both roles: x goes to sigma^(-1)(head[x]), and prev stands for the
    marker among the images.
    """
    rho = {}
    for x, unplaced in enumerate(free):
        if unplaced:  # free[0] is never cleared: 0 is the marker
            y = inverse[head[x]]
            rho[x] = 0 if y == prev else y
    lengths = []
    while rho:  # the first cycle walked is the marker's
        x = next(iter(rho))
        size = 0
        while x in rho:
            x = rho.pop(x)
            size += 1
        lengths.append(size)
    return lengths[0], tuple(sorted(lengths[1:])), needed


def _walk(sigma: Sequence[int], target: int) -> tuple:
    """(long cycles s2 of 0..n-1 whose s1 = sigma * s2^(-1) has target
    cycles, long cycles accounted for).

    s2 is built as a visiting order from 0.  Placing order[k] after
    order[k-1] fixes the arc s1(order[k]) = sigma(order[k-1]); the last
    arc, s1(0) = sigma(order[n-1]), always closes the one path left.
    After k arcs the open paths of s1 number n - k, and each arc closes
    at most one cycle, so a branch with c closed cycles ends with
    between c + 1 and c + n - k of them; once target is outside that
    range the branch is cut and its (n-1-k)! long cycles are accounted
    for without being built.

    Each residual subproblem is solved once.  After k arcs with last
    point prev, let F be the unplaced points and * a marker standing
    for 0 (the end that is still open) and for prev.  Every open path
    ends at a point x of F or at 0 and starts at sigma(y) for one y in
    F or y = prev, so rho(x) = sigma^(-1)(head[x]), with 0 and prev
    read as *, is a permutation of F + {*}.  Lemma: placing a in F next
    closes a cycle of s1 exactly when rho(a) = *, and the next rho is
    rho composed with the transposition (a *), with a then cut out of
    its cycle.  So a on the cycle of * splits it, one part keeping *
    and the other losing a, and a elsewhere merges its cycle into that
    of * and is cut out.  A bijection of F that carries one rho to
    another with the cycle of * to the cycle of * therefore carries
    branches to branches with the same closings, and the pair (hits,
    covered) below a branch depends only on the length of the cycle of
    *, the sorted lengths of the other cycles and the number of cycles
    still needed.  The memo is keyed on that triple; a branch found in
    it is credited with the pair of its first solving, so the coverage
    count is still (n-1)! and still checked.
    """
    n = len(sigma)
    inverse = [0] * n
    for x, y in enumerate(sigma):
        inverse[y] = x
    head = list(range(n))  # head[x]: first point of the open path ending at x
    tail = list(range(n))  # tail[x]: last point of the open path starting at x
    free = [True] * n  # points not yet placed, and 0: placed first, it is the marker
    below = [factorial(m) for m in range(n)]  # long cycles under a branch
    solved: dict = {}

    def place(prev: int, k: int, closed: int) -> tuple:
        needed = target - closed
        if not 0 < needed <= n - k:
            return 0, below[n - 1 - k]
        if k == n - 1:  # needed is 1: the last arc closes the one path left
            return 1, 1
        key = _residual(inverse, head, free, prev, needed)
        if key in solved:
            return solved[key]
        hits = covered = 0
        b = sigma[prev]
        for a in range(1, n):
            if not free[a]:
                continue
            free[a] = False
            h = head[a]
            if h == b:  # the arc a -> b closes the path b..a
                found = place(a, k + 1, closed + 1)
            else:
                t = tail[b]
                tail[h], head[t] = t, h
                found = place(a, k + 1, closed)
                tail[h], head[t] = a, b
            free[a] = True
            hits += found[0]
            covered += found[1]
        solved[key] = hits, covered
        return hits, covered

    return place(0, 0, 0)


def count_factorizations(mu: tuple) -> int:
    """Pairs (s1, s2) with s1*s2 the block permutation of mu, s2 an n-cycle,
    and s1 having exactly j-1 cycles.

    The walk accounts for every long cycle s2, (n-1)! of them, solving
    each residual subproblem once, and raises RuntimeError unless it
    accounted for exactly that many.  Its work grows far more slowly
    than (n-1)!, so every size is taken.
    """
    _check_partition(mu)
    hits, covered = _walk(block_cycle_permutation(mu), cycle_index(mu) - 1)
    _check_coverage(covered, sum(mu))
    return hits


def bedard_goupil(lam: tuple, mu: tuple) -> int:
    """Count of the pairs whose first factor has cycle type lam.

    Valid when |lam| = |mu| and lam has exactly j-1 parts; the value is

        (l(mu)-1)! (j-2)! prod(mu_i) / prod over i of m_i(lam)!

    and is always a non-negative integer there.
    """
    _check_partition(lam)
    j = cycle_index(mu)
    if sum(lam) != sum(mu):
        raise ValueError("cycle type must have the same size as the partition")
    if len(lam) != j - 1:
        raise ValueError(f"cycle type needs exactly {j - 1} parts, got {len(lam)}")
    num = factorial(len(mu) - 1) * factorial(j - 2) * prod(mu)
    value, rem = divmod(num, prod(factorial(m) for m in Counter(lam).values()))
    if rem:
        raise ArithmeticError(f"count for {lam!r}, {mu!r} is not an integer")
    return value


def binomial_simplification_check(mu: tuple) -> bool:
    """Sum over admissible types of the arrangement count against a binomial.

    Each lam with |lam| = |mu| and j-1 parts contributes the number of
    orderings of its parts, (j-1)!/prod m_i(lam)!; the total over lam
    is the number of compositions being counted, C(|mu|-1, j-2).
    """
    j = cycle_index(mu)
    n = sum(mu)
    total = 0
    for lam in partitions_of(n):
        if len(lam) == j - 1:
            total += factorial(j - 1) // prod(factorial(m) for m in Counter(lam).values())
    return total == comb(n - 1, j - 2)


def factorization_count_closed_form(mu: tuple) -> int:
    """The all-types total in closed form: prod(mu_i) (n-1)!/(n-l+1)!."""
    _check_partition(mu)
    n = sum(mu)
    value, rem = divmod(factorial(n - 1) * prod(mu), factorial(n - len(mu) + 1))
    if rem:
        raise ArithmeticError(f"closed form for {mu!r} is not an integer")
    return value


def signed_factorization_count(mu: tuple) -> int:
    """The closed-form count carrying the sign (-1)^(l(mu)-1).

    This signed value is the top-degree coefficient of the character
    polynomial attached to mu.  It is the closed form with a sign put
    on, so nothing here certifies the sign.
    """
    value = factorization_count_closed_form(mu)
    return -value if len(mu) % 2 == 0 else value


def closed_rhs_at(mu: tuple) -> int:
    """Closed form of the hook weight identity, evaluated at k_i = mu_i.

    The expanded polynomial in l(mu) variables is evaluated, so this
    goes through the same object the symbolic checks compare against
    rather than re-deriving the product.
    """
    _check_partition(mu)
    at_mu = [MultiPoly.const(0, p) for p in mu]
    return hook_weight_closed_form(len(mu)).substitute(at_mu, 0).coefficient(())


def tree_sum_at(mu: tuple) -> int:
    """Hook weight sum over increasing trees on {1..l(mu)}, at k_i = mu_i.

    The expanded sum over the (l(mu)-1)! trees is evaluated; that sum
    is the expensive side, hence TREE_BRIDGE_BOUND on the lengths its
    callers pass.
    """
    _check_partition(mu)
    at_mu = [MultiPoly.const(0, p) for p in mu]
    return hook_weight_sum(len(mu)).substitute(at_mu, 0).coefficient(())
