"""Factorization counts in the symmetric group and their closed forms.

Fix a partition mu of n and the canonical permutation sigma_mu whose
cycles are the consecutive blocks (1..mu_1)(mu_1+1..mu_1+mu_2)...  The
objects counted here are the pairs (s1, s2) with s1*s2 = sigma_mu, s2 a
single n-cycle, and s1 having exactly j-1 cycles, where j = n - l(mu) + 2
and l is the number of parts.  Brute force iterates the (n-1)! long
cycles s2 and reads off s1.

Three closed descriptions of that count are evaluated alongside:
grouping by the cycle type of s1 (a per-type product formula), the
all-types total prod(mu_i) * (n-1)!/(n-l+1)!, and a binomial identity
that the per-type sum collapses to.  The same total, carrying the sign
(-1)^(l-1), is the top coefficient of a character polynomial; here it
is certified purely through the counting.  tree_bridge_values ties the
count to the tree weight sum: the expanded sum over trees and its
closed form, each specialized to k_i = mu_i, must reproduce it.

Check functions compare and return; they never assert.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, Mapping, Sequence

from hooklab.hookformula import hook_weight_closed_form, hook_weight_sum
from hooklab.multipoly import specialize
from hooklab.parallel import fold_chunks

__all__ = [
    "IntPartition",
    "Permutation",
    "bedard_goupil",
    "binomial_simplification_check",
    "block_cycle_permutation",
    "closed_rhs_at",
    "count_factorizations",
    "factorization_count_closed_form",
    "factorization_counts_by_type",
    "partitions_of",
    "signed_factorization_count",
    "tree_bridge_check",
    "tree_bridge_values",
    "tree_sum_at",
]

FACTORIZATION_BOUND = 9
TREE_BRIDGE_BOUND = 7
# Testing one long cycle takes 3 to 6 us (5,040 in ~15 ms on 2 cores)
# and starting a two-worker pool ~15 ms, so below this many cycles a
# process pool costs more to start than it saves: 5,040 cycles took
# ~28 ms on two workers, 40,320 took ~116 ms against ~207 ms on one.
POOL_THRESHOLD = 10_000


class Permutation:
    """Bijection of {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images!r} is not a bijection of 1..{n}")
        self._images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._make(tuple(range(1, n + 1)))

    @classmethod
    def from_visiting_order(cls, order: Sequence[int]) -> "Permutation":
        """The single cycle sending each entry of `order` to the next.

        `order` must list all of 1..n; the last entry wraps to the first.
        """
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"{order!r} does not visit 1..{n} exactly once")
        images = [0] * n
        for a, b in zip(order, order[1:]):
            images[a - 1] = b
        images[order[-1] - 1] = order[0]
        return cls._make(tuple(images))

    @classmethod
    def _make(cls, images: tuple) -> "Permutation":
        self = object.__new__(cls)
        self._images = images
        return self

    @property
    def images(self) -> tuple:
        return self._images

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self._images):
            raise ValueError(f"{i} is outside 1..{len(self._images)}")
        return self._images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p*q)(i) = p(q(i)), q applied first."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self._images) != len(other._images):
            raise ValueError("sizes differ")
        a, b = self._images, other._images
        return Permutation._make(tuple(a[x - 1] for x in b))

    def inverse(self) -> "Permutation":
        images = [0] * len(self._images)
        for i, x in enumerate(self._images):
            images[x - 1] = i + 1
        return Permutation._make(tuple(images))

    def cycles(self) -> tuple:
        """Cycles as tuples, each starting at its smallest element, by that element."""
        seen = [False] * len(self._images)
        out = []
        for start in range(1, len(self._images) + 1):
            if seen[start - 1]:
                continue
            cyc = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cyc.append(x)
                x = self._images[x - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def ncycles(self) -> int:
        return len(_cycle_sizes([x - 1 for x in self._images]))

    def cycle_type(self) -> "IntPartition":
        return IntPartition(_cycle_sizes([x - 1 for x in self._images]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({self._images!r})"


class IntPartition:
    """Weakly decreasing tuple of positive parts."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(sorted(parts, reverse=True))
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive ints, got {p!r}")
        self._parts = parts

    @property
    def parts(self) -> tuple:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    @property
    def cycle_index(self) -> int:
        """The shared index j = size - length + 2 of the counting formulas.

        j - 1 is the required cycle count of the first factor in the
        pairs being counted, and j - 2 the lower index of the binomial
        the per-type sum collapses to.
        """
        return self.size - self.length + 2

    def multiplicities(self) -> Mapping[int, int]:
        out: dict = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPartition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"IntPartition({self._parts!r})"


def _partition_tuples(n: int, cap: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def partitions_of(n: int, max_part: int | None = None) -> Iterator[IntPartition]:
    """Partitions of n in reverse lexicographic order: (n) first, (1,..,1) last."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative int")
    if max_part is None:
        max_part = n
    for parts in _partition_tuples(n, max_part):
        yield IntPartition(parts)


def block_cycle_permutation(mu: IntPartition) -> Permutation:
    """The permutation whose cycles are consecutive blocks of sizes mu_1, mu_2, ...

    The first cycle visits 1..mu_1 in order, the next mu_1+1..mu_1+mu_2,
    and so on; it is the canonical representative of its conjugacy
    class, which is all the counting below depends on.
    """
    if mu.length == 0:
        raise ValueError("need a partition of at least 1")
    images = []
    start = 1
    for p in mu.parts:
        block = list(range(start + 1, start + p)) + [start]
        images.extend(block)
        start += p
    return Permutation(images)


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


def _first_factors(parts: tuple, lo: int = 0, hi: int | None = None) -> Iterator[list]:
    """s1 = sigma * s2^(-1), zero-based, for the long cycles s2 of index in
    [lo, hi): the visiting orders from 1, in lexicographic order."""
    sig = [x - 1 for x in block_cycle_permutation(IntPartition(parts)).images]
    n = len(sig)
    inv2 = [0] * n
    for tail in itertools.islice(itertools.permutations(range(1, n)), lo, hi):
        order = (0,) + tail
        for i in range(n - 1):
            inv2[order[i + 1]] = order[i]
        inv2[0] = order[n - 1]
        yield [sig[inv2[x]] for x in range(n)]


def _long_cycle_count(mu: IntPartition) -> int:
    """(n-1)!, the number of long cycles s2, refused past the size bound."""
    if mu.size > FACTORIZATION_BOUND:
        raise ValueError(f"long-cycle enumeration is capped at size {FACTORIZATION_BOUND}")
    return factorial(mu.size - 1)


def _count_chunk(args) -> int:
    parts, lo, hi = args
    target = IntPartition(parts).cycle_index - 1
    return sum(len(_cycle_sizes(s1)) == target for s1 in _first_factors(parts, lo, hi))


def count_factorizations(mu: IntPartition, threads: int = 1) -> int:
    """Pairs (s1, s2) with s1*s2 the block permutation of mu, s2 an n-cycle,
    and s1 having exactly j-1 cycles.

    Iterates every long cycle s2 as a visiting order starting at 1 and
    tests s1 = sigma * s2^(-1); (n-1)! of them, hence the size bound.
    """
    total = _long_cycle_count(mu)
    workers = threads if total >= POOL_THRESHOLD else 1
    return fold_chunks(_count_chunk, (mu.parts,), total, workers, operator.add)


def factorization_counts_by_type(mu: IntPartition) -> Mapping[IntPartition, int]:
    """All pairs (s1, s2) with s1*s2 = sigma and s2 an n-cycle, grouped
    by the cycle type of s1.

    No cycle-count filter: the full distribution comes back, so the
    per-type closed formula can be checked type by type and the
    filtered total recovered by restricting to types of length j-1.
    """
    _long_cycle_count(mu)  # refuses sizes past the bound
    out: dict = {}
    for s1 in _first_factors(mu.parts):
        key = IntPartition(_cycle_sizes(s1))
        out[key] = out.get(key, 0) + 1
    return out


def bedard_goupil(lam: IntPartition, mu: IntPartition) -> int:
    """Count of the pairs whose first factor has cycle type lam.

    Valid when |lam| = |mu| and lam has exactly j-1 parts; the value is

        (l(mu)-1)! (j-2)! prod(mu_i) / prod over i of m_i(lam)!

    and is always a non-negative integer there.
    """
    if lam.size != mu.size:
        raise ValueError("cycle type must have the same size as the partition")
    j = mu.cycle_index
    if lam.length != j - 1:
        raise ValueError(
            f"cycle type needs exactly {j - 1} parts, got {lam.length}"
        )
    num = factorial(mu.length - 1) * factorial(j - 2)
    for p in mu.parts:
        num *= p
    den = 1
    for m in lam.multiplicities().values():
        den *= factorial(m)
    value = Fraction(num, den)
    if value.denominator != 1:
        raise ArithmeticError(f"count for {lam!r}, {mu!r} is not an integer")
    return int(value)


def binomial_simplification_check(mu: IntPartition) -> bool:
    """Sum over admissible types of the arrangement count against a binomial.

    Each lam with |lam| = |mu| and j-1 parts contributes the number of
    orderings of its parts, (j-1)!/prod m_i(lam)!; the total over lam
    is the number of compositions being counted, C(|mu|-1, j-2).
    """
    n = mu.size
    j = mu.cycle_index
    total = 0
    for lam in partitions_of(n):
        if lam.length != j - 1:
            continue
        arrangements = factorial(j - 1)
        for m in lam.multiplicities().values():
            arrangements //= factorial(m)
        total += arrangements
    return total == comb(n - 1, j - 2)


def factorization_count_closed_form(mu: IntPartition) -> int:
    """The all-types total in closed form: prod(mu_i) (n-1)!/(n-l+1)!."""
    n = mu.size
    num = factorial(n - 1)
    for p in mu.parts:
        num *= p
    value = Fraction(num, factorial(n - mu.length + 1))
    if value.denominator != 1:
        raise ArithmeticError(f"closed form for {mu!r} is not an integer")
    return int(value)


def signed_factorization_count(mu: IntPartition) -> int:
    """The closed-form count carrying the sign (-1)^(l(mu)-1).

    This signed value is the top-degree coefficient of the character
    polynomial attached to mu; it is certified here purely through the
    factorization count, with no character machinery.
    """
    sign = -1 if mu.length % 2 == 0 else 1
    return sign * factorization_count_closed_form(mu)


def closed_rhs_at(mu: IntPartition) -> int:
    """Closed form of the hook weight identity, evaluated at k_i = mu_i.

    The expanded polynomial in l(mu) variables is specialized, so this
    goes through the same object the symbolic checks compare against
    rather than re-deriving the product.
    """
    at_mu = dict(enumerate(mu))
    return specialize(hook_weight_closed_form(mu.length), at_mu).coefficient(())


def tree_sum_at(mu: IntPartition) -> int:
    """Hook weight sum over increasing trees on {1..l(mu)}, at k_i = mu_i.

    The expanded sum over the (l(mu)-1)! trees is specialized; that sum
    is the expensive side, hence the length bound enforced by the bridge
    functions that call it.
    """
    at_mu = dict(enumerate(mu))
    return specialize(hook_weight_sum(mu.length), at_mu).coefficient(())


def tree_bridge_values(mu: IntPartition) -> Mapping[str, int]:
    """The factorization count next to its tree-side counterparts.

    Returns the brute-force count, the closed form, the absolute signed
    value, the hook-identity right side at k_i = mu_i, and the tree
    weight sum at the same values.  All five agree; tree_bridge_check
    compares them.  The tree side runs over (l(mu)-1)! trees, hence the
    length bound.
    """
    if mu.length > TREE_BRIDGE_BOUND:
        raise ValueError(f"tree side is capped at {TREE_BRIDGE_BOUND} parts")
    return {
        "count": count_factorizations(mu),
        "closed_form": factorization_count_closed_form(mu),
        "signed_magnitude": abs(signed_factorization_count(mu)),
        "identity_rhs_at_mu": closed_rhs_at(mu),
        "tree_sum_at_mu": tree_sum_at(mu),
    }


def tree_bridge_check(mu: IntPartition) -> bool:
    """All five quantities of tree_bridge_values agree."""
    values = list(tree_bridge_values(mu).values())
    return all(v == values[0] for v in values)
