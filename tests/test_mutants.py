"""Every check can fail: a table of mutants, each with the checks of
`verify all` that it flips.

Each mutant is a small defect in one function, put in place by patching
every module that binds the function's name (or the class that owns a
method), so that no caller keeps the correct one.  verify all then runs
with every family swept to min(6, ceiling); it must exit 1 and fail
exactly the checks listed.  Tests elsewhere that pin more about a
mutant, such as the sizes at which a check fails, put it in place with
apply_mutant.
"""

import json
import sys
from math import comb
from types import ModuleType

import pytest

import hooklab
import hooklab.cli as cli
import hooklab.hookformula as hf
import hooklab.kerov as kv
import hooklab.multipoly as mp
import hooklab.recurrences as rc
import hooklab.trees as tr
from hooklab.multipoly import MultiPoly


def dropped_last_partition(real):
    def set_partitions(items):
        items = list(items)
        parts = list(real(items))
        return iter(parts[:-1] if len(items) > 2 else parts)

    return set_partitions


def dropped_last_split(real):
    def ordered_splits(rest):
        splits = list(real(rest))
        return iter(splits[:-1] if len(splits) > 1 else splits)

    return ordered_splits


def star_sent_to_the_path(real):
    def collapse(r, edges):
        pv = real(r, edges)
        return tuple(range(r - 1)) if r >= 3 and pv == (0,) * (r - 1) else pv

    return collapse


def shifted_falling_factorial(real):
    def falling_factorial(p, m):
        # (p-1)(p-2)...(p-m) in place of p(p-1)...(p-m+1), from two factors on
        return real(p - 1, m) if m >= 2 else real(p, m)

    return falling_factorial


def shoot_leaf_moved_to_the_host(real):
    def graft_split(pv):
        (host, _), (shoot, shoot_pv) = real(pv)
        if len(shoot) < 2:
            return real(pv)
        # the shoot's last position is a leaf: hang it from the host's root
        host = sorted([*host, shoot[-1]])
        index = {p: i for i, p in enumerate(host)}
        host_pv = tuple(index.get(pv[p - 1], 0) for p in host[1:])
        return [(host, host_pv), (shoot[:-1], shoot_pv[:-1])]

    return graft_split


def shifted_edge_constant(real):
    def edge_factor(size, top_only):
        # 2 - |B| in place of 1 - |B|, in the recursion's edge factor only
        factor = dict(real(size, top_only))
        if 0 in factor:
            factor[0] += 1
        return factor

    return edge_factor


def doubled_first_tree(real):
    def cayley_edge_lists(r):
        lists = real(r)
        first = next(lists)
        yield first
        yield first
        yield from lists

    return cayley_edge_lists


def changed_images(change):
    """A substitute mutant: every image passes through change first."""
    return lambda real: lambda p, images, nvars: real(p, map(change, images), nvars)


def dropped_leaf_factors(real):
    def weight_factors(units, pv, top_only=False):
        mono, factors = real(units, pv, top_only)
        return mono, [f for f in factors if len(f) != 1]

    return weight_factors


def without_single_variable_terms(real):
    def subset_entry(a, b, m):
        # the true entry less a[s] * b[m - s] for every s of one variable
        out = real(a, b, m)
        for i in range(m.bit_length()):
            if m >> i & 1:
                out -= a[1 << i] * b[m ^ 1 << i]
        return out

    return subset_entry


def dropped_last_integer_partition(real):
    def partitions_of(n):
        parts = list(real(n))
        return iter(parts[:-1] if n >= 2 else parts)

    return partitions_of


def last_two_blocks_joined(real):
    def block_cycle_permutation(mu):
        images = list(real(mu))
        if len(mu) >= 2:
            # the last points of the last two blocks trade images
            a, b = len(images) - mu[-1] - 1, len(images) - 1
            images[a], images[b] = images[b], images[a]
        return tuple(images)

    return block_cycle_permutation


def cancelled_key_kept(real):
    def iadd_terms(acc, b):
        # a key whose coefficients cancel stays in the map, with 0
        for e, cb in b.items():
            acc[e] = acc.get(e, 0) + cb
        return acc

    return iadd_terms


def doubled_shape_at_5(real):
    def rooted_shapes(n):
        shapes = list(real(n))
        return shapes + shapes[-1:] if n == 5 else shapes

    return rooted_shapes


LABELLING = {"binary-hooks/labelling-count"}
SHAPE_SUMS = {"binary-hooks/shape-identity", "binary-hooks/reciprocal-sum"}

# each mutant by its label, which starts with the name it changes:
# (every module or class binding that name, the mutant made from the
# real function, the checks it flips)
MUTANTS = {
    "set_partitions": ((rc, hooklab), dropped_last_partition, {"mvl", "root-recurrence"}),
    "_ordered_splits": (
        (rc,), dropped_last_split, {"grafting/split", "pq", "pq/finite-difference"}
    ),
    "_collapse": ((tr, hf), star_sent_to_the_path, {"fibers/degree-sum", "fibers/surjective"}),
    "falling_factorial": (
        (mp, hf, rc, hooklab),
        shifted_falling_factorial,
        {"theorem1", "kerov", "mvl", "pq", "pq/finite-difference"},
    ),
    "_graft_split": ((rc,), shoot_leaf_moved_to_the_host, {"grafting/law"}),
    "_edge_factor": (
        (hf,),
        shifted_edge_constant,
        {"theorem1", "postnikov/chain", "grafting/split", "root-recurrence", "kerov"},
    ),
    # x*n in place of x*n + 1 at every vertex with a child
    "_vertex_factor": ((hf,), lambda real: lambda n: {1: n}, {"postnikov", "postnikov/chain"}),
    "_binary_split: wrong binomial": (
        (hf,),
        lambda real: lambda m: (m, [(i, comb(m, i)) for i in range(m)]),
        {"binary-hooks/shape-identity"},
    ),
    "_binary_split: dropped split": (
        (hf,), lambda real: lambda m: (m, real(m)[1][1:]), SHAPE_SUMS
    ),
    # a root hook of 0 would divide by zero, so one vertex keeps its hook
    "_binary_split: root hook m - 1": (
        (hf,), lambda real: lambda m: (max(m - 1, 1), real(m)[1]), SHAPE_SUMS
    ),
    # the constant stays in each linear factor under top_only too
    "_linear_factor": (
        (hf, rc),
        lambda real: lambda keys, top_only=False: real(keys),
        {"cayley/top-weight-sum", "fibers/degree-sum", "fibers/top-of-weight"},
    ),
    "cayley_edge_lists": (
        (tr, hf), doubled_first_tree, {"cayley", "fibers/degree-sum", "fibers/partition"}
    ),
    "substitute: single terms lose their coefficient": (
        (MultiPoly,),
        changed_images(
            lambda q: MultiPoly(q.nvars, dict.fromkeys(q.terms, 1)) if len(q) == 1 else q
        ),
        {"kerov"},
    ),
    "substitute: zero images become 1": (
        (MultiPoly,),
        changed_images(lambda q: MultiPoly.const(q.nvars, 1) if q.is_zero() else q),
        {"pq/constant-term"},
    ),
    "_weight_factors": ((hf, rc), dropped_leaf_factors, {"grafting/law", "fibers/degree-sum"}),
    "_subset_entry: hadamard": ((rc,), lambda real: lambda a, b, m: a[m] * b[m], {"mvl/oracle"}),
    "_subset_entry: no single-variable terms": (
        (rc,), without_single_variable_terms, {"mvl/oracle"}
    ),
    # one too many extensions for every tree whose root has two children
    "_lext_count": ((hf,), lambda real: lambda pv: real(pv) + (pv.count(0) == 2), LABELLING),
    # the star stands for one tree: the shapes then cover 23 of 24
    "rooted_shapes: star dropped at 5": (
        (tr,), lambda real: lambda n: [s for s in real(n) if n != 5 or any(s[1])], LABELLING
    ),
    "rooted_shapes: shape doubled at 5": ((tr,), doubled_shape_at_5, LABELLING),
    "automorphisms": ((tr,), lambda real: lambda key: 1, LABELLING),
    "partitions_of: last partition dropped": (
        (kv, hooklab), dropped_last_integer_partition, {"kerov"}
    ),
    "block_cycle_permutation: last two blocks joined": (
        (kv, hooklab), last_two_blocks_joined, {"kerov"}
    ),
    # the sums on the rest of the labels lose the root's variable
    "_relabel: shift dropped": (
        (mp, hf),
        lambda real: lambda terms, rows, positions, nvars, shift=0: real(
            terms, rows, positions, nvars
        ),
        {
            "theorem1",
            "cayley/top-weight-sum",
            "postnikov/chain",
            "grafting/split",
            "root-recurrence",
            "kerov",
        },
    ),
    "iadd_terms: a cancelled key kept as 0": (
        (mp, hf), cancelled_key_kept, {"pq/finite-difference"}
    ),
}


def apply_mutant(monkeypatch, label):
    """Put the mutant of one row in place at every binding of its name."""
    name = label.split(":")[0]
    owners, make, _ = MUTANTS[label]
    changed = make(getattr(owners[0], name))
    for owner in owners:
        monkeypatch.setattr(owner, name, changed)


def bounded_at_6() -> list:
    """The size flags of verify all, each at min(6, ceiling) of the
    families it bounds."""
    argv = []
    for flag in ("r", "n", "max_size"):
        ceiling = min(f.ceiling for f in cli.FAMILIES.values() if f.flag == flag)
        argv += ["--" + flag.replace("_", "-"), str(min(6, ceiling))]
    return argv


def failed_at_bound_6():
    """(check, r) of each comparison that fails with every family swept
    to min(6, ceiling), the sweep cache cleared before and after."""
    hf.tree_weight_sum.cache_clear()
    try:
        return {
            (v.check, v.params.get("r"))
            for name, family in cli.FAMILIES.items()
            for v in cli.run_family(name, min(6, family.ceiling))
            if not v.equal
        }
    finally:
        hf.tree_weight_sum.cache_clear()


@pytest.mark.parametrize("label", MUTANTS)
def test_the_table_patches_every_binding(label):
    name = label.split(":")[0]
    owners, _, _ = MUTANTS[label]
    real = getattr(owners[0], name)
    assert all(getattr(owner, name) is real for owner in owners)
    bound = {
        module for key, module in sys.modules.items()
        if key.split(".")[0] == "hooklab" and getattr(module, name, None) is real
    }
    assert bound == {owner for owner in owners if isinstance(owner, ModuleType)}


@pytest.mark.parametrize("label", MUTANTS)
def test_a_mutant_fails_exactly_its_checks(monkeypatch, capsys, label):
    apply_mutant(monkeypatch, label)
    # a weight sum cached before the mutant went in would hide it
    hf.tree_weight_sum.cache_clear()
    assert cli.main(["verify", "all", *bounded_at_6(), "--json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    assert {c["check"] for c in records if not c["equal"]} == MUTANTS[label][2]
