"""Every check can fail: a table of mutants, each with the checks of
`verify all` that it flips.

Each mutant is a small defect in one function, put in place by patching
every module that binds the function's name, so that no caller keeps
the correct one.  verify all then runs with every family swept to
min(6, ceiling); it must exit 1 and fail exactly the checks listed.
"""

import json
import sys

import pytest

import hooklab
import hooklab.cli as cli
import hooklab.hookformula as hf
import hooklab.multipoly as mp
import hooklab.recurrences as rc
import hooklab.trees as tr


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


# the name each mutant changes: (the modules binding that name, the
# mutant made from the real function, the checks it flips)
MUTANTS = {
    "set_partitions": (
        (rc, hooklab),
        dropped_last_partition,
        {"mvl", "root-recurrence"},
    ),
    "_ordered_splits": (
        (rc,),
        dropped_last_split,
        {"grafting/split", "pq", "pq/finite-difference"},
    ),
    "_collapse": (
        (tr, hf),
        star_sent_to_the_path,
        {"fibers/degree-sum", "fibers/surjective"},
    ),
    "falling_factorial": (
        (mp, hf, rc, hooklab),
        shifted_falling_factorial,
        {"theorem1", "kerov", "mvl", "pq", "pq/finite-difference"},
    ),
    "_graft_split": (
        (rc,),
        shoot_leaf_moved_to_the_host,
        {"grafting/law"},
    ),
}


def bounded_at_6() -> list:
    """The size flags of verify all, each at min(6, ceiling) of the
    families it bounds."""
    argv = []
    for flag in ("r", "n", "max_size"):
        ceiling = min(f.ceiling for f in cli.FAMILIES.values() if f.flag == flag)
        argv += ["--" + flag.replace("_", "-"), str(min(6, ceiling))]
    return argv


@pytest.mark.parametrize("name", MUTANTS)
def test_the_table_patches_every_binding(name):
    modules, _, _ = MUTANTS[name]
    real = getattr(modules[0], name)
    bound = {
        module for key, module in sys.modules.items()
        if key.split(".")[0] == "hooklab" and getattr(module, name, None) is real
    }
    assert bound == set(modules)


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_fails_exactly_its_checks(monkeypatch, capsys, name):
    modules, make, want = MUTANTS[name]
    changed = make(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, changed)
    assert cli.main(["verify", "all", *bounded_at_6(), "--json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    assert {c["check"] for c in records if not c["equal"]} == want
