"""Counting long-cycle factorizations and tying them to the tree sum."""

import cProfile
import itertools
import json
import pstats
from collections import Counter
from math import comb, factorial, prod

import oracles
import pytest

import hooklab.cli as cli
import hooklab.kerov as kv


class TestPermutation:
    """Permutations of 0..n-1 as tuples of images, as the sweeps hold them."""

    def test_composition_applies_right_factor_first(self):
        # the first long cycle visits 0, 1, 2: its inverse is (2, 0, 1)
        compose = next(oracles._inverse_long_cycles(3))
        assert compose((0, 1, 2)) == (2, 0, 1)
        assert compose((1, 0, 2)) == (2, 1, 0)

    def test_inverse(self):
        orders = itertools.permutations(range(1, 4))
        for tail, compose in zip(orders, oracles._inverse_long_cycles(4)):
            order = (0, *tail)
            s2 = [0] * 4
            for a, b in zip(order, order[1:] + order[:1]):
                s2[a] = b
            assert compose(tuple(s2)) == (0, 1, 2, 3)

    def test_cycles_and_type(self):
        assert oracles._cycle_sizes((1, 0, 3, 2)) == [2, 2]
        assert oracles._cycle_sizes((0, 3, 2, 1)) == [1, 2, 1]

    def test_visiting_order_gives_a_long_cycle(self):
        inverses = [compose(tuple(range(4))) for compose in oracles._inverse_long_cycles(4)]
        assert len(set(inverses)) == factorial(3)
        assert all(oracles._cycle_sizes(p) == [4] for p in inverses)
        assert [compose((0,)) for compose in oracles._inverse_long_cycles(1)] == [(0,)]


BAD_PARTITIONS = [(), (0, 1), (True,), (1, 2), (2.0,)]

# every kerov function that takes a partition, and the brute-force reference
TAKES_A_PARTITION = {
    "cycle_index": kv.cycle_index,
    "block_cycle_permutation": kv.block_cycle_permutation,
    "count_factorizations": kv.count_factorizations,
    "bedard_goupil: cycle type": lambda mu: kv.bedard_goupil(mu, (2, 2)),
    "bedard_goupil: partition": lambda mu: kv.bedard_goupil((2, 1, 1), mu),
    "binomial_simplification_check": kv.binomial_simplification_check,
    "factorization_count_closed_form": kv.factorization_count_closed_form,
    "signed_factorization_count": kv.signed_factorization_count,
    "closed_rhs_at": kv.closed_rhs_at,
    "tree_sum_at": kv.tree_sum_at,
    "oracles.factorization_counts_by_type": oracles.factorization_counts_by_type,
}


class TestPartition:
    """A partition is a nonempty weakly decreasing tuple of positive ints."""

    def test_cycle_index(self):
        assert kv.cycle_index((2, 2)) == 4
        assert kv.cycle_index((5,)) == 6
        assert kv.cycle_index((1, 1, 1)) == 2

    @pytest.mark.parametrize("mu", BAD_PARTITIONS, ids=repr)
    @pytest.mark.parametrize("name", TAKES_A_PARTITION)
    def test_a_bad_partition_is_refused_with_one_message(self, monkeypatch, name, mu):
        def no_work(*args):
            raise AssertionError("the count started")

        monkeypatch.setattr(kv, "_walk", no_work)
        monkeypatch.setattr(oracles, "_inverse_long_cycles", no_work)
        message = f"a partition is a nonempty weakly decreasing tuple of positive ints, got {mu!r}"
        with pytest.raises(ValueError) as refused:
            TAKES_A_PARTITION[name](mu)
        assert str(refused.value) == message


class TestPartitionsOf:
    def test_reverse_lexicographic_order(self):
        parts = list(kv.partitions_of(5))
        assert parts[:4] == [(5,), (4, 1), (3, 2), (3, 1, 1)]
        assert parts[-1] == (1, 1, 1, 1, 1)
        assert parts == sorted(parts, reverse=True)

    def test_counts(self):
        for n, want in [(1, 1), (4, 5), (6, 11), (8, 22)]:
            assert sum(1 for _ in kv.partitions_of(n)) == want


class TestBlockCycles:
    def test_two_blocks(self):
        assert kv.block_cycle_permutation((2, 2)) == (1, 0, 3, 2)

    def test_blocks_are_consecutive(self):
        sigma = kv.block_cycle_permutation((3, 2))
        assert sigma == (1, 2, 0, 4, 3)
        assert oracles._cycle_sizes(sigma) == [3, 2]


class TestFactorizationCounts:
    def test_single_block_gives_one(self):
        for n in range(1, 7):
            assert kv.count_factorizations((n,)) == 1

    def test_known_counts(self):
        assert kv.count_factorizations((2, 2)) == 4
        assert kv.count_factorizations((3, 2)) == 6
        assert kv.count_factorizations((2, 1)) == 2

    def test_closed_form_examples(self):
        assert kv.factorization_count_closed_form((2, 1, 1)) == 6
        assert kv.factorization_count_closed_form((1,) * 5) == 24

    def test_count_matches_closed_form(self):
        for n in range(2, 9):
            for mu in kv.partitions_of(n):
                count = kv.count_factorizations(mu)
                assert count == kv.factorization_count_closed_form(mu)

    def test_counted_first_factor_has_expected_cycles(self):
        mu = (3, 2)
        j = kv.cycle_index(mu)
        by_type = oracles.factorization_counts_by_type(mu)
        relevant = {lam: c for lam, c in by_type.items() if len(lam) == j - 1}
        assert sum(relevant.values()) == kv.count_factorizations(mu)

    def test_threads_do_not_change_the_count(self, tmp_path):
        # --threads is accepted and changes nothing: the walk runs in one process
        docs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.json"
            argv = ["verify", "kerov", "--max-size", "6", "--threads", threads, "--json"]
            assert cli.main([*argv, "--out", str(out)]) == 0
            records = json.loads(out.read_text())["checks"]
            docs.append([{**rec, "elapsed_ms": None} for rec in records])
        assert docs[0] == docs[1]

    def test_the_walk_takes_sizes_past_the_sweep_bound(self):
        mu = (5, 5)
        assert kv.count_factorizations(mu) == kv.factorization_count_closed_form(mu)

    def test_the_sweep_past_its_bound_is_refused_before_any_long_cycle(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(oracles, "_inverse_long_cycles", no_work)
        with pytest.raises(ValueError, match="capped at size 9"):
            oracles.factorization_counts_by_type((5, 5))


class TestFactorizationSweep:
    def test_walk_equals_the_brute_force_sweep(self):
        # the by-type distribution builds every long cycle in full; past
        # size 7 that gets slow, and the closed form stands in for it
        for n in range(1, 10):
            mus = list(kv.partitions_of(n))
            if n <= 7:
                want = [
                    sum(
                        c
                        for lam, c in oracles.factorization_counts_by_type(mu).items()
                        if len(lam) == kv.cycle_index(mu) - 1
                    )
                    for mu in mus
                ]
            else:
                want = [kv.factorization_count_closed_form(mu) for mu in mus]
            assert [kv.count_factorizations(mu) for mu in mus] == want

    def test_walk_past_the_bound_equals_the_closed_form(self):
        # the size bound is the brute-force sweep's; the walk, which
        # raises unless it covered (n-1)! long cycles, reaches sizes 10
        # and 11 in well under a second
        for n, partitions in ((10, 42), (11, 56)):
            mus = list(kv.partitions_of(n))
            assert len(mus) == partitions
            for mu in mus:
                assert kv.count_factorizations(mu) == kv.factorization_count_closed_form(mu)

    def test_the_memo_needs_the_cycles_still_needed(self, monkeypatch):
        # keyed on the residual cycle type alone, a branch is credited
        # with a count solved for another target; coverage cannot tell
        real = kv._residual
        monkeypatch.setattr(kv, "_residual", lambda *args: real(*args)[:2])
        wrong = [
            mu
            for n in range(1, 10)
            for mu in kv.partitions_of(n)
            if kv.count_factorizations(mu) != kv.factorization_count_closed_form(mu)
        ]
        assert wrong and wrong[0] == (3, 1, 1)

    def test_each_residual_subproblem_is_solved_once(self):
        # the walk without a memo makes 971,100 calls over sizes 1-9
        profile = cProfile.Profile()
        profile.enable()
        for n in range(1, 10):
            for mu in kv.partitions_of(n):
                kv.count_factorizations(mu)
        profile.disable()
        calls = sum(
            stat[1]
            for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if name == "place" and path == kv.__file__
        )
        assert 0 < calls < 20_000

    def test_empty_partition_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(oracles, "_inverse_long_cycles", no_work)
        monkeypatch.setattr(kv, "_walk", no_work)
        with pytest.raises(ValueError, match="nonempty"):
            kv.count_factorizations(())
        with pytest.raises(ValueError, match="nonempty"):
            oracles.factorization_counts_by_type(())

    @pytest.mark.parametrize("defect", ["drop", "double"])
    def test_a_lost_or_doubled_long_cycle_raises(self, monkeypatch, defect):
        real_sweep, real_walk = oracles._inverse_long_cycles, kv._walk

        def sweep(n):
            composers = list(real_sweep(n))
            return composers[:-1] if defect == "drop" else composers + composers[-1:]

        def walk(sigma, target):
            hits, covered = real_walk(sigma, target)
            return hits, covered - 1 if defect == "drop" else covered + 1

        monkeypatch.setattr(oracles, "_inverse_long_cycles", sweep)
        with pytest.raises(RuntimeError, match="covered"):
            oracles.factorization_counts_by_type((3, 2))
        monkeypatch.setattr(kv, "_walk", walk)
        with pytest.raises(RuntimeError, match="covered"):
            kv.count_factorizations((3, 2))
        with pytest.raises(RuntimeError, match="covered"):
            cli.main(["verify", "kerov", "--max-size", "5"])


class TestBedardGoupil:
    def test_worked_example(self):
        assert kv.bedard_goupil((2, 1, 1), (2, 2)) == 4

    def test_matches_the_type_distribution(self):
        for n in range(2, 7):
            for mu in kv.partitions_of(n):
                j = kv.cycle_index(mu)
                by_type = oracles.factorization_counts_by_type(mu)
                for lam in kv.partitions_of(n):
                    if len(lam) != j - 1:
                        continue
                    assert kv.bedard_goupil(lam, mu) == by_type.get(lam, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kv.bedard_goupil((2, 1), (2, 2))
        with pytest.raises(ValueError):
            kv.bedard_goupil((3, 1), (2, 2))


class TestBinomialSimplification:
    def test_example_by_hand(self):
        mu = (2, 2)
        j = kv.cycle_index(mu)
        total = sum(
            factorial(j - 1)
            // prod(factorial(m) for m in Counter(lam).values())
            for lam in kv.partitions_of(sum(mu))
            if len(lam) == j - 1
        )
        assert total == comb(sum(mu) - 1, j - 2) == 3
        assert kv.binomial_simplification_check(mu)

    def test_sweep(self):
        for n in range(2, 8):
            for mu in kv.partitions_of(n):
                assert kv.binomial_simplification_check(mu)


class TestSignedCount:
    def test_examples(self):
        assert kv.signed_factorization_count((4,)) == 1
        assert kv.signed_factorization_count((3, 2)) == -6
        assert kv.signed_factorization_count((2, 2)) == -4
        assert kv.signed_factorization_count((2, 1, 1)) == 6

    def test_sign_alternates_with_length(self):
        for mu in kv.partitions_of(6):
            signed = kv.signed_factorization_count(mu)
            assert signed == (-1) ** (len(mu) - 1) * abs(signed)


@pytest.fixture(scope="module")
def kerov_rows():
    """The per-partition rows of `verify kerov --max-size 8`."""
    return [row for v in cli.run_family("kerov", 8) for row in v.trace]


class TestTreeBridge:
    def test_values_all_agree(self, kerov_rows):
        mu = (3, 2)
        row = next(row for row in kerov_rows if row["mu"] == [3, 2])
        values = {
            row["count"],
            row["bg_sum"],
            abs(row["signed"]),
            row["tree_sum"],
            kv.factorization_count_closed_form(mu),
            kv.closed_rhs_at(mu),
        }
        assert values == {6}

    def test_check_sweep(self, kerov_rows):
        for row in kerov_rows:
            assert row["pass"]
            if len(row["mu"]) <= kv.TREE_BRIDGE_BOUND:
                assert row["tree_sum"] == row["count"]

    def test_length_cap(self, kerov_rows):
        capped = [row["mu"] for row in kerov_rows if row["tree_sum"] is None]
        assert capped == [[1] * 8]

    def test_evaluation_helpers_match_the_count(self):
        mu = (2, 2, 1)
        count = kv.count_factorizations(mu)
        assert kv.closed_rhs_at(mu) == count
        assert kv.tree_sum_at(mu) == count
