"""Inductive derivations of the hook weight sum and the series oracle."""

import json
import random
import warnings
from itertools import combinations, product
from math import factorial
from pathlib import Path

import oracles
import pytest
from oracles import increasing_trees, split_at_second_min, tree_weight
from test_mutants import apply_mutant, failed_at_bound_6

import hooklab.cli as cli
import hooklab.hookformula as hf
import hooklab.recurrences as rc
from hooklab.hookformula import (
    hook_weight_closed_form,
    hook_weight_sum,
    subset_closed_form,
)
from hooklab.multipoly import MultiPoly, falling_factorial
from hooklab.trees import parent_vectors

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"


def K(r):
    return MultiPoly.sum(r, (MultiPoly.variable(r, i) for i in range(r)))


def k(r, label):
    return MultiPoly.variable(r, label - 1)


def swept(family, check, r_max):
    """The verdicts named check of one verify family swept to r_max."""
    return [v for v in cli.run_family(family, r_max) if v.check == check]


class TestSetPartitions:
    def test_small_cases(self):
        assert list(rc.set_partitions(())) == [()]
        assert list(rc.set_partitions((5,))) == [((5,),)]
        assert list(rc.set_partitions((2, 3))) == [((2,), (3,)), ((2, 3),)]

    def test_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203]
        for n, b in enumerate(bell):
            parts = list(rc.set_partitions(tuple(range(n))))
            assert len(parts) == b
            for part in parts:
                merged = sorted(x for block in part for x in block)
                assert merged == list(range(n))


class TestSplitVersusClosed:
    def test_base_cases(self):
        one = MultiPoly.const(2, 1)
        assert rc.split_polynomial(2) == one
        assert rc.closed_polynomial(2) == one
        assert rc.split_polynomial(3) == K(3) - 1 == rc.closed_polynomial(3)

    def test_sweep(self):
        for r in range(2, 7):
            assert rc.split_polynomial(r) == rc.closed_polynomial(r)

    def test_summands_cover_each_subset_once(self):
        seen = set()
        for x1, x2, _ in rc.split_summands(5):
            assert set(x1) | set(x2) == {3, 4, 5}
            assert not set(x1) & set(x2)
            seen.add(x1)
        assert len(seen) == 8


class TestConstantTerm:
    def test_three_vertices_by_hand(self):
        lhs, rhs = rc.constant_term_sides(3)
        assert lhs == rhs == k(3, 2) + k(3, 3) - 1

    def test_sweep_both_families(self):
        reports = swept("pq", "pq/constant-term", 6)
        assert [(v.params["r"], v.params["family"]) for v in reports] == [
            (r, family) for r in range(2, 7) for family in ("split", "closed")
        ]
        assert all(v.equal for v in reports)
        for r in range(2, 7):
            for family in (rc.split_polynomial, rc.closed_polynomial):
                lhs, rhs = rc.constant_term_sides(r, family)
                assert lhs == rhs


class TestFiniteDifference:
    def test_two_vertices_is_the_empty_sum(self):
        lhs, rhs = rc.finite_difference_sides(2)
        assert lhs == rhs == MultiPoly.zero(2)

    def test_three_vertices_by_hand(self):
        lhs, rhs = rc.finite_difference_sides(3)
        assert lhs == rhs == MultiPoly.const(3, 1)

    def test_sweep_both_families(self):
        reports = swept("pq", "pq/finite-difference", 6)
        assert [(v.params["r"], v.params["family"]) for v in reports] == [
            (r, family) for r in range(2, 7) for family in ("split", "closed")
        ]
        assert all(v.equal for v in reports)
        for r in range(2, 7):
            for family in (rc.split_polynomial, rc.closed_polynomial):
                lhs, rhs = rc.finite_difference_sides(r, family)
                assert lhs == rhs


class TestGrafting:
    def test_edge_by_hand(self):
        lhs, rhs = oracles.grafting_law_sides((1, 2), (0,))
        assert lhs == rhs == k(2, 1) * k(2, 2)

    def test_law_holds_for_every_tree(self):
        for r in range(2, 7):
            for pv in parent_vectors(r):
                lhs, rhs = oracles.grafting_law_sides(labels_of(pv), pv)
                assert lhs == rhs

    def test_single_vertex_cannot_split(self):
        with pytest.raises(ValueError):
            oracles.grafting_law_sides((1,), ())

    def test_split_three_by_hand(self):
        lhs, rhs = rc.grafting_split_sides(3)
        assert lhs == rhs == hook_weight_sum(3)

    def test_check_runs_both_parts(self):
        reports = cli.run_family("grafting", 6)
        assert [(v.check, v.params["r"]) for v in reports] == [
            (check, r) for r in range(2, 7) for check in ("grafting/law", "grafting/split")
        ]
        assert all(v.equal for v in reports)


def labels_of(pv):
    """The labels {1..len(pv)+1} of the tree with parent vector pv."""
    return tuple(range(1, len(pv) + 2))


def law_verdicts(r_max=6):
    """{parent vector: (factored verdict, expanded verdict)} of every tree
    on {1..r} for r = 2..r_max."""
    out = {}
    for r in range(2, r_max + 1):
        for pv in parent_vectors(r):
            lhs, rhs = oracles.grafting_law_sides(labels_of(pv), pv, r)
            out[pv] = (rc.grafting_law_holds(pv), lhs == rhs)
    return out


def count_expansions(monkeypatch):
    """Patch the expanded sides, oracles.grafting_law_sides, to count
    their calls; returns the counter."""
    calls = [0]
    real = oracles.grafting_law_sides

    def counted(labels, pv, ambient=None):
        calls[0] += 1
        return real(labels, pv, ambient)

    monkeypatch.setattr(oracles, "grafting_law_sides", counted)
    return calls


class TestFactoredLaw:
    """grafting_law_holds compares factored weights alone; by unique
    factorization its verdict is that of the expanded sides."""

    def test_the_split_is_split_at_second_min(self):
        for r in range(2, 7):
            for pv in parent_vectors(r):
                halves = split_at_second_min(labels_of(pv), pv)
                for (at, sub_pv), (labels, want_pv) in zip(rc._graft_split(pv), halves):
                    assert tuple(p + 1 for p in at) == labels
                    assert sub_pv == want_pv

    def test_a_single_vertex_cannot_split(self):
        with pytest.raises(ValueError):
            rc.grafting_law_holds(())

    @pytest.mark.parametrize(
        "pv",
        [(0, 2), (0, 1, 3), (0, -1), (0, True), (True,), (1,), (0, 1.0), (0, "1")],
        ids=repr,
    )
    def test_a_malformed_parent_vector_is_refused(self, pv):
        for check in (rc.grafting_law_holds, hf.linear_extension_check):
            with pytest.raises(ValueError, match=r"parent vector entry \d+ must be an int"):
                check(pv)

    def test_correct_code_decides_without_the_fallback(self, monkeypatch):
        # no polynomial is multiplied out: the factored forms decide
        products = [0]
        real = hf.mul_terms

        def counted(a, b):
            products[0] += 1
            return real(a, b)

        monkeypatch.setattr(hf, "mul_terms", counted)
        assert all(rc.grafting_law_holds(pv) for r in range(2, 7) for pv in parent_vectors(r))
        assert products[0] == 0

    def test_a_changed_factor_constant_gives_the_expanded_verdict(self, monkeypatch):
        def shifted(keys, top_only=False):
            # 2 - |S| in place of 1 - |S|, a zero constant dropped
            lin = dict.fromkeys(keys, 1)
            if not top_only and len(keys) != 1 and len(keys) != 2:
                lin[0] = 2 - len(keys)
            return lin

        monkeypatch.setattr(hf, "_linear_factor", shifted)
        monkeypatch.setattr(rc, "_linear_factor", shifted)
        verdicts = law_verdicts()
        assert all(factored == expanded for factored, expanded in verdicts.values())
        assert hf._hook_factor(3, (1, 2, 3)).coefficient((0, 0, 0)) == -1

    def test_dropped_leaf_factors_fail_the_law_and_the_fiber_sums(self, monkeypatch):
        # the factors of single vertices dropped, in both bindings: patched
        # in hookformula alone the law's two sides lose the same factors
        apply_mutant(monkeypatch, "_weight_factors")
        assert failed_at_bound_6() == {
            (check, r) for check in ("grafting/law", "fibers/degree-sum") for r in range(2, 7)
        }

    def test_the_expanded_sides_alone_give_the_same_report(self, monkeypatch, tmp_path):
        def expanded(pv):
            lhs, rhs = oracles.grafting_law_sides(labels_of(pv), pv)
            return lhs == rhs

        monkeypatch.setattr(rc, "grafting_law_holds", expanded)
        calls = count_expansions(monkeypatch)
        out = tmp_path / "grafting.json"
        assert cli.main(["verify", "grafting", "--r", "6", "--json", "--out", str(out)]) == 0
        assert calls[0] == sum(factorial(r - 1) for r in range(2, 7))
        records = json.loads(out.read_text())["checks"]
        golden = json.loads(GOLDEN.read_text())["checks"]
        for record in records:
            del record["elapsed_ms"]
        assert records == [
            rec for rec in golden if rec["check"].startswith("grafting/") and rec["params"]["r"] <= 6
        ]


class TestSubsetClosedForm:
    def test_singleton_is_one(self):
        assert subset_closed_form([4], 5) == MultiPoly.const(5, 1)

    def test_pair(self):
        assert subset_closed_form([2, 3], 3) == k(3, 2) * k(3, 3)

    def test_full_set_matches_the_main_closed_form(self):
        for r in range(1, 6):
            assert subset_closed_form(range(1, r + 1), r) == hook_weight_closed_form(r)

    def test_matches_the_tree_sum_on_sublabels(self):
        for labels in combinations(range(1, 6), 3):
            total = MultiPoly.sum(
                5, (tree_weight(*t, 5) for t in increasing_trees(labels))
            )
            assert subset_closed_form(labels, 5) == total


class TestRootDegree:
    def test_two_and_three_by_hand(self):
        lhs, rhs = rc.root_degree_sides(2)
        assert lhs == rhs == k(2, 1) * k(2, 2)
        lhs, rhs = rc.root_degree_sides(3)
        v1, v2, v3 = (k(3, i) for i in (1, 2, 3))
        assert lhs == rhs == v1 * v2 * v3 * (v2 + v3 - 1) + v1**2 * v2 * v3

    def test_sweep(self):
        reports = swept("root-recurrence", "root-recurrence", 6)
        assert [v.params["r"] for v in reports] == list(range(2, 7))
        assert all(v.equal for v in reports)

    def test_one_summand_per_partition(self):
        parts = list(rc.root_degree_summands(5))
        assert len(parts) == 15  # Bell number of {2,3,4,5}


class TestBlockBridge:
    def test_falling_factorial_absorption(self):
        # (K_B - |B| + 1) * closed(B) = (prod k_B) * (K_B - 1)_(|B|-1)
        for size in range(1, 5):
            for block in combinations(range(2, 6), size):
                kb = MultiPoly.sum(5, (k(5, b) for b in block))
                prod = MultiPoly.const(5, 1)
                for b in block:
                    prod = prod * k(5, b)
                lhs = (kb - (size - 1)) * subset_closed_form(block, 5)
                rhs = prod * falling_factorial(kb - 1, size - 1)
                assert lhs == rhs

    def test_summands_agree_partition_by_partition(self):
        for r in range(2, 6):
            for (p1, a), (p2, b) in zip(
                rc.root_degree_summands(r), rc.lagrange_summands(r)
            ):
                assert p1 == p2
                assert a == b

    @pytest.mark.parametrize(
        "summands, inner",
        [
            ("root_degree_summands", "tree_weight_sum"),
            ("lagrange_summands", "falling_factorial"),
        ],
    )
    def test_each_block_factor_is_built_once(self, summands, inner, monkeypatch):
        calls = []
        real = getattr(rc, inner)
        monkeypatch.setattr(rc, inner, lambda *args: calls.append(args) or real(*args))
        for r in range(2, 8):
            calls.clear()
            for _ in getattr(rc, summands)(r):
                pass
            # one factor per nonempty subset of {2..r}, none rebuilt
            assert len(calls) == 2 ** (r - 1) - 1


class TestLagrangeIdentity:
    def test_two_by_hand(self):
        lhs, rhs = rc.lagrange_identity_sides(2)
        assert lhs == rhs == k(2, 1) * k(2, 2)

    def test_sweep(self):
        reports = swept("mvl", "mvl", 6)
        assert [v.params["r"] for v in reports] == list(range(2, 7))
        assert all(v.equal for v in reports)


class TestSubsetProduct:
    def test_square_free_window(self):
        # coefficient lists on t1, t2 indexed by bitmask: 1, t1, t2, t1 t2
        t1, one = [0, 1, 0, 0], [1, 0, 0, 0]
        assert [rc._subset_entry(t1, t1, m) for m in range(4)] == [0, 0, 0, 0]
        assert [rc._subset_entry([1, 1, 0, 0], [1, -1, 0, 0], m) for m in range(4)] == one


def reference_product(a, b):
    """The whole product of two subset-indexed series, entry by entry."""
    out = [0] * len(a)
    for m in range(len(a)):
        s = m
        while True:
            out[m] += a[s] * b[m ^ s]
            if s == 0:
                break
            s = (s - 1) & m
    return out


def reference_oracle(r, kvals):
    """The fixed-point solver of w_i = t_i (1 + sum w)^(k_i): r passes over
    every subset, pass p settling total degree p, each pass raising the
    whole of nil = sum w to the powers below r."""
    full = 1 << r
    w = [[0] * full for _ in range(r)]
    for _ in range(r):
        nil = list(map(sum, zip(*w)))
        powers = [[1] + [0] * (full - 1), nil]
        while len(powers) < r:
            powers.append(reference_product(powers[-1], nil))
        base = {}
        for k in set(kvals):
            base[k], c = [0] * full, 1
            for j, p in enumerate(powers):
                base[k] = [a + c * b for a, b in zip(base[k], p)]
                c = c * (k - j) // (j + 1)
        w = [[m >> i & 1 and base[k][m ^ 1 << i] for m in range(full)]
             for i, k in enumerate(kvals)]
    return w[0][full - 1]


def oracle_warnings(r, kvals):
    """(oracle value, first words of each warning it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = rc.lagrange_series_oracle(r, kvals)
    return got, [str(w.message)[:12] for w in caught]


class TestSeriesOracle:
    def test_worked_examples(self):
        assert rc.lagrange_series_oracle(2, [1, 1]) == 1
        assert rc.lagrange_series_oracle(3, [2, 1, 1]) == 6
        assert rc.lagrange_series_oracle(4, [1, 2, 3, 4]) == 72

    def test_matches_closed_form_on_random_inputs(self):
        # and the fixed-point reference, negative exponents included
        rng = random.Random(424242)
        for _ in range(400):
            r = rng.randint(1, 7)
            kvals = [rng.randint(-4, 12) for _ in range(r)]
            got, _ = oracle_warnings(r, kvals)
            assert got == reference_oracle(r, kvals) == rc.oracle_closed_form(r, kvals), kvals

    def test_closed_form_examples(self):
        assert rc.oracle_closed_form(1, [5]) == 1
        assert rc.oracle_closed_form(2, [3, 4]) == 3
        assert rc.oracle_closed_form(4, [1, 2, 3, 4]) == 72

    def test_non_positive_exponents_warn_but_compute(self):
        with pytest.warns(UserWarning):
            assert rc.lagrange_series_oracle(2, [0, 1]) == 0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_non_positive_grid_matches_closed_form(self, r):
        for kvals in product([-3, -1, 0, 2], repeat=r):
            got, caught = oracle_warnings(r, kvals)
            assert got == rc.oracle_closed_form(r, kvals), kvals
            # exactly the calls with a non-positive exponent warn
            assert caught == (["non-positive"] if min(kvals) <= 0 else []), kvals

    def test_the_r5_grid_matches_the_reference(self):
        for kvals in product([-2, 0, 1, 3], repeat=5):
            got, caught = oracle_warnings(5, kvals)
            assert got == reference_oracle(5, kvals) == rc.oracle_closed_form(5, kvals), kvals
            assert caught == (["non-positive"] if min(kvals) <= 0 else []), kvals

    def test_one_entry_per_subset_and_power(self, monkeypatch):
        # at r = 6 each proper subset m takes nil^j[m] for 2 <= j <= min(|m|, 5):
        # 15 + 20 * 2 + 15 * 3 + 6 * 4 entries; the full set needs only w_1
        calls = [0]
        real = rc._subset_entry

        def counted(a, b, m):
            calls[0] += 1
            return real(a, b, m)

        monkeypatch.setattr(rc, "_subset_entry", counted)
        assert rc.lagrange_series_oracle(6, [1, 2, 3, 4, 5, 6]) == rc.oracle_closed_form(
            6, [1, 2, 3, 4, 5, 6]
        )
        assert calls[0] == 124

    def test_validation(self):
        for solve in (rc.lagrange_series_oracle, rc.oracle_closed_form):
            with pytest.raises(ValueError):
                solve(3, [1, 2])
            for r, kvals in [(2, [1, "2"]), (2, [1.5, 2]), (3, [True, 2, 2])]:
                with pytest.raises(TypeError):
                    solve(r, kvals)
