"""Hook weights and the summation identities they satisfy."""

import json
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import increasing_trees, subtree_sizes, tree_weight
from test_mutants import apply_mutant, failed_at_bound_6

import hooklab.cli as cli
import hooklab.hookformula as hf
from hooklab.multipoly import MultiPoly, pack, top_homogeneous
from hooklab.trees import (
    _collapse,
    enumerate_binary,
    parent_vectors,
    subtree_totals,
)


def K(r):
    return MultiPoly.sum(r, (MultiPoly.variable(r, i) for i in range(r)))


def k(r, label):
    return MultiPoly.variable(r, label - 1)


def top_weight(labels, pv, ambient=None):
    """The top homogeneous part of the tree's expanded weight."""
    return top_homogeneous(tree_weight(labels, pv, ambient))


def on_labels(pv):
    """(labels, pv) of the tree on {1..len(pv)+1} with parent vector pv."""
    return tuple(range(1, len(pv) + 2)), pv


# the parent vector of the path and the star on {1..n}
def path(n):
    return tuple(range(n - 1))


def star(n):
    return (0,) * (n - 1)


class TestTreeWeight:
    def test_single_vertex(self):
        assert tree_weight((1,), ()) == MultiPoly.const(1, 1)

    def test_edge(self):
        assert tree_weight((1, 2), (0,)) == k(2, 1) * k(2, 2)

    def test_path_of_three(self):
        want = k(3, 1) * k(3, 2) * k(3, 3) * (k(3, 2) + k(3, 3) - 1)
        assert tree_weight(*on_labels(path(3))) == want

    def test_star_of_three(self):
        assert tree_weight(*on_labels(star(3))) == k(3, 1) ** 2 * k(3, 2) * k(3, 3)

    def test_nine_vertex_fixture(self):
        # parents of labels 2..9: 1, 2, 1, 2, 5, 4, 5, 2
        t = on_labels((0, 1, 0, 1, 4, 3, 4, 1))
        v = lambda i: k(9, i)
        want = (
            v(1) * (v(2) + v(3) + v(5) + v(6) + v(8) + v(9) - 5)
            * v(2) * v(3)
            * v(1) * (v(4) + v(7) - 1)
            * v(2) * (v(5) + v(6) + v(8) - 2)
            * v(5) * v(6)
            * v(4) * v(7)
            * v(5) * v(8)
            * v(2) * v(9)
        )
        assert tree_weight(*t) == want

    def test_every_weight_is_divisible_by_the_variable_product(self):
        for r in range(2, 6):
            for pv in parent_vectors(r):
                w = tree_weight(*on_labels(pv))
                assert all(min(e) >= 1 for e in w.terms)

    def test_ambient_padding(self):
        w = tree_weight((1, 2), (0,), ambient=4)
        assert w.nvars == 4 and w == k(4, 1) * k(4, 2)
        with pytest.raises(ValueError):
            tree_weight((1, 2), (0,), ambient=1)


class TestHookWeightSum:
    def test_smallest_cases(self):
        assert hf.hook_weight_sum(1) == MultiPoly.const(1, 1)
        assert hf.hook_weight_sum(2) == k(2, 1) * k(2, 2)
        want = k(3, 1) * k(3, 2) * k(3, 3) * (K(3) - 1)
        assert hf.hook_weight_sum(3) == want

    def test_matches_closed_form(self):
        for r in range(1, 7):
            assert hf.hook_weight_sum(r) == hf.hook_weight_closed_form(r)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hf.hook_weight_sum(0)

    @pytest.mark.parametrize("labels", [(1, 1), (0, 1), (1, True), (1, 3), ()])
    def test_bad_labels_are_refused(self, labels):
        with pytest.raises(ValueError):
            hf.tree_weight_sum(labels, 2)
        with pytest.raises(ValueError):
            hf.subset_closed_form(labels, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(1, 7), min_size=1))
    def test_subset_sums_match_the_subset_closed_form(self, labels):
        assert hf.tree_weight_sum(labels, 7) == hf.subset_closed_form(labels, 7)


class TestPendingSweep:
    """The weight sums of _weight_sum and the guards of the recursion
    over sizes that builds them."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(1, 7), min_size=1),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_sweep_matches_the_per_tree_sum(self, labels, pad, top_only):
        labels = tuple(sorted(labels))
        ambient = labels[-1] + pad
        weight = top_weight if top_only else tree_weight
        want = MultiPoly.sum(
            ambient, (weight(*t, ambient) for t in increasing_trees(labels))
        )
        got = hf._weight_sum(labels, ambient, top_only)
        assert MultiPoly._raw(ambient, got) == want

    def test_one_and_two_labels(self):
        for top_only in (False, True):
            assert hf._weight_sum((3,), 4, top_only) == {0: 1}
            pair = hf._weight_sum((2, 5), 5, top_only)
            assert MultiPoly._raw(5, pair) == k(5, 2) * k(5, 5)
        assert hf.top_weight_sum(1) == MultiPoly.const(1, 1)
        assert hf.top_weight_sum(2) == k(2, 1) * k(2, 2)
        hf.tree_weight_sum.cache_clear()
        assert hf.hook_weight_sum(2) == k(2, 1) * k(2, 2)

    @pytest.mark.parametrize("top_only", [False, True])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_size_matches_the_per_tree_sum(self, n, pad, top_only):
        labels = tuple(range(1, n + 1))
        ambient = n + pad
        weight = top_weight if top_only else tree_weight
        want = MultiPoly.sum(
            ambient, (weight(*t, ambient) for t in increasing_trees(labels))
        )
        got = hf._weight_sum(labels, ambient, top_only)
        assert MultiPoly._raw(ambient, got) == want

    def test_the_guard_fires_through_the_finish(self):
        # every one of the 8 products on five positions sums two 16384 steps
        def step(e):
            return lambda positions: {pack((e,)): 1}

        with pytest.raises(OverflowError):
            hf._split_sum(5, step(16384), step(16384))
        assert hf._split_sum(5, step(16383), step(16383)) == {32766: 8}

    @staticmethod
    def count_products(monkeypatch) -> list:
        products = []
        real_addmul, real_mul = hf.addmul_terms, hf.mul_terms

        def addmul(acc, a, b):
            products.append(len(a) * len(b))
            return real_addmul(acc, a, b)

        def mul(a, b):
            products.append(len(a) * len(b))
            return real_mul(a, b)

        monkeypatch.setattr(hf, "addmul_terms", addmul)
        monkeypatch.setattr(hf, "mul_terms", mul)
        return products

    def test_the_r8_sum_stays_under_its_product_budget(self, monkeypatch):
        products = self.count_products(monkeypatch)
        hf.tree_weight_sum.cache_clear()
        try:
            assert hf.hook_weight_sum(8) == hf.hook_weight_closed_form(8)
        finally:
            hf.tree_weight_sum.cache_clear()
        # the pending-subtree sweep that split by parent positions took 151,647
        assert sum(products) < 60_000

    def test_the_sums_to_r9_stay_under_their_product_budget(self, monkeypatch):
        products = self.count_products(monkeypatch)
        hf.tree_weight_sum.cache_clear()
        try:
            for r in range(1, 10):
                hf.hook_weight_sum(r)
        finally:
            hf.tree_weight_sum.cache_clear()
        # the pending-subtree sweep took 1.42 M at r = 9 alone
        assert sum(products) < 400_000

    @pytest.mark.parametrize("defect", ["drop", "double"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_a_lost_or_doubled_branch_raises(self, monkeypatch, defect, size):
        real = hf._subtree_choices

        def mutant(n):
            choices = list(real(n))
            if n == size:
                return choices[:-1] if defect == "drop" else choices + choices[-1:]
            return choices

        monkeypatch.setattr(hf, "_subtree_choices", mutant)
        hf.tree_weight_sum.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="covered"):
                hf.hook_weight_sum(5)
            with pytest.raises(RuntimeError, match="covered"):
                cli.main(["verify", "theorem1", "--r", "5"])
            with pytest.raises(RuntimeError, match="covered"):
                hf.increasing_hook_sum(5)
        finally:
            hf.tree_weight_sum.cache_clear()

    def test_a_changed_edge_constant_fails_the_checks_that_regroup_the_sum(
        self, monkeypatch, tmp_path
    ):
        # 2 - |B| for 1 - |B| in the recursion only: the closed-form pq
        # checks cannot see it, the regrouped sums must
        apply_mutant(monkeypatch, "_edge_factor")
        hf.tree_weight_sum.cache_clear()
        try:
            for check in ("theorem1", "grafting", "root-recurrence", "pq"):
                out = tmp_path / f"{check}.json"
                argv = ["verify", check, "--r", "6", "--json", "--out", str(out)]
                assert cli.main(argv) == (0 if check == "pq" else 1)
                records = json.loads(out.read_text())["checks"]
                failed = {(c["check"], c["params"]["r"]) for c in records if not c["equal"]}
                if check == "pq":
                    assert not failed
                else:
                    name = "grafting/split" if check == "grafting" else check
                    assert {(name, r) for r in range(3, 7)} <= failed
        finally:
            hf.tree_weight_sum.cache_clear()


class TestUniformSpecialization:
    def test_single_vertex_sides(self):
        lhs, rhs = hf.increasing_hook_sum(1)
        assert lhs == rhs
        x = MultiPoly.variable(1, 0)
        assert lhs == x + 1

    def test_two_vertices_by_hand(self):
        lhs, rhs = hf.increasing_hook_sum(2)
        x = MultiPoly.variable(1, 0)
        assert lhs == (2 * x + 1) * (x + 1) == rhs

    def test_sweep(self):
        for r in range(1, 8):
            lhs, rhs = hf.increasing_hook_sum(r)
            assert lhs == rhs

    def test_chain_back_through_the_multivariate_sum(self):
        for r in range(1, 7):
            lhs, rhs = hf.uniform_chain_sides(r)
            assert lhs == rhs
            passed = hf.uniform_chain_sides(r, hf.increasing_hook_sum(r)[0])
            assert passed == (lhs, rhs)

    def test_a_dropped_vertex_constant_fails_postnikov_only(self, monkeypatch):
        # x*n in place of x*n + 1 at every vertex with a child
        apply_mutant(monkeypatch, "_vertex_factor")
        assert failed_at_bound_6() == {
            (check, r) for check in ("postnikov", "postnikov/chain") for r in range(2, 7)
        }


class TestBinaryShapes:
    def test_one_vertex_by_hand(self):
        lhs, rhs = hf.binary_hook_sum(1)
        x = MultiPoly.variable(1, 0)
        assert lhs == x + 1 == rhs

    def test_sweep(self):
        for n in range(1, 8):
            lhs, rhs = hf.binary_hook_sum(n)
            assert lhs == rhs

    def test_reciprocal_hooks_sum_to_one(self):
        for n in range(1, 9):
            total = hf.binary_reciprocal_hook_sum(n)
            assert total == 1 and isinstance(total, Fraction)

    def test_split_sums_equal_the_shape_by_shape_sums(self):
        x = MultiPoly.variable(1, 0)
        for n in range(1, 9):
            lhs = MultiPoly.const(1, 0)
            reciprocal = Fraction(0)
            for shape in enumerate_binary(n):
                sizes = subtree_sizes(shape)
                term = MultiPoly.const(1, factorial(n) // prod(sizes))
                for h in sizes:
                    term = term * (h * x + 1)
                lhs = lhs + term
                reciprocal += Fraction(1, prod(sizes))
            assert hf.binary_hook_sum(n)[0] == lhs
            assert hf.binary_reciprocal_hook_sum(n) == reciprocal

    def test_no_vertices_is_refused(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                hf.binary_hook_sum(n)
            with pytest.raises(ValueError):
                hf.binary_reciprocal_hook_sum(n)

    # each mutant of the split (rows of test_mutants.MUTANTS) and the
    # checks it fails at n = 1..6; the hook mutant keeps the root hook 1
    SPLIT_MUTANTS = {
        "wrong binomial": [("shape-identity", n) for n in range(2, 7)],
        "dropped split": [
            (check, n) for n in range(1, 7) for check in ("shape-identity", "reciprocal-sum")
        ],
        "root hook m - 1": [
            (check, n) for n in range(2, 7) for check in ("shape-identity", "reciprocal-sum")
        ],
    }

    @pytest.mark.parametrize("mutant", SPLIT_MUTANTS)
    def test_a_changed_split_fails_the_sums_it_feeds(self, monkeypatch, capsys, mutant):
        want = self.SPLIT_MUTANTS[mutant]
        apply_mutant(monkeypatch, "_binary_split: " + mutant)
        assert cli.main(["verify", "binary-hooks", "--n", "6", "--json"]) == 1
        records = json.loads(capsys.readouterr().out)["checks"]
        failed = [(c["check"], c["params"]["n"]) for c in records if not c["equal"]]
        assert failed == [("binary-hooks/" + check, n) for check, n in want]


class TestLinearExtensions:
    def test_examples(self):
        assert hf.linear_extension_check(()) == (1, 1)
        assert hf.linear_extension_check(path(3)) == (1, 1)
        assert hf.linear_extension_check(star(3)) == (2, 2)

    def test_count_equals_hook_quotient(self):
        for r in range(1, 7):
            for pv in parent_vectors(r):
                lext, quotient = hf.linear_extension_check(pv)
                sizes = subtree_totals([1] * r, pv)
                assert lext == quotient
                assert lext * prod(sizes) == factorial(r)

    def test_path_and_star_by_hand(self):
        # a path has one order; a star orders its n-1 leaves freely
        assert hf.linear_extension_check(path(6)) == (1, 1)
        assert hf.linear_extension_check(star(6)) == (120, 120)

    def test_count_matches_filtered_permutations(self):
        for r in range(1, 7):
            for pv in parent_vectors(r):
                brute = 0
                for order in permutations(range(r)):
                    at = {v: i for i, v in enumerate(order)}
                    brute += all(at[p] < at[j] for j, p in enumerate(pv, 1))
                assert hf.linear_extension_check(pv)[0] == brute

    def test_ten_vertices_by_hand(self):
        # the count's cost follows the frontiers, not the size: 11 on the path
        assert hf.linear_extension_check(path(10)) == (1, 1)
        assert hf.linear_extension_check(star(10)) == (factorial(9), factorial(9))


class TestTopWeight:
    """The weight with each factor's constant dropped, as _weight_terms
    gives it under top_only, is the top homogeneous part of the weight."""

    @staticmethod
    def top_only(pv):
        r = len(pv) + 1
        units = hf._label_keys(range(1, r + 1), r)
        return MultiPoly._raw(r, hf._weight_terms(units, pv, True))

    def test_path_drops_only_the_constant(self):
        want = k(3, 1) * k(3, 2) * k(3, 3) * (k(3, 2) + k(3, 3))
        assert self.top_only(path(3)) == top_weight(*on_labels(path(3))) == want

    def test_homogeneous_weight_is_unchanged(self):
        t = on_labels(star(3))
        assert self.top_only(star(3)) == top_weight(*t) == tree_weight(*t)

    def test_agrees_with_top_homogeneous(self):
        for r in range(1, 6):
            for pv in parent_vectors(r):
                assert self.top_only(pv) == top_weight(*on_labels(pv))

    def test_a_kept_constant_fails_the_top_weight_checks(self, monkeypatch):
        # _linear_factor ignores top_only, in both bindings
        apply_mutant(monkeypatch, "_linear_factor")
        assert failed_at_bound_6() == {
            (check, r)
            for check in ("cayley/top-weight-sum", "fibers/degree-sum", "fibers/top-of-weight")
            for r in range(3, 7)
        }


class TestCayleyIdentity:
    def test_two_and_three_by_hand(self):
        lhs, rhs = hf.cayley_degree_identity(2)
        assert lhs == rhs == k(2, 1) * k(2, 2)
        lhs, rhs = hf.cayley_degree_identity(3)
        assert lhs == rhs == k(3, 1) * k(3, 2) * k(3, 3) * K(3)

    def test_sweep(self):
        for r in range(2, 6):
            lhs, rhs = hf.cayley_degree_identity(r)
            assert lhs == rhs

    def test_threads_do_not_change_the_sum(self, tmp_path):
        # --threads is accepted and changes nothing: the sum runs in one process
        docs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.json"
            argv = ["verify", "cayley", "--r", "5", "--threads", threads, "--json"]
            assert cli.main([*argv, "--out", str(out)]) == 0
            records = json.loads(out.read_text())["checks"]
            docs.append([{**rec, "elapsed_ms": None} for rec in records])
        assert docs[0] == docs[1]

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            hf.cayley_degree_identity(1)



class TestFibers:
    """cayley_fiber_sums keys each fiber by the parent vector of its image,
    as trees.parent_vectors yields it."""

    def test_examples(self):
        assert hf.cayley_fiber_sums(1) == {(): MultiPoly.const(1, 1)}
        assert hf.cayley_fiber_sums(2)[(0,)] == k(2, 1) * k(2, 2)
        sums = hf.cayley_fiber_sums(3)
        # the path 1-2-3
        want = k(3, 1) * k(3, 2) * k(3, 3) * (k(3, 2) + k(3, 3))
        assert sums[(0, 1)] == want
        # the star at 1
        assert sums[(0, 0)] == k(3, 1) ** 2 * k(3, 2) * k(3, 3)

    def test_fiber_sums_are_the_top_weights(self):
        for r in range(1, 6):
            sums = hf.cayley_fiber_sums(r)
            assert set(sums) == set(parent_vectors(r))
            for pv in parent_vectors(r):
                assert sums[pv] == top_weight(*on_labels(pv), r)

    def test_a_changed_mapping_does_not_reach_the_next_call(self):
        sums = hf.cayley_fiber_sums(4)
        t = next(iter(sums))
        want = sums.pop(t)
        sums.clear()
        assert hf.cayley_fiber_sums(4)[t] == want

    def test_totals_cross_check(self):
        for r in range(2, 6):
            lhs, _ = hf.cayley_degree_identity(r)
            assert hf.top_weight_sum(r) == lhs

    def test_unknown_tree_is_refused(self):
        sums = hf.cayley_fiber_sums(3)
        # a vector of the wrong length, and one whose label 3 hangs from itself
        assert (0, 0, 0) not in sums and (0, 2) not in sums

    def test_degree_monomials_only(self):
        # the fiber polynomial of phi(u) for the path u = 1-2-3, which
        # phi fixes, collects one monomial per preimage
        poly = hf.cayley_fiber_sums(3)[_collapse(3, [(1, 2), (2, 3)])]
        assert all(sum(e) == 2 * (3 - 1) for e in poly.terms)
        assert poly.coefficient((1, 2, 1)) == 1

    def test_a_doubled_tree_fails_the_degree_sum_and_the_partition(
        self, monkeypatch, tmp_path
    ):
        apply_mutant(monkeypatch, "cayley_edge_lists")
        out = tmp_path / "f.json"
        assert cli.main(["verify", "fibers", "--r", "5", "--json", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["checks"]
        assert [(rec["check"], rec["params"]["r"]) for rec in records if not rec["equal"]] == [
            (check, r) for r in range(1, 6) for check in ("fibers/degree-sum", "fibers/partition")
        ]
