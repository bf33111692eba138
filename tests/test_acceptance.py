"""End-to-end acceptance battery: ten criteria, each one line in the summary.

Every comparison below is exact polynomial or integer equality; there
are no tolerances anywhere.  The timing assertions are part of the
contract and fail honestly on a machine that cannot meet them.
"""

import json
import random
from collections import Counter
from math import comb, factorial
from time import perf_counter

from oracles import tree_weight

import hooklab.cli as cli
import hooklab.hookformula as hf
import hooklab.kerov as kv
import hooklab.recurrences as rc
import hooklab.trees as tr
from hooklab.multipoly import MultiPoly, top_homogeneous


def test_criterion_01_closed_form_sweep(acceptance):
    with acceptance(1, "tree weight sum matches its closed form through r=8"):
        hf.tree_weight_sum.cache_clear()
        for r in range(1, 9):
            t0 = perf_counter()
            assert hf.hook_weight_sum(r) == hf.hook_weight_closed_form(r)
            elapsed = perf_counter() - t0
            assert elapsed < 60.0
            if r <= 6:
                assert elapsed < 1.0


def test_criterion_02_nine_vertex_fixture(acceptance):
    with acceptance(2, "nine-vertex fixture weight matches the hand product"):
        # parents of labels 2..9: 1, 2, 1, 2, 5, 4, 5, 2
        labels, pv = tuple(range(1, 10)), (0, 1, 0, 1, 4, 3, 4, 1)
        v = lambda i: MultiPoly.variable(9, i - 1)
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
        assert tree_weight(labels, pv) == want


def test_criterion_03_uniform_specialization(acceptance):
    with acceptance(3, "uniform-weight product identity and its chain, r<=8"):
        for r in range(1, 9):
            lhs, rhs = hf.increasing_hook_sum(r)
            assert lhs == rhs
        for r in range(1, 9):
            lhs, rhs = hf.uniform_chain_sides(r)
            assert lhs == rhs


def test_criterion_04_binary_families(acceptance):
    with acceptance(4, "binary shape sums and labelling counts, size<=8, <10s"):
        t0 = perf_counter()
        for r in range(1, 9):
            for pv in tr.parent_vectors(r):
                lext, quotient = hf.linear_extension_check(pv)
                assert lext == quotient
        for n in range(1, 9):
            assert hf.binary_reciprocal_hook_sum(n) == 1
            lhs, rhs = hf.binary_hook_sum(n)
            assert lhs == rhs
        assert perf_counter() - t0 < 10.0


def test_criterion_05_unrooted_degree_sums(acceptance):
    with acceptance(5, "degree-monomial sum, collapse fibers, top weights, r<=6"):
        for r in range(2, 7):
            lhs, rhs = hf.cayley_degree_identity(r)
            assert lhs == rhs
        for r in range(1, 7):
            sums = hf.cayley_fiber_sums(r)
            assert set(sums) == set(tr.parent_vectors(r))
            labels = tuple(range(1, r + 1))
            for pv in tr.parent_vectors(r):
                assert sums[pv] == top_homogeneous(tree_weight(labels, pv, r))
            preimages = sum(
                int(c) for poly in sums.values() for c in poly.terms.values()
            )
            assert preimages == tr.cayley_count(r)


def test_criterion_06_splitting_recurrences(acceptance):
    with acceptance(6, "splitting recurrences agree with closed forms, r<=7"):
        for r in range(2, 8):
            assert rc.split_polynomial(r) == rc.closed_polynomial(r)
        reports = cli.run_family("pq", 7) + cli.run_family("grafting", 7)
        assert Counter(v.check for v in reports) == {
            "pq": 6,
            "pq/constant-term": 12,
            "pq/finite-difference": 12,
            "grafting/law": 6,
            "grafting/split": 6,
        }
        assert all(v.equal for v in reports)


def test_criterion_07_partition_recurrences(acceptance):
    with acceptance(7, "partition recurrences and the series oracle agree"):
        reports = cli.run_family("root-recurrence", 7) + cli.run_family("mvl", 7)
        assert Counter(v.check for v in reports) == {
            "root-recurrence": 6,
            "mvl": 6,
            "mvl/oracle": 1,
        }
        assert all(v.equal for v in reports)
        rng = random.Random(20139)
        for _ in range(50):
            r = rng.randint(2, 6)
            kvals = [rng.randint(1, 10) for _ in range(r)]
            assert rc.lagrange_series_oracle(r, kvals) == rc.oracle_closed_form(r, kvals)


def test_criterion_08_factorization_bridge(acceptance):
    with acceptance(8, "factorization counts match all closed forms, size<=8, <30s"):
        t0 = perf_counter()
        rows = {tuple(row["mu"]): row for v in cli.run_family("kerov", 8) for row in v.trace}
        for n in range(1, 9):
            for mu in kv.partitions_of(n):
                count = kv.count_factorizations(mu)
                assert count == kv.factorization_count_closed_form(mu)
                assert count == abs(kv.signed_factorization_count(mu))
                j = kv.cycle_index(mu)
                bg = sum(
                    kv.bedard_goupil(lam, mu)
                    for lam in kv.partitions_of(n)
                    if len(lam) == j - 1
                )
                assert bg == count
                assert kv.binomial_simplification_check(mu)
                assert rows[mu]["pass"]
                if len(mu) <= kv.TREE_BRIDGE_BOUND:
                    assert rows[mu]["tree_sum"] == count == kv.closed_rhs_at(mu)
        assert perf_counter() - t0 < 30.0


def test_criterion_09_counting_sanity(acceptance):
    with acceptance(9, "family sizes match factorial, power and Catalan counts"):
        for r in range(1, 9):
            family = set(tr.parent_vectors(r))
            assert len(family) == factorial(r - 1) == tr.increasing_count(r)
        for r in range(1, 7):
            family = {
                frozenset(tuple(sorted(e)) for e in edges) for edges in tr.cayley_edge_lists(r)
            }
            expected = 1 if r <= 2 else r ** (r - 2)
            assert len(family) == expected == tr.cayley_count(r)
        for n in range(0, 11):
            shapes = set(tr.enumerate_binary(n))
            assert len(shapes) == comb(2 * n, n) // (n + 1)


def test_criterion_10_deterministic_reports(acceptance, tmp_path):
    with acceptance(10, "verdicts and hashes are stable across runs and threads"):
        def report(args, name):
            out = tmp_path / name
            code = cli.main(args + ["--json", "--out", str(out)])
            assert code == 0
            doc = json.loads(out.read_text())
            for record in doc["checks"]:
                record.pop("elapsed_ms")
            return json.dumps(doc, sort_keys=True)

        runs = [
            report(["verify", "theorem1", "--r", "6", "--threads", t], f"t{i}.json")
            for i, t in enumerate(["1", "4", "1"])
        ]
        assert runs[0] == runs[1] == runs[2]
        runs = [
            report(["verify", "cayley", "--r", "5", "--threads", t], f"c{i}.json")
            for i, t in enumerate(["1", "4"])
        ]
        assert runs[0] == runs[1]
