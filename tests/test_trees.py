"""Tree families: enumeration, counting, hooks, splitting, encodings."""

import heapq
import itertools
from collections import Counter
from math import factorial
from types import SimpleNamespace

import pytest
from oracles import prufer_encode, shape_classes, split_at_second_min, subtree_sizes

import hooklab.hookformula as hf
import hooklab.trees as tr
from hooklab.hookformula import binary_hook_sum, linear_extension_check
from hooklab.kerov import partitions_of
from hooklab.multipoly import MonomialTable, MultiPoly, falling_factorial
from hooklab.recurrences import lagrange_series_oracle, root_degree_sides
from hooklab.trees import (
    _collapse,
    automorphisms,
    binary_to_dot,
    binary_to_json_dict,
    cayley_count,
    cayley_edge_lists,
    cayley_to_json_dict,
    enumerate_binary,
    increasing_count,
    increasing_to_dot,
    increasing_to_json_dict,
    parent_vectors,
    prufer_edges,
    rooted_shapes,
    subtree_totals,
)

LEAF = (None, None)


def path_tree(r):
    """Parent vector of the path 1 - 2 - ... - r."""
    return tuple(range(r - 1))


def star_tree(r):
    """Parent vector of the star with every label under 1."""
    return (0,) * (r - 1)


def labels_of(pv):
    return tuple(range(1, len(pv) + 2))


def normal(edges):
    """An edge list as a tree: the set of its edges, ends sorted."""
    return frozenset(tuple(sorted(e)) for e in edges)


def collapse_by_definition(r, edges):
    """Parent vector of the collapse of the tree on {1..r} with the given
    edges, straight from its definition: remove the minimum vertex, hang
    the minimum of each remaining component under it, and do the same
    inside each component."""
    parent = {}
    neighbors = {v: set() for v in range(1, r + 1)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)

    def hang(part):
        root = min(part)
        rest = part - {root}
        while rest:
            seen, stack = set(), [min(rest)]
            while stack:
                v = stack.pop()
                seen.add(v)
                stack.extend(w for w in neighbors[v] if w in rest and w not in seen)
            parent[min(seen)] = root
            hang(seen)
            rest -= seen

    hang(set(range(1, r + 1)))
    return tuple(parent[v] - 1 for v in range(2, r + 1))


class TestIncreasing:
    def test_counts_match_enumeration(self):
        for r in range(1, 8):
            family = set(parent_vectors(r))
            assert len(family) == increasing_count(r) == factorial(r - 1)

    def test_every_tree_is_increasing(self):
        for pv in parent_vectors(5):
            for j, p in enumerate(pv, 1):
                assert 0 <= p < j

    def test_enumeration_order_is_stable(self):
        first, second = list(parent_vectors(3))
        assert increasing_to_json_dict(first)["parent"] == {"2": 1, "3": 1}
        assert increasing_to_json_dict(second)["parent"] == {"2": 1, "3": 2}

    def test_json_round_trip(self):
        # the record `enumerate increasing` writes determines its tree
        for pv in parent_vectors(4):
            data = increasing_to_json_dict(pv)
            assert data["labels"] == [1, 2, 3, 4]
            assert tuple(data["parent"][str(v)] - 1 for v in data["labels"][1:]) == pv

    def test_dot_golden(self):
        assert increasing_to_dot(star_tree(3)) == (
            "digraph increasing_tree {\n"
            "  ordering=out;\n"
            "  1;\n  2;\n  3;\n"
            "  1 -> 2;\n  1 -> 3;\n}"
        )


def shape_string(pv):
    """Canonical form of the unordered shape with parent vector pv, by
    recursion on each vertex's children."""
    kids = [[c for c, p in enumerate(pv, 1) if p == v] for v in range(len(pv) + 1)]

    def walk(v):
        return "(" + "".join(sorted(walk(c) for c in kids[v])) + ")"

    return walk(0)


def key_string(key):
    return "(" + "".join(sorted(key_string(c) for c in key)) + ")"


class TestShapes:
    def test_class_counts_are_rooted_tree_counts(self):
        # OEIS A000081: unlabelled rooted trees on n vertices
        counts = [len(shape_classes(n)) for n in range(1, 10)]
        assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]

    def test_multiplicities_sum_to_the_tree_count(self):
        for n in range(1, 10):
            assert sum(mult for _, mult in shape_classes(n).values()) == factorial(n - 1)

    def test_classes_match_an_independent_grouping(self):
        for n in range(1, 7):
            trees = list(parent_vectors(n))
            want = Counter(shape_string(pv) for pv in trees)
            classes = shape_classes(n)
            assert {key_string(k): mult for k, (_, mult) in classes.items()} == want
            for key, (pv, _) in classes.items():
                assert shape_string(pv) == key_string(key)
                # the representative is the first tree of its shape
                assert next(t for t in trees if shape_string(t) == key_string(key)) == pv

    def test_automorphisms_of_path_and_star(self):
        for n in range(1, 9):
            path = ()
            for _ in range(n - 1):
                path = (path,)
            assert automorphisms(path) == 1
            assert automorphisms(((),) * (n - 1)) == factorial(n - 1)

    def test_automorphisms_by_hand(self):
        cherry = ((), ())
        assert automorphisms((cherry, cherry)) == 2 * 2 * 2
        assert automorphisms((cherry, ((),))) == 2
        assert automorphisms((cherry, cherry, (), ())) == 2 * 2 * 2 * 2

    def test_no_vertices_is_refused(self):
        with pytest.raises(ValueError):
            shape_classes(0)
        for n in (0, -1):
            with pytest.raises(ValueError):
                next(rooted_shapes(n))

    def test_generated_shapes_are_rooted_tree_counts(self):
        # OEIS A000081
        counts = [sum(1 for _ in rooted_shapes(n)) for n in range(1, 13)]
        assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]

    def test_generated_shapes_are_the_classes(self):
        for n in range(1, 9):
            shapes = list(rooted_shapes(n))
            classes = shape_classes(n)
            assert sorted(key for key, _ in shapes) == sorted(classes)
            for key, pv in shapes:
                assert shape_string(pv) == key_string(key)
                lext, _ = linear_extension_check(pv)
                assert lext == automorphisms(key) * classes[key][1]


def hook_sets(pv):
    """The label set of each vertex's subtree, by subtree_totals."""
    labels = labels_of(pv)
    found = subtree_totals([(v,) for v in labels], pv)
    return {v: frozenset(h) for v, h in zip(labels, found)}


class TestHooks:
    def test_path_and_star(self):
        assert subtree_totals([1, 1, 1], path_tree(3)) == [3, 2, 1]
        assert hook_sets(path_tree(3))[2] == frozenset({2, 3})
        assert subtree_totals([1] * 4, star_tree(4)) == [4, 1, 1, 1]

    def test_hook_contains_vertex_and_nests(self):
        for pv in parent_vectors(5):
            sets = hook_sets(pv)
            sizes = subtree_totals([1] * 5, pv)
            for v, size in zip(labels_of(pv), sizes):
                assert v in sets[v]
                assert size == len(sets[v])
            for j, p in enumerate(pv, 1):
                assert sets[j + 1] < sets[p + 1]


class TestGrafting:
    def test_split_example(self):
        (host, _), (shoot, _) = split_at_second_min((1, 2, 3), star_tree(3))
        assert host == (1, 3) and shoot == (2,)

    def test_split_then_graft_restores(self):
        for r in range(2, 7):
            for pv in parent_vectors(r):
                parts = split_at_second_min(labels_of(pv), pv)
                (host, _), (shoot, _) = parts
                assert shoot[0] == 2
                parent = {shoot[0]: host[0]}
                for labels, sub_pv in parts:
                    parent.update((labels[j], labels[p]) for j, p in enumerate(sub_pv, 1))
                assert tuple(parent[v] - 1 for v in range(2, r + 1)) == pv

    def test_single_vertex_cannot_split(self):
        with pytest.raises(ValueError):
            split_at_second_min((1,), ())


class TestCayley:
    def test_counts_match_enumeration(self):
        for r in range(1, 7):
            family = set(map(normal, cayley_edge_lists(r)))
            expected = 1 if r <= 2 else r ** (r - 2)
            assert len(family) == cayley_count(r) == expected

    def test_prufer_round_trip(self):
        for r in range(3, 7):
            for edges in cayley_edge_lists(r):
                code = prufer_encode(edges)
                assert len(code) == r - 2
                assert normal(prufer_edges(code)) == normal(edges)

    def test_prufer_examples(self):
        assert prufer_encode([(1, 2), (1, 3), (1, 4)]) == (1, 1)
        assert prufer_encode([(1, 2), (2, 3)]) == (2,)

    def test_enumeration_follows_code_order(self):
        for r in range(2, 7):
            codes = [prufer_encode(edges) for edges in cayley_edge_lists(r)]
            assert codes == list(itertools.product(range(1, r + 1), repeat=r - 2))
        assert list(cayley_edge_lists(1)) == [[]]
        with pytest.raises(ValueError):
            cayley_edge_lists(0)

    def test_edge_lists_are_the_enumerated_trees(self):
        for r in range(2, 7):
            codes = itertools.product(range(1, r + 1), repeat=r - 2)
            lists = list(cayley_edge_lists(r))
            assert lists == [prufer_edges(code) for code in codes]
            assert all(len(edges) == r - 1 for edges in lists)

    def test_a_repeated_edge_is_refused(self, monkeypatch):
        # a heap whose first pop leaves the leaf in place: for (1, 1) the
        # decoder then joins leaf 2 to vertex 1 twice
        pops = []

        def heappop(heap):
            pops.append(heap[0])
            return heap[0] if len(pops) == 1 else heapq.heappop(heap)

        fake = SimpleNamespace(heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop)
        monkeypatch.setattr(tr, "heapq", fake)
        with pytest.raises(ValueError, match="cycle"):
            prufer_edges((1, 1))

    def test_out_of_range_entries_are_refused(self):
        with pytest.raises(ValueError, match="1..4"):
            prufer_edges((1, 5))
        for entry in (True, 1.0):
            with pytest.raises(ValueError, match="ints in 1..3"):
                prufer_edges([entry])

    def test_json_round_trip(self):
        for edges in cayley_edge_lists(4):
            data = cayley_to_json_dict(edges)
            assert data["r"] == 4 and normal(data["edges"]) == normal(edges)
            # each edge low end first, the edges sorted
            assert data["edges"] == sorted(sorted(e) for e in edges)
        assert cayley_to_json_dict([]) == {"r": 1, "edges": []}


class TestCollapse:
    """_collapse gives the parent vector of the increasing tree that an
    edge list on {1..r} collapses to."""

    def test_single_vertex(self):
        assert _collapse(1, []) == ()

    def test_centered_path_flattens(self):
        assert _collapse(3, [(1, 2), (1, 3)]) == (0, 0)

    def test_monotone_path_survives(self):
        assert _collapse(3, [(1, 2), (2, 3)]) == (0, 1)

    def test_a_child_is_its_component_minimum(self):
        # 1's neighbour is 4, but the component {2, 4} hangs its minimum
        assert _collapse(4, [(1, 3), (1, 4), (4, 2)]) == (0, 0, 1)

    def test_each_edge_list_collapses_as_its_tree_does(self):
        for r in range(2, 7):
            for edges in cayley_edge_lists(r):
                pv = _collapse(r, edges)
                assert pv == _collapse(r, sorted(normal(edges)))
                assert pv == collapse_by_definition(r, edges)

    def test_surjective_with_fibers_partitioning(self):
        for r in range(1, 6):
            fibers = {}
            for edges in cayley_edge_lists(r):
                fibers.setdefault(_collapse(r, edges), []).append(edges)
            assert set(fibers) == set(tr.parent_vectors(r))
            assert sum(len(v) for v in fibers.values()) == cayley_count(r)


class TestBinary:
    def test_counts_match_enumeration(self):
        expected = [1, 1, 2, 5, 14, 42, 132]
        for n, want in enumerate(expected):
            shapes = list(enumerate_binary(n))
            assert len(set(shapes)) == len(shapes) == want

    def test_empty_shape(self):
        assert list(enumerate_binary(0)) == [None]
        assert binary_to_json_dict(None) is None

    def test_order_by_left_size(self):
        sizes = [len(subtree_sizes(left)) for left, _ in enumerate_binary(3)]
        assert sizes == sorted(sizes)

    def test_subtree_sizes(self):
        t = (LEAF, (None, LEAF))
        assert subtree_sizes(t)[0] == 4
        assert sorted(subtree_sizes(t)) == [1, 1, 2, 4]

    def test_json_round_trip(self):
        def build(data):
            if data is None:
                return None
            return build(data["left"]), build(data["right"])

        for t in enumerate_binary(4):
            assert build(binary_to_json_dict(t)) == t

    def test_dot_golden(self):
        assert binary_to_dot((LEAF, None)) == (
            'digraph binary_tree {\n  n0;\n  n1;\n  n0 -> n1 [label="L"];\n}'
        )
        assert binary_to_dot(None) == "digraph binary_tree {\n}"


SIZED = {
    "partitions_of": lambda n: list(partitions_of(n)),
    "cayley_count": cayley_count,
    "increasing_count": increasing_count,
    "binary_hook_sum": binary_hook_sum,
    "falling_factorial": lambda n: falling_factorial(MultiPoly.variable(1, 0), n),
    "rooted_shapes": lambda n: list(rooted_shapes(n)),
    "shape_classes": shape_classes,
    "cayley_edge_lists": lambda n: list(cayley_edge_lists(n)),
    "parent_vectors": tr.parent_vectors,
    "enumerate_binary": enumerate_binary,
    "binary_reciprocal_hook_sum": hf.binary_reciprocal_hook_sum,
    "increasing_hook_sum": hf.increasing_hook_sum,
    "cayley_fiber_sums": hf.cayley_fiber_sums,
    "lagrange_series_oracle": lambda n: lagrange_series_oracle(n, [1]),
    "MultiPoly": MultiPoly,
    "MonomialTable": MonomialTable,
    "MultiPoly.variable": lambda n: MultiPoly.variable(2, n),
    "MultiPoly.__pow__": lambda n: MultiPoly.variable(1, 0) ** n,
    "MultiPoly.substitute": lambda n: MultiPoly.const(0, 1).substitute([], n),
    "hook_weight_sum": hf.hook_weight_sum,
    "top_weight_sum": hf.top_weight_sum,
    "tree_weight_sum": lambda n: hf.tree_weight_sum((1,), n),
    "hook_weight_closed_form": hf.hook_weight_closed_form,
    "root_degree_sides": root_degree_sides,
    "uniform_chain_sides": hf.uniform_chain_sides,
}


@pytest.mark.parametrize("size", [True, 2.5, 3.0])
@pytest.mark.parametrize("name", SIZED)
def test_a_size_must_be_an_int(name, size):
    with pytest.raises(ValueError):
        SIZED[name](size)
