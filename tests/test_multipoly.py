"""Polynomial container: construction, arithmetic, maps, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklab._kernel_py import FIELD_MAX, WIDTH
from hooklab.multipoly import (
    MonomialTable,
    MultiPoly,
    Var,
    falling_factorial,
    specialize,
    top_homogeneous,
)

x = MultiPoly.variable(2, 0)
y = MultiPoly.variable(2, 1)


def poly_strategy(nvars: int):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=5).map(lambda pairs: MultiPoly(nvars, pairs))


polys3 = poly_strategy(3)


class TestConstruction:
    def test_duplicate_exponents_merge(self):
        p = MultiPoly(2, [((1, 0), 2), ((1, 0), 3)])
        assert p == MultiPoly(2, {(1, 0): 5})

    def test_zero_coefficients_dropped(self):
        assert MultiPoly(1, {(2,): 0}).is_zero()
        assert len(MultiPoly(2, [((1, 1), 4), ((1, 1), -4)])) == 0

    def test_integral_fractions_become_int(self):
        c = MultiPoly(1, {(1,): Fraction(4, 2)}).coefficient((1,))
        assert c == 2 and isinstance(c, int)

    def test_rejects_bool_and_float_coefficients(self):
        with pytest.raises(TypeError):
            MultiPoly(1, {(0,): True})
        with pytest.raises(TypeError):
            MultiPoly(1, {(0,): 1.5})

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(1, {(-1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(2, {(True, False): 3})
        with pytest.raises(ValueError):
            MultiPoly.from_json_dict({"nvars": 1, "terms": [{"exp": [True], "num": 1}]})

    def test_rejects_exponent_past_the_key_field(self):
        assert MultiPoly(2, {(FIELD_MAX, 0): 1}).sorted_terms() == [((FIELD_MAX, 0), 1)]
        with pytest.raises(OverflowError, match=str(FIELD_MAX)):
            MultiPoly(2, {(0, FIELD_MAX + 1): 1})
        with pytest.raises(OverflowError):
            MultiPoly.monomial(1, (FIELD_MAX + 1,))

    def test_var_marker_validation(self):
        with pytest.raises(ValueError):
            Var(-1)
        with pytest.raises(ValueError):
            Var("0")


class TestArithmetic:
    def test_square_of_sum(self):
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2

    def test_scalar_coercion(self):
        assert 2 * x - x == x
        assert (x + 1) - 1 == x
        assert 1 - x == MultiPoly(2, {(0, 0): 1, (1, 0): -1})
        assert x * Fraction(1, 2) * 2 == x

    def test_pow_edge_cases(self):
        assert (x + y) ** 0 == MultiPoly.const(2, 1)
        with pytest.raises(ValueError):
            (x + y) ** -1

    def test_pow_past_the_key_field_raises(self):
        assert MultiPoly.variable(1, 0) ** FIELD_MAX == MultiPoly.monomial(1, (FIELD_MAX,))
        with pytest.raises(OverflowError):
            MultiPoly.variable(1, 0) ** 2 ** (WIDTH - 1)

    def test_mixed_nvars_refused(self):
        with pytest.raises(ValueError):
            x + MultiPoly.variable(3, 0)

    def test_sum_classmethod_folds(self):
        parts = [x, y, x * y, -x]
        assert MultiPoly.sum(2, parts) == y + x * y
        with pytest.raises(ValueError):
            MultiPoly.sum(2, [MultiPoly.variable(1, 0)])

    @given(polys3, polys3)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys3, polys3)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys3, polys3, polys3)
    def test_mul_associates(self, p, q, s):
        assert (p * q) * s == p * (q * s)

    @given(polys3, polys3, polys3)
    def test_distributive(self, p, q, s):
        assert p * (q + s) == p * q + p * s

    @given(polys3, polys3)
    def test_sub_inverts_add(self, p, q):
        assert (p + q) - q == p


class TestFallingFactorial:
    def test_small_cases(self):
        p = x + y
        assert falling_factorial(p, 0) == MultiPoly.const(2, 1)
        assert falling_factorial(p, 1) == p
        assert falling_factorial(p, 3) == p * (p - 1) * (p - 2)

    @given(polys3, st.integers(0, 4))
    def test_recurrence(self, p, m):
        assert falling_factorial(p, m + 1) == falling_factorial(p, m) * (p - m)

    def test_refusals(self):
        with pytest.raises(ValueError):
            falling_factorial(x, -1)
        with pytest.raises(TypeError):
            falling_factorial(3, 2)


class TestSpecialize:
    def test_scalar_kills_variable(self):
        p = x * y + x
        assert specialize(p, {0: 3}) == MultiPoly(2, {(0, 1): 3, (0, 0): 3})

    def test_unmentioned_variables_keep_their_index(self):
        assert specialize(x * y, {0: 1}).nvars == 2

    def test_identifying_variables(self):
        q = specialize(x * y, {0: Var(0), 1: Var(0)})
        assert q == MultiPoly(1, {(2,): 1})

    def test_identifying_past_the_key_field_raises(self):
        p = MultiPoly(2, {(FIELD_MAX, 1): 1})
        with pytest.raises(OverflowError):
            specialize(p, {0: Var(0), 1: Var(0)})

    def test_all_scalar_gives_constant(self):
        q = specialize(x + 2 * y, {0: 5, 1: Fraction(1, 2)})
        assert q.nvars == 0 and q.coefficient(()) == 6

    def test_rejects_foreign_keys(self):
        with pytest.raises(ValueError):
            specialize(x, {5: 1})

    @given(polys3, polys3, st.integers(-3, 3), st.integers(-3, 3))
    def test_homomorphism_on_scalars(self, p, q, a, b):
        assignment = {0: a, 1: b}
        assert specialize(p * q, assignment) == specialize(p, assignment) * specialize(
            q, assignment
        )
        assert specialize(p + q, assignment) == specialize(p, assignment) + specialize(
            q, assignment
        )


class TestSubstitute:
    def test_univariate_evaluation(self):
        p = MultiPoly(1, {(2,): 1, (0,): 1})
        assert p.substitute([MultiPoly.const(1, 3)], 1) == MultiPoly.const(1, 10)

    def test_swap_variables(self):
        assert (x**2 + y).substitute([y, x], 2) == y**2 + x

    def test_image_validation(self):
        with pytest.raises(ValueError):
            x.substitute([MultiPoly.variable(2, 0)], 2)
        with pytest.raises(ValueError):
            (x + y).substitute([3, 4], 2)

    @given(polys3, st.integers(-3, 3))
    def test_agrees_with_specialize_on_scalars(self, p, c):
        images = [MultiPoly.const(0, c)] * 3
        assert p.substitute(images, 0) == specialize(p, {0: c, 1: c, 2: c})


    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            MultiPoly(1, {(20000,): 1}).substitute([MultiPoly(1, {(2,): 1})], 1)
        # 30000 * 3 carries past the guard bit into the next field
        with pytest.raises(OverflowError):
            MultiPoly(1, {(30000,): 1}).substitute([MultiPoly(2, {(0, 3): 1})], 2)

    def test_monomial_images_that_carry_together_raise(self):
        # each image fits its field alone; three of them overflow it
        image = MultiPoly(2, {(0, 12000): 1})
        p = MultiPoly(3, {(1, 1, 1): 1})
        with pytest.raises(OverflowError):
            p.substitute([image] * 3, 2)
        assert MultiPoly(3, {(1, 1, 0): 1}).substitute([image] * 3, 2) == MultiPoly(
            2, {(0, 24000): 1}
        )

    @given(polys3, st.lists(st.tuples(polys3, st.booleans()), min_size=3, max_size=3))
    def test_agrees_with_term_by_term_composition(self, p, picks):
        # single-monomial images take the key-shift path, the rest multiply
        images = [
            MultiPoly(3, q.sorted_terms()[:1]) if single else q for q, single in picks
        ]
        want = MultiPoly.zero(3)
        for exps, c in p.sorted_terms():
            term = MultiPoly.const(3, c)
            for image, e in zip(images, exps):
                term = term * image**e
            want = want + term
        assert p.substitute(images, 3) == want


class TestTopHomogeneous:
    def test_example(self):
        assert top_homogeneous((x + 1) * (y + 2)) == x * y

    def test_zero_refused(self):
        with pytest.raises(ValueError):
            top_homogeneous(MultiPoly.zero(2))

    @given(polys3, polys3)
    def test_multiplicative(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert top_homogeneous(p * q) == top_homogeneous(p) * top_homogeneous(q)


class TestRendering:
    def test_text_examples(self):
        assert MultiPoly.zero(2).to_text() == "0"
        assert (-x).to_text() == "-k1"
        assert (x**2 - y).to_text() == "k1^2 - k2"
        assert MultiPoly(1, {(1,): Fraction(1, 2)}).to_text() == "1/2*k1"
        assert (x + y).to_text(names=["a", "b"]) == "a + b"
        with pytest.raises(ValueError):
            x.to_text(names=["only"])

    def test_leading_term_first(self):
        p = 1 + x + x * y
        assert p.to_text() == "k1*k2 + k1 + 1"

    def test_hash_tracks_value(self):
        p = x * y + 3
        q = MultiPoly(2, {(1, 1): 1, (0, 0): 3})
        assert p.canonical_hash() == q.canonical_hash()
        assert p.canonical_hash() != (p + 1).canonical_hash()

    @given(polys3)
    def test_json_round_trip(self, p):
        data = json.loads(p.to_json())
        assert MultiPoly.from_json_dict(data) == p

    def test_fraction_survives_json(self):
        p = MultiPoly(1, {(1,): Fraction(3, 7)})
        assert MultiPoly.from_json_dict(p.to_json_dict()) == p


class TestMonomialTable:
    CASES = [
        (MultiPoly.zero(2), None),
        (MultiPoly.const(2, 7), None),
        (-(x**3) + 2 * x * y - 5, None),
        (MultiPoly(2, {(2, 1): Fraction(-3, 4), (0, 1): Fraction(1, 2)}), None),
        (x**2 * y + 4 * y, ["a", "b"]),
    ]

    def test_shared_table_renders_like_plain_text(self):
        tables = {}
        for p, names in self.CASES * 2:
            table = tables.setdefault(tuple(names or ()), MonomialTable(2, names))
            assert p.to_text(names, table=table) == p.to_text(names)

    @given(st.lists(polys3, max_size=6))
    def test_one_table_serves_a_stream(self, polys):
        table = MonomialTable(3)
        assert [p.to_text(table=table) for p in polys] == [p.to_text() for p in polys]

    def test_table_is_bound_to_its_ring(self):
        with pytest.raises(ValueError):
            x.to_text(table=MonomialTable(3))
        with pytest.raises(ValueError):
            x.to_text(table=MonomialTable(2, ["a", "b"]))
        with pytest.raises(ValueError):
            x.to_text(["a", "c"], table=MonomialTable(2, ["a", "b"]))
        with pytest.raises(ValueError):
            MonomialTable(2, ["only"])
