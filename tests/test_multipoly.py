"""Polynomial container: construction, arithmetic, maps, rendering."""

import json
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mutants import apply_mutant

import hooklab.cli as cli
from hooklab.multipoly import (
    _BLOCK,
    FIELD_MAX,
    WIDTH,
    MonomialTable,
    MultiPoly,
    falling_factorial,
    top_homogeneous,
)

x = MultiPoly.variable(2, 0)
y = MultiPoly.variable(2, 1)
z = MultiPoly.variable(1, 0)


def sorted_terms(p: MultiPoly) -> list:
    """p's (exponents, coefficient) pairs, leading term first."""
    return sorted(p.terms.items(), reverse=True)


def poly_strategy(nvars: int):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=5).map(lambda pairs: MultiPoly(nvars, pairs))


polys3 = poly_strategy(3)


def images_into(nvars: int):
    """Three images in nvars variables: whole polynomials, which multiply
    in, single terms, which shift keys, and zero, which drops terms; in 0
    variables every image is a constant."""
    whole = poly_strategy(nvars)
    single = whole.map(lambda q: MultiPoly(nvars, sorted_terms(q)[:1]))
    return st.lists(st.one_of(whole, single), min_size=3, max_size=3)


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
            MultiPoly(1).coefficient((True,))

    def test_rejects_exponent_past_the_key_field(self):
        assert sorted_terms(MultiPoly(2, {(FIELD_MAX, 0): 1})) == [((FIELD_MAX, 0), 1)]
        with pytest.raises(OverflowError, match=str(FIELD_MAX)):
            MultiPoly(2, {(0, FIELD_MAX + 1): 1})
        with pytest.raises(OverflowError):
            MultiPoly(1).coefficient((FIELD_MAX + 1,))


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
        assert MultiPoly.variable(1, 0) ** FIELD_MAX == MultiPoly(1, {(FIELD_MAX,): 1})
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
    """Specializations of variables, each one call of substitute."""

    def test_scalar_kills_variable(self):
        p = x * y + x
        assert p.substitute([MultiPoly.const(2, 3), y], 2) == MultiPoly(
            2, {(0, 1): 3, (0, 0): 3}
        )

    def test_unmentioned_variables_keep_their_index(self):
        assert (x * y).substitute([MultiPoly.const(2, 1), y], 2) == y

    def test_identifying_variables(self):
        assert (x * y).substitute([z, z], 1) == MultiPoly(1, {(2,): 1})

    def test_identifying_past_the_key_field_raises(self):
        p = MultiPoly(2, {(FIELD_MAX, 1): 1})
        with pytest.raises(OverflowError):
            p.substitute([z, z], 1)

    def test_all_scalar_gives_constant(self):
        q = (x + 2 * y).substitute([MultiPoly.const(0, 5), MultiPoly.const(0, Fraction(1, 2))], 0)
        assert q.nvars == 0 and q.coefficient(()) == 6

    @given(polys3, polys3, st.integers(-3, 3), st.integers(-3, 3))
    def test_homomorphism_on_scalars(self, p, q, a, b):
        images = [MultiPoly.const(3, a), MultiPoly.const(3, b), MultiPoly.variable(3, 2)]
        assert (p * q).substitute(images, 3) == p.substitute(images, 3) * q.substitute(images, 3)
        assert (p + q).substitute(images, 3) == p.substitute(images, 3) + q.substitute(images, 3)


class TestSubstitute:
    def test_univariate_evaluation(self):
        p = MultiPoly(1, {(2,): 1, (0,): 1})
        assert p.substitute([MultiPoly.const(1, 3)], 1) == MultiPoly.const(1, 10)

    def test_swap_variables(self):
        assert (x**2 + y).substitute([y, x], 2) == y**2 + x

    def test_zero_image_drops_the_terms_of_its_variable(self):
        p = x**2 * y + 3 * x + y + 1
        assert p.substitute([MultiPoly.zero(2), y], 2) == y + 1
        assert p.substitute([MultiPoly.zero(1)] * 2, 1) == MultiPoly.const(1, 1)

    def test_image_validation(self):
        with pytest.raises(ValueError):
            x.substitute([MultiPoly.variable(2, 0)], 2)
        with pytest.raises(ValueError):
            (x + y).substitute([3, 4], 2)

    @given(polys3, st.integers(-3, 3))
    def test_agrees_with_specialize_on_scalars(self, p, c):
        # specializing every variable to c is evaluating p at (c, c, c)
        images = [MultiPoly.const(0, c)] * 3
        want = sum(coeff * c ** sum(exps) for exps, coeff in p.terms.items())
        assert p.substitute(images, 0) == MultiPoly.const(0, want)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            MultiPoly(1, {(20000,): 1}).substitute([MultiPoly(1, {(2,): 1})], 1)
        # 30000 * 3 carries past the guard bit into the next field
        with pytest.raises(OverflowError):
            MultiPoly(1, {(30000,): 1}).substitute([MultiPoly(2, {(0, 3): 1})], 2)
        # a monomial image's shift and a two-term image's power overflow
        # only in their product
        images = [MultiPoly(1, {(20000,): 1}), MultiPoly(1, {(20000,): 1, (0,): 1})]
        with pytest.raises(OverflowError):
            MultiPoly(2, {(1, 1): 1}).substitute(images, 1)

    def test_monomial_images_that_carry_together_raise(self):
        # each image fits its field alone; three of them overflow it
        image = MultiPoly(2, {(0, 12000): 1})
        p = MultiPoly(3, {(1, 1, 1): 1})
        with pytest.raises(OverflowError):
            p.substitute([image] * 3, 2)
        assert MultiPoly(3, {(1, 1, 0): 1}).substitute([image] * 3, 2) == MultiPoly(
            2, {(0, 24000): 1}
        )
        # the keys' OR reaches 20000 in both fields, but no one term overflows
        p = MultiPoly(2, {(20000, 0): 1, (0, 20000): 1})
        assert p.substitute([z, z], 1) == MultiPoly(1, {(20000,): 2})

    # each defect of the images substitute receives (rows of
    # test_mutants.MUTANTS), and the checks of `verify all` at its
    # default bounds that it fails
    MUTANTS = {
        "single terms lose their coefficient": {("kerov", (("size", n),)) for n in range(3, 9)},
        "zero images become 1": {
            ("pq/constant-term", (("family", family), ("r", r)))
            for family in ("closed", "split")
            for r in range(3, 8)
        },
    }

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_a_changed_substitute_fails_the_checks_it_feeds(self, monkeypatch, capsys, mutant):
        want = self.MUTANTS[mutant]
        apply_mutant(monkeypatch, "substitute: " + mutant)
        assert cli.main(["verify", "all", "--json"]) == 1
        records = json.loads(capsys.readouterr().out)["checks"]
        failed = {(c["check"], tuple(sorted(c["params"].items()))) for c in records if not c["equal"]}
        assert failed == want

    @given(polys3, st.one_of(images_into(3), images_into(0)))
    def test_agrees_with_term_by_term_composition(self, p, images):
        nvars = images[0].nvars
        want = MultiPoly.zero(nvars)
        for exps, c in p.terms.items():
            term = MultiPoly.const(nvars, c)
            for image, e in zip(images, exps):
                term = term * image**e
            want = want + term
        assert p.substitute(images, nvars) == want


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

    def test_leading_term_first(self):
        p = 1 + x + x * y
        assert p.to_text() == "k1*k2 + k1 + 1"

    def test_hash_tracks_value(self):
        p = x * y + 3
        q = MultiPoly(2, {(1, 1): 1, (0, 0): 3})
        assert p.canonical_hash() == q.canonical_hash()
        assert p.canonical_hash() != (p + 1).canonical_hash()


def per_term_text(p: MultiPoly) -> str:
    """The canonical text built one term at a time, each monomial's text
    from scratch: the reference the block renderer must match byte for
    byte."""
    n = p.nvars
    names = [f"k{i + 1}" for i in range(n)]
    pieces = []
    for exps, c in sorted_terms(p):
        factors = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        )
        mag = abs(c)
        num, den = mag.numerator, mag.denominator
        coeff_txt = str(num) if den == 1 else f"{num}/{den}"
        if not factors:
            body = coeff_txt
        elif coeff_txt == "1":
            body = factors
        else:
            body = f"{coeff_txt}*{factors}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces) or "0"


coeffs = st.one_of(
    st.integers(-30, 30).filter(bool),
    st.fractions(-5, 5, max_denominator=6).filter(bool),
)
@st.composite
def ring_polys(draw, n: int):
    """A polynomial in n variables with int and Fraction coefficients of
    both signs; sometimes negated, sometimes with a constant added, and
    sometimes with every int coefficient turned into a Fraction."""
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), coeffs)
    p = MultiPoly(n, draw(st.lists(term, max_size=12)))
    if draw(st.booleans()):
        p = p + draw(coeffs)
    if draw(st.booleans()):
        p = -p
    if draw(st.booleans()):
        p = p * Fraction(1, 3) * 3
    return p


def assert_renders_like_the_reference(polys):
    """Each text, with and without a table shared by the stream, and each
    hash, against the reference."""
    table = MonomialTable(polys[0].nvars)
    for p in polys:
        text = p.to_text()
        assert text == p.to_text(table=table) == per_term_text(p)
        assert p.canonical_hash() == sha256(f"{p.nvars}|{text}".encode("utf-8")).hexdigest()


class TestRenderer:
    """to_text and canonical_hash split each key into two halves and
    render in blocks of _BLOCK terms; the bytes are those of the
    per-term reference."""

    @given(st.data())
    def test_matches_the_per_term_reference(self, data):
        n = data.draw(st.integers(0, 10))
        polys = data.draw(st.lists(ring_polys(n), min_size=1, max_size=4))
        assert_renders_like_the_reference(polys)

    @settings(max_examples=30)
    @given(st.data())
    def test_one_block_and_one_block_plus_a_term(self, data):
        n = data.draw(st.integers(1, 10))
        size = data.draw(st.sampled_from([_BLOCK, _BLOCK + 1]))
        base = 2
        while base**n < size:
            base += 1
        exps = [tuple(i // base**j % base for j in range(n)) for i in range(size)]
        cycle = data.draw(st.lists(coeffs, min_size=1, max_size=8))
        p = MultiPoly(n, [(e, cycle[i % len(cycle)]) for i, e in enumerate(exps)])
        assert len(p) == size
        assert_renders_like_the_reference([p, -p, p])


class TestMonomialTable:
    CASES = [
        MultiPoly.zero(2),
        MultiPoly.const(2, 7),
        -(x**3) + 2 * x * y - 5,
        MultiPoly(2, {(2, 1): Fraction(-3, 4), (0, 1): Fraction(1, 2)}),
        x**2 * y + 4 * y,
    ]

    def test_shared_table_renders_like_plain_text(self):
        table = MonomialTable(2)
        for p in self.CASES * 2:
            assert p.to_text(table=table) == p.to_text()

    @given(st.lists(polys3, max_size=6))
    def test_one_table_serves_a_stream(self, polys):
        table = MonomialTable(3)
        assert [p.to_text(table=table) for p in polys] == [p.to_text() for p in polys]

    def test_table_is_bound_to_its_ring(self):
        with pytest.raises(ValueError):
            x.to_text(table=MonomialTable(3))
        with pytest.raises(ValueError):
            z.to_text(table=MonomialTable(2))
