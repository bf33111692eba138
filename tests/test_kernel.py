"""Contract of the term-map kernel: canonical maps in, canonical maps out."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklab.multipoly import (
    FIELD_MAX,
    WIDTH,
    iadd_terms,
    mul_terms,
    pack,
    scale_terms,
    unpack,
)

nvars = st.integers(0, 12)


def exponents(n):
    return st.tuples(*[st.integers(0, FIELD_MAX)] * n)


def test_cancellation_removes_keys():
    a = {pack((1, 0)): 1, pack((0, 1)): -1}
    b = {pack((0, 1)): 1, pack((1, 0)): 1}
    # (x - y)(y + x) = x^2 - y^2, the xy terms cancel
    assert mul_terms(a, b) == {pack((2, 0)): 1, pack((0, 2)): -1}
    acc = {pack((1, 1)): 5}
    iadd_terms(acc, {pack((1, 1)): -5})
    assert acc == {}


def test_iadd_returns_accumulator():
    acc = {}
    assert iadd_terms(acc, {pack((2,)): 3}) is acc


def test_scale_refuses_zero():
    with pytest.raises(ValueError):
        scale_terms({pack((1,)): 1}, 0)


def test_empty_operands():
    assert mul_terms({}, {pack((1,)): 1}) == {}
    assert mul_terms({pack((1,)): 1}, {}) == {}


@given(nvars.flatmap(exponents))
def test_pack_round_trip(exps):
    assert unpack(pack(exps), len(exps)) == exps


@given(nvars.flatmap(lambda n: st.tuples(exponents(n), exponents(n))))
def test_key_order_is_lex_order(pair):
    a, b = pair
    assert (pack(a) < pack(b)) == (a < b)


def test_variable_zero_takes_the_top_field():
    assert pack((1, 0, 0)) == 1 << 2 * WIDTH
    assert pack((0, 0, 1)) == 1


def test_product_at_the_field_limit_is_kept():
    assert mul_terms({pack((FIELD_MAX - 1, 3)): 2}, {pack((1, 0)): 5}) == {
        pack((FIELD_MAX, 3)): 10
    }


@pytest.mark.parametrize("high, low", [((FIELD_MAX, 0), (1, 0)), ((0, FIELD_MAX), (0, 1))])
def test_product_setting_a_guard_bit_raises(high, low):
    with pytest.raises(OverflowError):
        mul_terms({pack(high): 1, pack((0, 0)): 1}, {pack(low): 1})
