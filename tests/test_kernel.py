"""Contract of the term-map kernel: canonical maps in, canonical maps out."""

import pytest

from hooklab._kernel_py import iadd_terms, mul_terms, scale_terms


def test_cancellation_removes_keys():
    a = {(1, 0): 1, (0, 1): -1}
    b = {(0, 1): 1, (1, 0): 1}
    # (x - y)(y + x) = x^2 - y^2, the xy terms cancel
    assert mul_terms(a, b) == {(2, 0): 1, (0, 2): -1}
    acc = {(1, 1): 5}
    iadd_terms(acc, {(1, 1): -5})
    assert acc == {}


def test_iadd_returns_accumulator():
    acc = {}
    assert iadd_terms(acc, {(2,): 3}) is acc


def test_scale_refuses_zero():
    with pytest.raises(ValueError):
        scale_terms({(1,): 1}, 0)


def test_empty_operands():
    assert mul_terms({}, {(1,): 1}) == {}
    assert mul_terms({(1,): 1}, {}) == {}
