"""Verdict records: each side summarized by its term count and canonical hash."""

import hashlib
from fractions import Fraction

import pytest

import hooklab.reports as reports
from hooklab.multipoly import MultiPoly


def poly(terms):
    return MultiPoly(2, terms)


class TestCompareSides:
    def test_a_failing_pair_hashes_each_side(self):
        lhs, rhs = poly({(1, 0): 1}), poly({(0, 1): 2, (0, 0): 1})
        v = reports.compare_sides("c", {}, lhs, rhs, 0.0)
        assert not v.equal
        assert (v.lhs_terms, v.lhs_hash) == reports.side_summary(lhs)
        assert (v.rhs_terms, v.rhs_hash) == reports.side_summary(rhs)
        assert v.lhs_hash != v.rhs_hash

    @pytest.fixture
    def summarized(self, monkeypatch):
        calls = []
        real = reports.side_summary
        monkeypatch.setattr(
            reports, "side_summary", lambda value: calls.append(value) or real(value)
        )
        return calls

    def test_an_equal_pair_is_hashed_once(self, summarized):
        lhs, rhs = poly({(2, 1): 3}), poly({(2, 1): 3})
        v = reports.compare_sides("c", {}, lhs, rhs, 0.0)
        assert v.equal and summarized == [lhs]
        assert (v.rhs_terms, v.rhs_hash) == (v.lhs_terms, v.lhs_hash)
        assert (v.rhs_terms, v.rhs_hash) == reports.side_summary(rhs)

    def test_equal_sides_of_two_types_are_each_summarized(self, summarized):
        v = reports.compare_sides("c", {}, 1, Fraction(1), 0.0)
        assert v.equal and summarized == [1, Fraction(1)]

    @pytest.mark.parametrize("value", [0, -7, 10**40, Fraction(-3, 4)])
    def test_a_number_hashes_its_decimal_text(self, value):
        digest = hashlib.sha256(str(value).encode()).hexdigest()
        assert reports.side_summary(value) == (1, digest)

    def test_a_bool_side_is_refused(self):
        with pytest.raises(TypeError):
            reports.compare_sides("c", {}, 1, True, 0.0)
