"""Verdict records for identity checks.

Every verification the command line runs produces one VerdictReport per
compared pair: the check name, its parameters, whether the two sides
agreed, and a summary of each side (term count plus a hash of the
canonical rendering, so reports can be diffed without shipping whole
polynomials).  Integer-valued checks summarize the integer the same
way.

Serialization is deterministic: dict keys are emitted sorted and the
canonical hashes are stable across runs.  The one field outside that
contract is elapsed_ms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, NamedTuple

from hooklab.multipoly import MultiPoly, sha256

__all__ = ["VerdictReport", "compare_sides", "side_summary"]


def side_summary(value) -> tuple[int, str]:
    """(term count, canonical hash) for one side of a comparison.

    Polynomials hash their canonical text; plain numbers hash their
    exact decimal (or num/den) rendering and count as one term.
    """
    if isinstance(value, MultiPoly):
        return len(value), value.canonical_hash()
    if isinstance(value, bool):
        raise TypeError("a verdict side must be a polynomial or a number")
    if isinstance(value, (int, Fraction)):
        text = str(value)
        return 1, sha256(text.encode("ascii")).hexdigest()
    raise TypeError(f"cannot summarize {type(value).__name__} as a verdict side")


class VerdictReport(NamedTuple):
    """Outcome of one two-sided comparison."""

    check: str
    params: Mapping[str, Any]
    equal: bool
    lhs_terms: int
    rhs_terms: int
    lhs_hash: str
    rhs_hash: str
    elapsed_ms: float
    trace: Any = None

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": dict(self.params),
            "equal": self.equal,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "lhs_hash": self.lhs_hash,
            "rhs_hash": self.rhs_hash,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def format_line(self) -> str:
        verdict = "PASS" if self.equal else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        sides = f"terms {self.lhs_terms}/{self.rhs_terms}"
        return f"{verdict}  {self.check:<28} {params:<18} {sides:<16} {self.elapsed_ms:8.1f} ms"


def compare_sides(
    check: str,
    params: Mapping[str, Any],
    lhs,
    rhs,
    elapsed_ms: float,
    trace: Any = None,
) -> VerdictReport:
    """Build the report for one comparison; equality is exact, no tolerances.

    Equal sides of one type have one canonical text, so it is hashed once.
    """
    equal = lhs == rhs
    lt, lh = side_summary(lhs)
    rt, rh = (lt, lh) if equal and type(lhs) is type(rhs) else side_summary(rhs)
    return VerdictReport(
        check=check,
        params=params,
        equal=equal,
        lhs_terms=lt,
        rhs_terms=rt,
        lhs_hash=lh,
        rhs_hash=rh,
        elapsed_ms=elapsed_ms,
        trace=trace,
    )
