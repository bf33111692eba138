"""Term-map kernel: the tight loops behind MultiPoly arithmetic.

A term map is a dict sending a packed monomial key to a nonzero exact
coefficient (int or Fraction).  The key of the exponent vector
(e_0, ..., e_{n-1}) is the int

    e_0 << WIDTH*(n-1)  |  e_1 << WIDTH*(n-2)  |  ...  |  e_{n-1}

so every variable owns a WIDTH-bit field (16 bits) and variable 0 the
most significant one.  Descending key order is therefore descending
lexicographic order of the exponent tuples, and the product of two
monomials is the sum of their keys (the packed monomials of Monagan and
Pearce, "Parallel sparse polynomial multiplication using heaps",
ISSAC 2009).  Keys of different variable counts do not mix; the caller
keeps the count.

The top bit of every field is a guard.  Stored keys keep it clear, so a
field holds at most FIELD_MAX (32767) and the sum of two keys never carries
from one field into the next.  mul_terms checks the guard bits of its
output (check_fields) and raises OverflowError where a field overflowed:
exponents never wrap.

Everything here preserves the canonical form: results never carry a zero
coefficient, and coefficients are produced by exact integer or rational
arithmetic only.
"""

import struct
from functools import reduce
from operator import or_

WIDTH = 16
FIELD_MAX = (1 << (WIDTH - 1)) - 1
_FIELD = (1 << WIDTH) - 1
_FIELD_CODE = "H"  # struct code of one WIDTH-bit unsigned field


def pack(exps) -> int:
    """Key of a sequence of exponents, each already within [0, FIELD_MAX]."""
    key = 0
    for e in exps:
        key = key << WIDTH | e
    return key


def unit(nvars: int, index: int) -> int:
    """Key of the variable `index` in a ring of nvars variables."""
    return 1 << WIDTH * (nvars - 1 - index)


def unpack(key: int, nvars: int) -> tuple:
    """Exponent tuple of a key in a ring of nvars variables."""
    raw = key.to_bytes(WIDTH // 8 * nvars, "big")
    return struct.unpack(f">{nvars}{_FIELD_CODE}", raw)


def _guard_bits(key: int) -> int:
    """The guard bit of every field that key reaches."""
    fields = -(-key.bit_length() // WIDTH)
    return ((1 << WIDTH * fields) - 1) // _FIELD << (WIDTH - 1)


def mul_terms(a, b):
    """Return the product of two term maps as a new term map.

    Raises OverflowError when an exponent of the product exceeds
    FIELD_MAX.
    """
    return check_fields(addmul_terms({}, a, b))


def addmul_terms(acc, a, b):
    """Add the product of term maps a and b into acc in place and return acc.

    Guard bits are not checked here: a caller that accumulates many
    products checks the finished map once with check_fields, which is
    sound as long as no field of an unchecked key can reach 2**WIDTH.
    """
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            c = get(key)
            if c is None:
                acc[key] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    acc[key] = c
                else:
                    del acc[key]
    return acc


def check_fields(terms):
    """Return terms, or raise OverflowError if a key has a guard bit set."""
    seen = reduce(or_, terms, 0)
    if seen & _guard_bits(seen):
        raise OverflowError(f"an exponent of the product exceeds {FIELD_MAX}")
    return terms


def iadd_terms(acc, b):
    """Add term map b into acc in place and return acc."""
    get = acc.get
    for e, cb in b.items():
        c = get(e)
        if c is None:
            acc[e] = cb
        else:
            c = c + cb
            if c:
                acc[e] = c
            else:
                del acc[e]
    return acc


def scale_terms(a, s):
    """Return term map a scaled by a nonzero scalar s."""
    if not s:
        raise ValueError("scale_terms requires a nonzero scalar")
    return {e: c * s for e, c in a.items()}
