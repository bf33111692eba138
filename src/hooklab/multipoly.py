"""Exact sparse multivariate polynomials over the rationals, and the
term-map kernel behind their arithmetic.

A polynomial in n variables is stored as a term map: a dict sending the
packed key of each exponent vector to a nonzero coefficient.  The key
of the exponent vector (e_0, ..., e_{n-1}) is the int

    e_0 << WIDTH*(n-1)  |  e_1 << WIDTH*(n-2)  |  ...  |  e_{n-1}

so every variable owns a WIDTH-bit field (16 bits) and variable 0 the
most significant one.  Descending key order is therefore descending
lexicographic order of the exponent tuples, and the product of two
monomials is the sum of their keys (the packed monomials of Monagan and
Pearce, "Parallel sparse polynomial multiplication using heaps",
ISSAC 2009).  Keys of different variable counts do not mix; the caller
keeps the count.  The top bit of every field is a guard: stored keys
keep it clear, so a field holds at most FIELD_MAX (32767) and the sum
of two keys never carries from one field into the next.  mul_terms
checks the guard bits of its output (check_fields), and an exponent
the field cannot hold raises OverflowError; none wraps.  This module is
the only one that reads a key's bytes: unpack, _packed and _relabel.

Exponent tuples (length n, non-negative ints) stay the only format at
the API: the constructor and coefficient pack them; terms and the
rendered forms unpack them.  Coefficients are exact, either int or
fractions.Fraction; the two mix freely because Python's numeric tower
makes them agree under ==, hash and arithmetic.  Every term map, the
kernel's results included, is kept canonical (no zero coefficients), so
polynomial equality is plain dict equality.

Term maps are unordered.  Both rendered forms (to_text and
canonical_hash) sort terms in descending lexicographic order of the
exponent tuple, which is descending order of the packed key; that is
what makes output byte-reproducible across runs.  They share one
renderer, which names the variables k1..kn: it builds the text of each
distinct high and low half of a key once per call, and yields blocks of
terms, which canonical_hash hashes one at a time.  A --trace summand stream
shares one MonomialTable, which keeps each whole monomial's text.

The digest is SHA-256 from CPython's built-in module (_sha2, or _sha256
before 3.12), with hashlib as the fallback where neither is built;
reports hashes numbers with it too.  It is the same SHA-256, so every
digest is the same, but a launch maps no OpenSSL: hashlib loads
_hashlib, which maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Union

from hooklab.trees import _check_int, _is_int

# as random.py takes its _sha512: hashlib is heavy to load (module docstring)
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

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


def _packed(terms: dict, nvars: int) -> tuple:
    """(terms, rows), the rows holding the exponents of each key in term
    map order as WIDTH-bit fields, all in one bytes buffer."""
    return terms, b"".join(e.to_bytes(WIDTH // 8 * nvars, "big") for e in terms)


def _relabel(terms: dict, rows: bytes, positions, nvars: int, shift: int = 0) -> dict:
    """Term map of a _packed map with its variable j moved to the sorted
    position positions[j] of a ring of nvars variables, plus shift."""
    buf = bytearray(len(rows) // len(positions) * nvars)
    out, src = memoryview(buf).cast(_FIELD_CODE), memoryview(rows).cast(_FIELD_CODE)
    for j, p in enumerate(positions):
        out[p::nvars] = src[j :: len(positions)]
    packed = struct.iter_unpack(f"{out.itemsize * nvars}s", buf)
    keys = (int.from_bytes(k, "big") + shift for k, in packed)
    return dict(zip(keys, terms.values()))


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


Coeff = Union[int, Fraction]
_BLOCK = 256  # terms per block of rendered text: one join and one hash update

__all__ = [
    "Coeff",
    "MonomialTable",
    "MultiPoly",
    "falling_factorial",
    "top_homogeneous",
]


def _check_coeff(c) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {c!r}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _check_exps(exps, nvars: int) -> tuple:
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError(
            f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
        )
    if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
        raise ValueError(f"exponents must be non-negative ints: {exps}")
    if exps and max(exps) > FIELD_MAX:
        raise OverflowError(
            f"exponent {max(exps)} exceeds {FIELD_MAX}, the largest a key field holds"
        )
    return exps


def _monomial_text(key: int, nvars: int, names: list) -> str:
    """The factors of one monomial, as in k3^2*k5; empty for the constant."""
    exps = unpack(key, nvars)
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])


class MonomialTable:
    """The monomial texts met so far by the to_text calls that share it.

    Bound to one variable count: rendering any other ring through it
    raises ValueError.  It keeps every monomial it met, so it should not
    outlive the renders that share it.
    """

    __slots__ = ("nvars", "_texts")

    def __init__(self, nvars: int):
        _check_int(nvars, 0)
        self.nvars = nvars
        self._texts: dict = {}


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping | Iterable | None = None):
        _check_int(nvars, 0)
        clean: dict = {}
        items = () if terms is None else (
            terms.items() if isinstance(terms, Mapping) else terms
        )
        for exps, c in items:
            key = pack(_check_exps(exps, nvars))
            c = _check_coeff(c)
            if c:
                iadd_terms(clean, {key: c})
        self._nvars = nvars
        self._terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap an already canonical packed term map without copying. Trusted callers only."""
        self = object.__new__(cls)
        self._nvars = nvars
        self._terms = terms
        return self

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "MultiPoly":
        self = cls(nvars)
        c = _check_coeff(value)
        if c:
            self._terms[0] = c
        return self

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        _check_int(nvars, 0)
        if not _is_int(index) or not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        return cls._raw(nvars, {unit(nvars, index): 1})

    @classmethod
    def sum(cls, nvars: int, polys: Iterable["MultiPoly"]) -> "MultiPoly":
        """Sum an iterable of polynomials in a single in-place fold.

        Repeated binary + copies the growing accumulator once per
        summand; this stays linear in the total number of terms.
        """
        _check_int(nvars, 0)
        acc: dict = {}
        for p in polys:
            if p._nvars != nvars:
                raise ValueError(f"expected {nvars} variables, got {p._nvars}")
            iadd_terms(acc, p._terms)
        return cls._raw(nvars, acc)

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> Mapping:
        """Read-only map from exponent tuples to coefficients."""
        n = self._nvars
        return MappingProxyType({unpack(k, n): c for k, c in self._terms.items()})

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        """Coefficient of one monomial; exps is checked like the constructor's."""
        return self._terms.get(pack(_check_exps(exps, self._nvars)), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Max term degree, or -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(unpack(k, self._nvars)) for k in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._nvars, frozenset(self._terms.items())))

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other._nvars != self._nvars:
                raise ValueError(
                    f"variable count mismatch: {self._nvars} vs {other._nvars}"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self._nvars, other)
        return None

    def __add__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        iadd_terms(out, q._terms)
        return MultiPoly._raw(self._nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        if not self._terms:
            return self
        return MultiPoly._raw(self._nvars, scale_terms(self._terms, -1))

    def __sub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return MultiPoly._raw(self._nvars, mul_terms(self._terms, q._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        _check_int(exponent, 0)
        result = {0: 1}
        base = self._terms
        e = exponent
        while e:
            if e & 1:
                result = mul_terms(result, base)
            e >>= 1
            if e:
                base = mul_terms(base, base)
        return MultiPoly._raw(self._nvars, result)

    def substitute(self, images: Sequence["MultiPoly"], nvars: int) -> "MultiPoly":
        """Compose: replace variable i by images[i], a polynomial in `nvars` vars.

        Needs one image per variable.  This is full polynomial
        composition, and every change of variables goes through it: a
        constant image evaluates (into 0 variables, if every image is a
        constant), a variable image renames, and two variables sent to
        one are identified.
        """
        _check_int(nvars, 0)
        images = list(images)
        if len(images) != self._nvars:
            raise ValueError(
                f"need {self._nvars} images, got {len(images)}"
            )
        for q in images:
            if not isinstance(q, MultiPoly) or q.nvars != nvars:
                raise ValueError("every image must be a MultiPoly in `nvars` variables")
        # a zero image kills every term that holds its variable, and a
        # single-monomial image c*m sends x_i^e to the key shift e*m and
        # the coefficient c^e; the other images are multiplied in by powers
        n = self._nvars
        dead = 0
        shifts = []
        others = []
        for i, q in enumerate(images):
            if not q._terms:
                dead |= unit(n, i) * _FIELD
            elif len(q._terms) == 1:
                (key, c), = q._terms.items()
                shifts.append((i, key, c, max(unpack(key, nvars), default=0)))
            else:
                others.append(i)
        caches = {i: {0: {0: 1}, 1: images[i]._terms} for i in others}

        def power(i: int, e: int) -> dict:
            cache = caches[i]
            top = max(cache)
            while top < e:
                cache[top + 1] = mul_terms(cache[top], cache[1])
                top += 1
            return cache[e]

        guard = pack([FIELD_MAX + 1] * nvars)
        # no field can overflow if the keys' OR, which bounds every
        # exponent, times the images' largest fields stays in range
        tops = unpack(reduce(or_, self._terms, 0), n)
        checked = sum(tops[i] * field for i, _, _, field in shifts) > FIELD_MAX
        out: dict = {}
        for key, c in self._terms.items():
            if key & dead:
                continue
            exps = unpack(key, n)
            shift = 0
            for i, k, ci, field in shifts:
                e = exps[i]
                if e:
                    # with e*field in range, shift and e*k have clear guard
                    # bits, so their sum cannot carry and the check is exact
                    shift += e * k
                    if checked and (e * field > FIELD_MAX or shift & guard):
                        raise OverflowError(f"an exponent of the image exceeds {FIELD_MAX}")
                    if ci != 1:
                        c = c * ci**e
            term = None
            for i in others:
                e = exps[i]
                if e:
                    term = mul_terms({shift: c} if term is None else term, power(i, e))
            if term is not None:
                iadd_terms(out, term)
                continue
            acc = out.get(shift)
            if acc is None:
                out[shift] = c
            else:
                acc = acc + c
                if acc:
                    out[shift] = acc
                else:
                    del out[shift]
        return MultiPoly._raw(nvars, out)

    def to_text(self, table: MonomialTable | None = None) -> str:
        """Deterministic human-readable form, leading term first; the same
        with or without a table."""
        return "".join(self._text_blocks(table))

    def _text_blocks(self, table: MonomialTable | None = None) -> Iterator[str]:
        """The canonical text, _BLOCK terms at a time.  A key's low n//2
        fields, and the rest, are monomials of the ring too: each is rendered
        once per call or table, and a whole key from the two."""
        n = self._nvars
        if table is not None and table.nvars != n:
            raise ValueError(f"the monomial table is for {table.nvars} variables, not {n}")
        terms = self._terms
        if not terms:
            yield "0"
            return
        names = [f"k{i + 1}" for i in range(n)]
        mask = (1 << WIDTH * (n // 2)) - 1
        texts = {} if table is None else table._texts
        keys = sorted(terms, reverse=True)
        for start in range(0, len(keys), _BLOCK):
            parts = []
            for k in keys[start : start + _BLOCK]:
                mono = texts.get(k)
                if mono is None:
                    lk = k & mask
                    hk = k - lk
                    hi = texts.get(hk)
                    if hi is None:
                        hi = texts[hk] = _monomial_text(hk, n, names)
                    lo = texts.get(lk)
                    if lo is None:
                        lo = texts[lk] = _monomial_text(lk, n, names)
                    mono = f"{hi}*{lo}" if hi and lo else hi or lo
                    if table is not None:
                        texts[k] = mono
                c = terms[k]
                sign = " + " if c > 0 else " - "
                c = abs(c)
                if type(c) is not int:
                    c = c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                if not mono:
                    parts.append(f"{sign}{c}")
                elif c == 1:
                    parts.append(sign + mono)
                else:
                    parts.append(f"{sign}{c}*{mono}")
            if not start:  # the leading term keeps its sign, not a separator
                parts[0] = parts[0][3:] if parts[0][1] == "+" else "-" + parts[0][3:]
            yield "".join(parts)

    def canonical_hash(self) -> str:
        """sha256 hex digest of the canonical text rendering, fed to the
        hash block by block so that the whole text never exists at once."""
        digest = sha256(f"{self._nvars}|".encode("utf-8"))
        for block in self._text_blocks():
            digest.update(block.encode("utf-8"))
        return digest.hexdigest()

    def __repr__(self) -> str:
        return f"MultiPoly({self._nvars}, {self.to_text()!r})"


def falling_factorial(p: MultiPoly, m: int) -> MultiPoly:
    """Product p*(p-1)*...*(p-m+1); empty product 1 when m == 0.

    Negative m is refused: the callers that would hit it all simplify
    the offending factor away first, and silently extending the product
    downward would mask such a bug.
    """
    if not isinstance(p, MultiPoly):
        raise TypeError("falling_factorial expects a MultiPoly")
    _check_int(m, 0)
    out = MultiPoly.const(p.nvars, 1)
    for i in range(m):
        out = out * (p - i)
    return out


def top_homogeneous(p: MultiPoly) -> MultiPoly:
    """Sum of the terms of maximal total degree.

    Raises on the zero polynomial, whose top part is undefined.
    Multiplicative: top(p*q) == top(p)*top(q) over this exact coefficient
    domain, which is what makes it safe to take the top part of a big
    product one factor at a time.
    """
    if not isinstance(p, MultiPoly):
        raise TypeError("top_homogeneous expects a MultiPoly")
    if p.is_zero():
        raise ValueError("the zero polynomial has no top homogeneous part")
    d = p.total_degree()
    n = p.nvars
    kept = {k: c for k, c in p._terms.items() if sum(unpack(k, n)) == d}
    return MultiPoly._raw(p.nvars, kept)
