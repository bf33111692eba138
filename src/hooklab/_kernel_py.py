"""Term-map kernel: the tight loops behind MultiPoly arithmetic.

A term map is a dict sending an exponent tuple (one non-negative int per
variable, fixed length) to a nonzero exact coefficient (int or Fraction).
Everything here preserves that canonical form: results never carry a zero
coefficient, and coefficients are produced by exact integer or rational
arithmetic only.
"""


def mul_terms(a, b):
    """Return the product of two term maps as a new term map."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            c = get(key)
            if c is None:
                out[key] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


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

