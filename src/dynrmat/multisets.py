"""Factored denominators: multisets of irreducible factors.

The canonical fraction of polys.py keeps the denominators the package builds
factored, as a multiset {factor: multiplicity} over its level's Alphabet:
cyclotomic polynomials in q**2 for a QRat (polys.py), binomials x**2 - q**m
for a RationalFunction (ratfunc.py).  The product of two denominators is the
sum of their multisets, their lcm the maximum and their gcd the minimum.  A
multiset is never mutated once built: the helpers below return new ones, or
an argument unchanged.  over_lcm and cancel_across are the sum and the
product rule of factored fractions, for every level and both multisets of
a RationalFunction.
"""

from functools import cache

NO_FACTORS = {}


def total(a, b):
    """The multiset of the product of a and b."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for f, m in b.items():
        out[f] = out.get(f, 0) + m
    return out


def lcm(a, b):
    """The multiset of the lcm of a and b: the larger multiplicities."""
    if not a:
        return b
    out = dict(a)
    for f, m in b.items():
        if m > out.get(f, 0):
            out[f] = m
    return out


def common(a, b):
    """The multiset of the gcd of a and b: the smaller multiplicities."""
    return {f: min(m, b[f]) for f, m in a.items() if f in b}


def tied(a, b):
    """The factors of equal multiplicity in a and b.

    Only these can cancel from the sum n/a + n'/b of two canonical fractions.
    Its numerator is n (b/g) + n' (a/g) with g = gcd(a, b), and a factor
    with more weight in a than in b divides the second term but not the
    first (n is coprime to a, and distinct factors are coprime), so it does
    not divide the sum; likewise with a and b swapped.
    """
    return {f: m for f, m in a.items() if b.get(f) == m}


def minus(a, removed):
    """The multiset a less `removed`, which it contains."""
    if not removed:
        return a
    out = dict(a)
    for f, m in removed.items():
        if out[f] == m:
            del out[f]
        else:
            out[f] -= m
    return out


def over_lcm(na, fa, nb, fb, times):
    """(na', nb', tied, lcm) with na/fa + nb/fb = (na' + nb') / lcm, for
    numerators na, nb over the multisets fa, fb: each numerator times the
    factors of the lcm it lacks, times(n, fac) being n times the factors of
    `fac`.  Only the factors `tied` can cancel from na' + nb' (see tied)."""
    if fa == fb:
        return na, nb, fa, fa
    g = common(fa, fb)
    return (times(na, minus(fb, g)), times(nb, minus(fa, g)), tied(fa, fb),
            lcm(fa, fb))


def cancel_across(na, fa, nb, fb, cancel):
    """(na', fa', nb', fb') with (na/fa) * (nb/fb) = (na' nb') / (fa' fb'):
    each numerator cancelled only by the factors of the other's multiset
    that its own lacks, cancel(n, fac) being (n / g, g) for the largest
    product g of factors of `fac` that divides n; None if cancel declines
    (returns None).  A canonical numerator is coprime to its own factors,
    so a factor of both fa and fb divides neither numerator."""
    got = _cancelled(na, fa, fb, cancel)
    if got is None:
        return None
    na, fb1 = got
    got = _cancelled(nb, fb, fa, cancel)
    if got is None:
        return None
    nb, fa = got
    return na, fa, nb, fb1


def _cancelled(n, own, other, cancel):
    """(n', other') with n / other = n' / other': n cancelled by the factors
    of `other` that `own` lacks; None if cancel declines."""
    lack = other
    if own and not own.keys().isdisjoint(other):
        lack = {f: m for f, m in other.items() if f not in own}
    if not lack:
        return n, other
    got = cancel(n, lack)
    if got is None:
        return None
    n, removed = got
    return n, minus(other, removed)


def key(a):
    """A hashable, order-free name for the multiset a."""
    return tuple(sorted(a.items()))


class Alphabet:
    """Factors named by keys, with a multiply-by-one-factor function.

    `mul(p, f)` returns the polynomial p times the factor f; `one` is the
    empty product.  Expanded products are cached by multiset.
    """

    def __init__(self, one, mul):
        self.one = one
        self.mul = mul

    def times(self, p, fac):
        """p times the factors of the multiset `fac`."""
        for f, m in fac.items():
            for _ in range(m):
                p = self.mul(p, f)
        return p

    def expand(self, fac):
        """The product of the factors of the multiset `fac`, cached."""
        return self._expanded(key(fac))

    @cache
    def _expanded(self, k):
        return self.times(self.one, dict(k))
