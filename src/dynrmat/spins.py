"""Finite-dimensional spin representations and sparse graded operators.

A Spin stores 2j as an integer.  A TensorSpace is an ordered tuple of spins
with row-major basis indexing; basis vectors of each leg are ordered by
descending magnetic number, and the per-leg weight tables hold 2m for every
full-space basis index.  A GradedOperator is a sparse matrix over the exact
scalar field, keyed by (row, column).  A Product is an unevaluated product
of GradedOperators that yields its rows one at a time: row r of
A1 ... An is e_r A1 ... An, built left to right by the one product kernel,
so it is exact for any factors and needs only the factors and one row in
memory.  GradedOperator.__matmul__ is that same kernel run over every row.

Generator conventions on a single spin-j leg:

    H |j,m>  = 2m |j,m>
    E+ |j,m> = sqrt([j-m][j+m+1]) |j,m+1>
    E- |j,m> = sqrt([j+m][j-m+1]) |j,m-1>

and on two legs the coproduct

    D(E+) = E+ (x) q^(H/2) + q^(-H/2) (x) E+
    D(E-) = E- (x) q^(H/2) + q^(-H/2) (x) E-
    D(H)  = H (x) 1 + 1 (x) H

with the flipped coproduct D' obtained by swapping the q^(+-H/2) dressings.
Iterated over an ordered group of legs l_1, ..., l_n it is

    D(E) = sum_i q^(-H_(l_1..l_(i-1))/2) E_(l_i) q^(H_(l_(i+1)..l_n)/2)

with H_(...) the summed weight of the named legs; `coproduct` builds this
for any group, and D(H) is the plain sum of the H_(l_i).
"""

import itertools
from fractions import Fraction
from functools import cache

from .lattice import DENOM, ratio_str, to_units, twice
from .polys import add_into, poly_add
from .scalar import (
    SC_ONE,
    SC_ZERO,
    Scalar,
    dot,
    qnum,
    qpow_units,
    sc_coeff,
    sqrt_qint,
)

__all__ = [
    "Spin",
    "TensorSpace",
    "GradedOperator",
    "Product",
    "identity_op",
    "zero_op",
    "rep_h",
    "rep_eplus",
    "rep_eminus",
    "embed",
    "leg_weights",
    "coproduct",
    "coproduct_h",
    "coproduct_eplus",
    "coproduct_eminus",
    "zero_weight_indices",
    "relations",
    "check_algebra",
]


class Spin:
    """A finite-dimensional irreducible, labelled by twice its spin."""

    __slots__ = ("twice",)

    def __init__(self, j):
        if isinstance(j, Spin):
            self.twice = j.twice
            return
        try:
            t = twice(j)
        except ValueError:
            t = -1
        if t < 0:
            raise ValueError("spin must be a nonnegative half-integer")
        self.twice = t

    @property
    def j(self):
        return Fraction(self.twice, 2)

    @property
    def dim(self):
        return self.twice + 1

    def twice_m(self, i):
        """2m of basis vector i (descending order: i = 0 is m = +j)."""
        return self.twice - 2 * i

    def __eq__(self, other):
        return isinstance(other, Spin) and self.twice == other.twice

    def __hash__(self):
        return hash(("spin", self.twice))

    def __repr__(self):
        return "Spin(%s)" % (ratio_str(self.twice, 2),)


class TensorSpace:
    __slots__ = ("spins", "dims", "dim", "leg_weights", "total_weights")

    def __init__(self, spins):
        self.spins = tuple(Spin(s) for s in spins)
        self.dims = tuple(s.dim for s in self.spins)
        dim = 1
        for d in self.dims:
            dim *= d
        self.dim = dim
        legs = len(self.spins)
        weights = [[0] * dim for _ in range(legs)]
        totals = [0] * dim
        for idx, multi in enumerate(itertools.product(*map(range, self.dims))):
            t = 0
            for l, il in enumerate(multi):
                w = self.spins[l].twice_m(il)
                weights[l][idx] = w
                t += w
            totals[idx] = t
        self.leg_weights = tuple(tuple(w) for w in weights)
        self.total_weights = tuple(totals)

    def index(self, multi):
        idx = 0
        for d, i in zip(self.dims, multi):
            idx = idx * d + i
        return idx

    def multi(self, idx):
        out = []
        for d in reversed(self.dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def __eq__(self, other):
        return isinstance(other, TensorSpace) and self.spins == other.spins

    def __hash__(self):
        return hash(self.spins)

    def __repr__(self):
        return "TensorSpace(%s)" % (
            ", ".join(ratio_str(s.twice, 2) for s in self.spins),)


class GradedOperator:
    """Sparse matrix over the exact scalar field."""

    __slots__ = ("space", "data")

    def __init__(self, space, data):
        # raw constructor: data holds no zero scalars
        self.space = space
        self.data = data

    # ----------------------------------------------------------- basics

    def __bool__(self):
        return bool(self.data)

    def entry(self, r, c):
        return self.data.get((r, c), SC_ZERO)

    def __eq__(self, other):
        if isinstance(other, GradedOperator):
            return self.space == other.space and self.data == other.data
        return NotImplemented

    def __repr__(self):
        return "<GradedOperator %dx%d, %d entries>" % (
            self.space.dim,
            self.space.dim,
            len(self.data),
        )

    # ------------------------------------------------------- arithmetic

    def __neg__(self):
        return GradedOperator(self.space, {k: -s for k, s in self.data.items()})

    def __add__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("operator spaces differ")
        return GradedOperator(self.space, poly_add(self.data, other.data))

    def __sub__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self + (-other)

    def __matmul__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("operator spaces differ")
        return GradedOperator(self.space, _times(self.data, _row_index(other)))

    def __mul__(self, factor):
        if isinstance(factor, GradedOperator):
            return NotImplemented
        f = factor if isinstance(factor, Scalar) else sc_coeff(factor)
        if not f:
            return zero_op(self.space)
        return GradedOperator(
            self.space, {k: s * f for k, s in self.data.items()}
        )

    __rmul__ = __mul__

    # ------------------------------------------------------ lattice maps

    def shift_x_by_weight(self, coeff, weights):
        """Substitute x -> x q^(coeff * w) with w the given diagonal weight.

        Only legal when the weight is conserved by the operator, i.e. the
        shifted argument commutes with it.
        """
        if type(coeff) is not int:
            coeff = Fraction(coeff)
        if not coeff:
            return self
        out = {}
        for (r, c), s in self.data.items():
            if weights[r] != weights[c]:
                raise ValueError(
                    "shift weight not conserved on entry (%d, %d)" % (r, c)
                )
            out[(r, c)] = s.shift_x_units(to_units(coeff * weights[r]))
        return GradedOperator(self.space, out)

    def shift_x(self, m):
        """Substitute x -> x q^m on every entry."""
        mu = to_units(m)
        if not mu:
            return self
        return GradedOperator(
            self.space, {k: s.shift_x_units(mu) for k, s in self.data.items()}
        )

    # ---------------------------------------------------------- queries

    def rows(self, indices=None):
        """(r, {c: scalar}) for each row index r of `indices`, by default
        0, 1, ..., dim - 1, empty rows included, each row's columns in
        storage order."""
        index = _row_index(self)
        for r in range(self.space.dim) if indices is None else indices:
            yield r, dict(index.get(r, ()))

    def to_jsonable(self):
        return {
            "spins": [ratio_str(s.twice, 2) for s in self.space.spins],
            "entries": {
                "%d,%d" % k: self.data[k].to_jsonable()
                for k in sorted(self.data)
            },
        }


def _row_index(op):
    """The stored rows of op: row -> [(col, scalar)] in storage order."""
    index = {}
    for (r, c), s in op.data.items():
        index.setdefault(r, []).append((c, s))
    return index


def _times(data, index):
    """The entries {(r, k): scalar} times the operator whose row index is
    `index`, as {(r, c): scalar}: the one product kernel.

    The pairs of each output entry reach dot in the order of k in `data`, so
    a row passed alone gets the same pairs, in the same order, as it gets
    among all the rows of an operator."""
    pairs = {}
    for (r, k), sa in data.items():
        cols = index.get(k)
        if not cols:
            continue
        for c, sb in cols:
            pairs.setdefault((r, c), []).append((sa, sb))
    out = {}
    for rc, entry in pairs.items():
        s = dot(entry)
        if s:
            out[rc] = s
    return out


class Product:
    """The unevaluated product A1 @ A2 @ ... @ An of operators on one space.

    Row r of the product is e_r A1 A2 ... An, so `rows` builds each row on
    its own, left to right, and a check can drop it before building the
    next: only the factors and one row are held at a time.  That is exact
    whatever the factors are (no weight needs to be conserved), and the
    arithmetic is that of the evaluated product, pair for pair.
    """

    __slots__ = ("space", "factors")

    def __init__(self, *factors):
        space = factors[0].space
        if any(f.space != space for f in factors):
            raise ValueError("operator spaces differ")
        self.space = space
        self.factors = factors

    def rows(self, indices=None):
        """(r, {c: scalar}) for each row index r of `indices`, by default
        0, 1, ..., dim - 1, empty rows included.  A row is the same
        whichever rows are asked for with it."""
        first = _row_index(self.factors[0])
        rest = [_row_index(f) for f in self.factors[1:]]
        for r in range(self.space.dim) if indices is None else indices:
            data = {(r, c): s for c, s in first.get(r, ())}
            for index in rest:
                if not data:
                    break
                data = _times(data, index)
            yield r, {c: s for (_, c), s in data.items()}


def zero_op(space):
    return GradedOperator(space, {})


def identity_op(space):
    return GradedOperator(space, {(i, i): SC_ONE for i in range(space.dim)})


def diag_scalars(space, values):
    data = {}
    for i, s in enumerate(values):
        if s:
            data[(i, i)] = s
    return GradedOperator(space, data)


# ------------------------------------------------------- representations ---

def _single(spin):
    return TensorSpace((spin,))


def rep_h(spin):
    return _rep_h(Spin(spin))


def rep_eplus(spin):
    return _rep_eplus(Spin(spin))


def rep_eminus(spin):
    return _rep_eminus(Spin(spin))


@cache
def _rep_h(spin):
    data = {}
    for i in range(spin.dim):
        tm = spin.twice_m(i)
        if tm:
            data[(i, i)] = sc_coeff(tm)
    return GradedOperator(_single(spin), data)


@cache
def _rep_eplus(spin):
    data = {}
    for i in range(1, spin.dim):
        # input m at index i, output m+1 at index i-1
        data[(i - 1, i)] = sqrt_qint(i) * sqrt_qint(spin.twice - i + 1)
    return GradedOperator(_single(spin), data)


@cache
def _rep_eminus(spin):
    data = {}
    for i in range(spin.dim - 1):
        data[(i + 1, i)] = sqrt_qint(spin.twice - i) * sqrt_qint(i + 1)
    return GradedOperator(_single(spin), data)


def embed(op, big, legs):
    """Extend an operator on a sub-tensor-factor to the full space.

    legs gives, for each leg of op.space in order, the target leg of big;
    permutations are allowed, so embedding a two-leg operator with
    legs=(1, 0) realizes the flipped action.
    """
    sub = op.space
    legs = tuple(legs)
    if tuple(sub.spins) != tuple(big.spins[l] for l in legs):
        raise ValueError("leg spins do not match the embedded operator")
    others = [l for l in range(len(big.spins)) if l not in legs]
    other_ranges = [range(big.dims[l]) for l in others]
    nlegs = len(big.spins)
    out = {}
    for (rs, cs), s in op.data.items():
        rmulti = sub.multi(rs)
        cmulti = sub.multi(cs)
        for assign in itertools.product(*other_ranges):
            rfull = [0] * nlegs
            cfull = [0] * nlegs
            for pos, l in enumerate(legs):
                rfull[l] = rmulti[pos]
                cfull[l] = cmulti[pos]
            for pos, l in enumerate(others):
                rfull[l] = assign[pos]
                cfull[l] = assign[pos]
            out[(big.index(rfull), big.index(cfull))] = s
    return type(op)(big, out)


def leg_weights(space, legs):
    """2m summed over the legs `legs` of space, for every basis index."""
    if not legs:
        return (0,) * space.dim
    return tuple(map(sum, zip(*(space.leg_weights[l] for l in legs))))


def coproduct(rep, space, legs, flipped=False):
    """The iterated coproduct of the one-leg generator rep over the ordered
    tuple `legs` of space's legs.

    Each leg contributes rep on that leg times q^(-H/2) on the legs before
    it and q^(H/2) on the legs after it; flipped swaps the two dressings,
    and rep_h takes no dressing.
    """
    sign = -1 if flipped else 1
    out = {}
    for n, leg in enumerate(legs):
        before = leg_weights(space, legs[:n])
        after = leg_weights(space, legs[n + 1:])
        g = embed(rep(space.spins[leg]), space, (leg,))
        for (r, c), s in g.data.items():
            e = 0 if rep is rep_h else sign * (after[r] - before[r])
            add_into(out, (r, c), s * qpow_units(DENOM * e // 2) if e else s)
    return GradedOperator(space, out)


def coproduct_h(space2):
    return coproduct(rep_h, space2, (0, 1))


def coproduct_eplus(space2, flipped=False):
    return coproduct(rep_eplus, space2, (0, 1), flipped)


def coproduct_eminus(space2, flipped=False):
    return coproduct(rep_eminus, space2, (0, 1), flipped)


def zero_weight_indices(space):
    return [i for i, w in enumerate(space.total_weights) if w == 0]


def relations(h, ep, em, weights):
    """The defining relations on images h, ep, em of H, E+, E-, where
    weights is the diagonal of h: a list of (label, lhs, rhs)."""
    two = sc_coeff(2)
    return [
        ("[H, E+] = 2 E+", h @ ep - ep @ h, ep * two),
        ("[H, E-] = -2 E-", h @ em - em @ h, em * (-two)),
        ("[E+, E-] = [H]", ep @ em - em @ ep,
         diag_scalars(h.space, [qnum(w) for w in weights])),
    ]


def _first_failure(comparisons):
    """The label of the first comparison whose sides differ, else None."""
    return next((label for label, lhs, rhs in comparisons if lhs != rhs), None)


def check_algebra(spin):
    """Defining relations of the quantum algebra in the spin-j matrices.

    Returns (ok, message); message names the first failing relation.
    """
    spin = Spin(spin)
    h = rep_h(spin)
    failed = _first_failure(
        relations(h, rep_eplus(spin), rep_eminus(spin), h.space.total_weights))
    if failed:
        return False, "%s fails at spin %s" % (failed, ratio_str(spin.twice, 2))
    return True, "spin %s algebra relations hold" % ratio_str(spin.twice, 2)


def check_coproduct_algebra(space2, flipped=False):
    """The coproduct images satisfy the same defining relations."""
    failed = _first_failure(relations(
        coproduct_h(space2),
        coproduct_eplus(space2, flipped),
        coproduct_eminus(space2, flipped),
        space2.total_weights,
    ))
    if failed:
        return False, "%s fails on the coproduct" % failed
    return True, "coproduct algebra relations hold"
