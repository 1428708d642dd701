"""Exact arithmetic in finite Grassmann algebras and graded matrices over them.

The scalar ring of the whole library is the exterior algebra on ``n``
anticommuting generators ``e1 .. en`` with real coefficients.  An element is
stored as a dense vector of ``2**n`` components indexed by bitmask: bit
``i-1`` of the key is set iff generator ``ei`` divides the basis monomial,
and monomials are kept in canonical strictly increasing order (signs are
normalized at construction time).  Component 0 is the *body*; the remaining
nilpotent part is the *soul*.

This module alone knows that layout: the bitmask keys, the grade and sign of
each key (:func:`grades_of`, :func:`ring_parity_signs`), the block
parities of graded matrices (:func:`split_parities`, :func:`total_parities`,
:func:`stack_parity`), and where an extra odd coordinate theta sits when it
is adjoined as generator n + 1 (:func:`adjoin_theta`, :func:`split_theta`).
It also owns the one generator limit: an element holds at most
``MAX_GENERATORS`` generators, checked where it is built, and the product
tables go one generator higher so that theta always finds its slot.
Every ring product -- of scalars, of matrix stacks, of a stack by a scalar --
goes through one kernel over the 3**n pairs of disjoint keys, sorted by
product key so that each product component is one segment sum.  A soul-free
factor (every component but the body zero) pairs only with the unit, so the
kernel multiplies its body into the partner and skips the pair table.  From
5 generators on, the kernel gathers only the live pairs: (I, J) with a
nonzero component at key I of the left factor and key J of the right one.
Sparse data (an odd theta, a soul on a few keys, data on a few generators)
then costs what it spans, not 3**n; dense factors use the whole table.  A
graded product is one plain product too: A o B = T_rows(T_rows(A) . T_mid(B))
with T_p signing key K, row i by (-1)**(|K| p_i), as the pair sign
(-1)**(|J| (p_i + p_j)) splits per factor by |J| = |K| - |I|.  The
soul series of a function at an even time is :func:`soul_series`.

Component arrays keep the keys on the leading axis.  A batch axis of grid
nodes may follow it: (2**n, nodes) for scalars, (2**n, nodes, r, c) for
matrices.  A factor with fewer axes than its partner (one element times a
batch, one vector scaling a batch of stacks) is padded on the right, so
every kernel serves a whole grid in one call.  The kernel bounds its own
memory: a product whose gathered pairs would pass a fixed size runs over
chunks of its batch axis, sized by the pairs it actually gathers.

Conventions used everywhere downstream:

* products are written left to right, ``e1*e2 == e12 == -(e2*e1)``;
* the parity involution fixes the even part and negates the odd part (for
  graded matrices it also flips the sign of the off-diagonal blocks, i.e. it
  uses the *total* parity of an entry);
* smooth functions of even arguments with nilpotent souls are evaluated by
  :func:`taylor_eval_stack` through one :func:`monomial_table`: a `PolyMap`
  contracts its monomials in the arguments, its exact Taylor extension; a
  `SmoothMap` reports mixed partials at real points, contracted with the
  soul monomials as the terminating Taylor series.

Thread safety: elements, graded matrices, polynomial maps and algebra maps
hold read-only component arrays and are never changed after construction,
so they may be shared between threads.  The only state filled later is the
per-size table caches (``functools.lru_cache``), which build equal values
if two threads race.  A ``SmoothMap`` is as safe as the oracle it wraps.
"""

from __future__ import annotations

import itertools
import math
from enum import IntEnum
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapabilityError, DimensionError, DomainError, ParityError

MAX_GENERATORS = 12


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    def flipped(self) -> "Parity":
        return Parity(self ^ 1)

    @staticmethod
    def combine(a: "Parity | None", b: "Parity | None") -> "Parity | None":
        if a is None or b is None:
            return None
        return Parity(a ^ b)


@lru_cache(maxsize=None)
def _tables(n: int):
    """Multiplication table of the algebra on ``n`` generators.

    Returns index arrays (I, J, S) over all 3**n pairs of disjoint keys with
    e_I e_J = S e_{I|J}, sorted by the product key I|J; the offsets where
    each product key's group of pairs starts; and the per-key grade array.
    The pairs are built by adding one generator at a time: each pair omits
    it, puts it in I (passing it over every generator of J, all lower), or
    puts it in J.  Tables exist up to ``MAX_GENERATORS + 1`` generators: the
    slot above the elements' limit is theta's, adjoined along a path.
    """
    # + 1: theta's slot, generator n + 1 of a pullback at n = MAX_GENERATORS
    if not 0 <= n <= MAX_GENERATORS + 1:
        raise DimensionError(f"generator count must be in [0, {MAX_GENERATORS + 1}], got {n}")
    I = np.zeros(1, dtype=np.intp)
    J = np.zeros(1, dtype=np.intp)
    S = np.ones(1)
    grades = np.zeros(1, dtype=np.int64)
    for g in range(n):
        bit = 1 << g
        swaps = 1 - 2 * (grades[J] & 1)
        I = np.concatenate((I, I | bit, I))
        J = np.concatenate((J, J, J | bit))
        S = np.concatenate((S, S * swaps, S))
        grades = np.concatenate((grades, grades + 1))
    K = I | J
    order = np.argsort(K, kind="stable")
    starts = np.searchsorted(K[order], np.arange(1 << n))
    tables = (I[order], J[order], S[order], starts, grades)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def grades_of(n: int) -> np.ndarray:
    return _tables(n)[4]


@lru_cache(maxsize=None)
def _odd_keys(n: int) -> np.ndarray:
    mask = grades_of(n) % 2 == 1
    mask.setflags(write=False)
    return mask


def ring_parity_signs(n: int) -> np.ndarray:
    """(-1)**grade per key: the scalar parity involution as a sign vector."""
    return np.where(_odd_keys(n), -1.0, 1.0)


def split_parities(split: Sequence[int]) -> np.ndarray:
    """0/1 parities of the rows (or columns) of an (even, odd) split."""
    return np.repeat(np.array([0, 1]), split)


def total_parities(n: int, row_split: Sequence[int], col_split: Sequence[int]) -> np.ndarray:
    """0/1 total parity (grade XOR row XOR column) of each entry of a
    (2**n, r, c) component stack."""
    block = split_parities(row_split)[:, None] ^ split_parities(col_split)[None, :]
    return _odd_keys(n)[:, None, None] ^ block[None, :, :]


def parities_present(n: int, comps) -> set[int]:
    """Parities (0/1) of the keys, on the leading axis, whose component is
    nonzero (NaN counts as nonzero)."""
    return set(_odd_keys(n)[np.nonzero(np.atleast_1d(comps))[0]].astype(int).tolist())


def stack_parity(n: int, comps: np.ndarray, row_split: Sequence[int],
                 col_split: Sequence[int]) -> Parity | None:
    """Parity of a (2**n, r, c) component stack if homogeneous, else None.

    Zero counts as even and NaN as nonzero.
    """
    total = total_parities(n, row_split, col_split)
    return next((p for p in Parity if not np.any(comps[total != p])), None)


def _keyed(u: np.ndarray, ndim: int) -> np.ndarray:
    # a key-axis factor padded on the right to an operand's ndim
    return u.reshape(u.shape + (1,) * (ndim - u.ndim))


def _theta_signs(n: int, ndim: int) -> np.ndarray:
    # theta * e_K = (-1)**|K| e_K * theta, and e_K * theta has key K + 2**n
    return _keyed(ring_parity_signs(n), ndim)


def adjoin_theta(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of a + theta*b over n + 1 generators, theta = e_{n+1}.

    ``a`` and ``b`` are scalar or matrix component arrays over n generators,
    keys on the leading axis (node batches allowed); inverse of
    :func:`split_theta`.
    """
    return np.concatenate((a, _theta_signs(n, np.ndim(b)) * b))


def split_theta(n: int, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write a vector or stack over n + 1 generators as a + theta*b, with a
    and b over the first n generators; inverse of :func:`adjoin_theta`."""
    dim = 1 << n
    return stack[:dim].copy(), _theta_signs(n, stack.ndim) * stack[dim:]


# From this many generators on, a soulful product gathers only its live key
# pairs.  The crossover, measured on every ring product of one benchmark op,
# each timed alone (best of 30, 2 vCPU): at n = 4 the chart problem's 116
# products take 2.4 ms on the full table and 4.1 ms with the support test,
# as its data fills nearly every key; at n = 5 its 8 theta-adjoined products
# take 0.55 ms and 0.39 ms, and at n = 8 the point problem's 41 take 5.4 ms
# and 1.4 ms.
_LIVE_PAIRS_FROM = 5

# Largest gathered operand of one ring product, in components (128 KiB of
# float64); a product over it runs in chunks of its batch axis.
_GATHER_CAP = 1 << 14


def _ring_product(n: int, a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    # Every ring product: gather the factor components of the key pairs,
    # combine them with ``op``, sign them and sum each product key's group.
    # A soul-free factor pairs only with the unit, through the pairs (0, K)
    # and (K, 0) (sign +1), so it skips the table; NaN counts as soul.
    if not np.count_nonzero(a[1:]):
        return op(a[:1], b)
    if not np.count_nonzero(b[1:]):
        return op(a, b[:1])
    I, J, S, starts, _ = _tables(n)
    keys = None  # product keys of the groups, when some key has none
    if n >= _LIVE_PAIRS_FROM:
        # Only the live pairs (I, J), nonzero (or NaN) at key I of a and at
        # key J of b, add to the product; selecting them keeps the table's
        # order by product key.  The bodies count as live, so a non-finite
        # component always meets its partner's body (NaN * 0 is NaN) and
        # poisons the product as on the full table, and (0, 0) is live.
        sa = a.reshape(1 << n, -1).any(axis=1)
        sb = b.reshape(1 << n, -1).any(axis=1)
        sa[0] = sb[0] = True
        if not (sa.all() and sb.all()):
            live = np.flatnonzero(sa[I] & sb[J])
            I, J, S = I[live], J[live], S[live]
            K = I | J
            head = np.empty(K.size, dtype=bool)  # the first pair of each group
            head[0] = True
            np.not_equal(K[1:], K[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            keys = K[starts]
    # A gather over the cap runs over chunks of the items on axis 1 (nodes,
    # terms or steps) that fit, one item when one alone does not; a factor
    # of one item meets every chunk.  A lone (2**n,) or (2**n, r, c) is one.
    items = 1 if a.ndim in (1, 3) else max(a.shape[1], b.shape[1])
    size = max(1, _GATHER_CAP * items // max(1, len(I) * (max(a.size, b.size) >> n)))
    if size >= items:
        sums = _pair_sums(a, b, op, I, J, S, starts)
    else:
        sums = np.concatenate([
            _pair_sums(*(x[:, lo:lo + size] if x.shape[1] > 1 else x for x in (a, b)),
                       op, I, J, S, starts) for lo in range(0, items, size)], axis=1)
    if keys is None:
        return sums  # on the full table key K has the pairs (0, K) and (K, 0)
    out = np.zeros((1 << n,) + sums.shape[1:])
    out[keys] = sums
    return out


def _pair_sums(a: np.ndarray, b: np.ndarray, op, I, J, S, starts) -> np.ndarray:
    # the signed products of the pairs (I, J), summed per product key
    prod = op(a[I], b[J])
    prod *= S.reshape((-1,) + (1,) * (prod.ndim - 1))
    return np.add.reduceat(prod, starts, axis=0)


def mul_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of two scalar component arrays, (2**n,) or (2**n, nodes);
    a single vector times a node batch multiplies every node.  Equal shapes
    (2**n, terms, nodes) fold to (2**n, items), chunked by (term, node)."""
    if u.ndim > 2 and u.shape == v.shape:
        flat = [x.reshape(len(x), -1) for x in (u, v)]
        return _ring_product(n, *flat, np.multiply).reshape(u.shape)
    ndim = max(u.ndim, v.ndim)
    return _ring_product(n, _keyed(u, ndim), _keyed(v, ndim), np.multiply)


def mul_stacks(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise-ring product of two matrix component stacks, (2**n, r, c)
    or node batches (2**n, nodes, r, c).

    This is the product of matrices over the scalar ring with no block
    bookkeeping; the operator product of graded matrices is
    :func:`graded_mul_stacks`.
    """
    return _ring_product(n, a, b, np.matmul)


@lru_cache(maxsize=None)
def _twist_signs(n: int, parities: tuple[int, ...], ndim: int) -> np.ndarray:
    signs = np.where(_odd_keys(n)[:, None] & np.array(parities, dtype=bool), -1.0, 1.0)
    signs = signs.reshape((1 << n,) + (1,) * (ndim - 3) + (len(parities), 1))
    signs.setflags(write=False)
    return signs


def sign_twist(n: int, stack: np.ndarray, row_par: np.ndarray) -> np.ndarray:
    """T_p: key K, row i of a stack times (-1)**(|K| p_i) for the 0/1 row
    parities p; batch axes may sit between keys and rows.  An involution."""
    return stack * _twist_signs(n, tuple(row_par.tolist()), stack.ndim)


def graded_mul_stacks(n: int, a: np.ndarray, b: np.ndarray,
                      rows_par: np.ndarray, mid_par: np.ndarray) -> np.ndarray:
    """Operator product in the graded tensor algebra Lambda (x) End(V).

    Endomorphism-odd blocks of A anticommute with odd scalars of B, so the
    key pair (I, J) of A_ij e_I B_jk e_J carries (-1)**(|J| (p_i + p_j)).
    I and J are disjoint, so |J| = |K| - |I| for K = I|J and the sign splits
    into (-1)**(|K| p_i) (output only), (-1)**(|I| p_i) (A only) and
    (-1)**(|J| p_j) (B only): A o B = T_rows(T_rows(A) . T_mid(B)) with T
    the :func:`sign_twist` and ``.`` one :func:`mul_stacks` product.
    ``rows_par``/``mid_par`` are the 0/1 parities of A's rows and columns.
    If rows = mid, T is an algebra map: T(A o B) = T(A) . T(B).
    """
    return sign_twist(n, mul_stacks(n, sign_twist(n, a, rows_par),
                                    sign_twist(n, b, mid_par)), rows_par)


def scale_stack(n: int, u: np.ndarray, m: np.ndarray, side: str = "left") -> np.ndarray:
    """Multiply a matrix stack by a scalar on one side: a (2**n, r, c) stack
    by a vector, or a (2**n, nodes, r, c) batch by a vector or by one
    (2**n, nodes) scalar per node."""
    u = _keyed(u, m.ndim)
    if side == "left":
        return _ring_product(n, u, m, np.multiply)
    return _ring_product(n, m, u, np.multiply)


def soul_series(n: int, soul: np.ndarray, derivative: Callable[[int], np.ndarray]):
    """Terminating Taylor tail sum_{k>=1} soul**k / k! * derivative(k).

    ``soul`` is one vector or a (2**n, nodes) batch of souls, one per node.
    ``derivative(k)`` is scalar-valued (the soul's shape) or matrix-valued
    (a stack with the soul's axes first) and is requested for k = 1, 2, ...
    in turn, only while soul**k is nonzero at some node; the series stops
    at the first power that vanishes everywhere (at the latest past k = n).
    Returns 0.0 for a zero soul.  The soul is even, so the side it
    multiplies from is immaterial.
    """
    out = 0.0
    power = soul
    for k in range(1, n + 1):
        if not np.any(power):
            break
        d = derivative(k)
        if np.any(d):  # a zero derivative adds zeros without a product
            coeff = power / math.factorial(k)
            d = mul_components(n, coeff, d) if d.ndim == soul.ndim else scale_stack(n, coeff, d)
        out = out + d
        power = mul_components(n, power, soul)
    return out


def node_blocks(n: int, nodes: int, entries: int = 1) -> list[slice]:
    """Consecutive slices covering ``range(nodes)`` for a pipeline of ring
    products over (2**n, block, r, c) stacks with r * c = ``entries``.

    The kernel bounds each product's gather; these blocks bound the
    temporaries a pipeline holds at once.  They are sized as if every
    product gathered the full table, 3**n * block * entries components,
    under the kernel's cap, so for n >= 9 a block is one node.
    """
    size = max(1, _GATHER_CAP // (3 ** n * entries))
    return [slice(lo, min(lo + size, nodes)) for lo in range(0, nodes, size)]


def monomial_table(xs: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The (2**n, terms, nodes) table of the monomials prod_i x_i**e_i.

    ``xs`` holds the (nvars, 2**n, nodes) component columns of even
    arguments and ``exponents`` one (nvars,) row per term.  Factors multiply
    on the right in coordinate order.  Coordinate i costs at most max_t e_ti
    ring products, its powers and one product into the table, shared by all
    terms.
    """
    _, dim, nodes = xs.shape
    n = dim.bit_length() - 1
    one = np.zeros((dim, len(exponents), nodes))
    one[0] = 1.0
    table = one
    for x, e in zip(xs, exponents.T):
        if e.max(initial=0):
            powers = [one[:, 0], x]
            while len(powers) <= e.max():
                powers.append(mul_components(n, powers[-1], x))
            factor = np.stack(powers, axis=1)[:, e]
            table = factor if table is one else mul_components(n, table, factor)
    return table


def key_from_indices(indices: Sequence[int]) -> int:
    key = 0
    for i in indices:
        bit = 1 << (i - 1)
        if key & bit:
            raise ValueError(f"repeated generator index {i}")
        key |= bit
    return key


def parse_key(key: str, top: int) -> tuple[int, ...]:
    """The indices of a monomial key "i|j|..." as :meth:`GrassmannElement.to_json_dict`
    writes it, "" for the unit; a key that does not list them canonically,
    increasing strictly within 1..top, raises ValueError."""
    idx = tuple(int(s) for s in key.split("|") if s.isdecimal())
    if "|".join(map(str, idx)) != key or list(idx) != sorted(set(idx) & set(range(1, top + 1))):
        raise ValueError(f"key {key!r} must list strictly increasing indices in 1..{top}")
    return idx


def indices_from_key(key: int) -> tuple[int, ...]:
    out = []
    i = 1
    while key:
        if key & 1:
            out.append(i)
        key >>= 1
        i += 1
    return tuple(out)


class GrassmannElement:
    """An element of the Grassmann algebra on ``n`` generators."""

    __slots__ = ("n", "comps")

    def __init__(self, n: int, comps: np.ndarray):
        if not 0 <= n <= MAX_GENERATORS:
            raise DimensionError(f"generator count must be in [0, {MAX_GENERATORS}], got {n}")
        if comps.shape != (1 << n,):
            raise DimensionError(f"expected {1 << n} components, got {comps.shape}")
        comps = np.asarray(comps, dtype=np.float64).copy()
        comps.setflags(write=False)
        self.n = n
        self.comps = comps

    @classmethod
    def _fresh(cls, n: int, comps: np.ndarray) -> "GrassmannElement":
        # internal: adopt a newly allocated array without copying
        self = cls.__new__(cls)
        comps.setflags(write=False)
        self.n = n
        self.comps = comps
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, np.zeros(1 << n))

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls.scalar(n, 1.0)

    @classmethod
    def scalar(cls, n: int, value: float) -> "GrassmannElement":
        comps = np.zeros(1 << n)
        comps[0] = value
        return cls(n, comps)

    @classmethod
    def generator(cls, n: int, i: int) -> "GrassmannElement":
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} out of range 1..{n}")
        comps = np.zeros(1 << n)
        comps[1 << (i - 1)] = 1.0
        return cls(n, comps)

    @classmethod
    def monomial(cls, n: int, indices: Sequence[int], coeff: float = 1.0) -> "GrassmannElement":
        comps = np.zeros(1 << n)
        comps[key_from_indices(indices)] = coeff
        return cls(n, comps)

    @classmethod
    def from_terms(cls, n: int, terms: Mapping[Sequence[int], float]) -> "GrassmannElement":
        comps = np.zeros(1 << n)
        for indices, coeff in terms.items():
            comps[key_from_indices(tuple(indices))] += coeff
        return cls(n, comps)

    # -- structure ---------------------------------------------------------

    @property
    def body(self) -> float:
        return float(self.comps[0])

    def soul(self) -> "GrassmannElement":
        comps = self.comps.copy()
        comps[0] = 0.0
        return GrassmannElement(self.n, comps)

    def even_part(self) -> "GrassmannElement":
        return GrassmannElement(self.n, np.where(_odd_keys(self.n), 0.0, self.comps))

    def odd_part(self) -> "GrassmannElement":
        return GrassmannElement(self.n, np.where(_odd_keys(self.n), self.comps, 0.0))

    @property
    def parity(self) -> Parity | None:
        """Parity if homogeneous (zero counts as either), else None."""
        has_even = not self.is_odd()
        has_odd = not self.is_even()
        if has_even and has_odd:
            return None
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def is_even(self) -> bool:
        """No nonzero (or NaN) odd component."""
        return not np.any(self.comps[_odd_keys(self.n)] != 0.0)

    def is_odd(self) -> bool:
        """No nonzero (or NaN) even component."""
        return not np.any(self.comps[~_odd_keys(self.n)] != 0.0)

    def parity_involution(self) -> "GrassmannElement":
        """The algebra automorphism that negates the odd part."""
        return GrassmannElement(self.n, self.comps * ring_parity_signs(self.n))

    def norm(self) -> float:
        return float(np.max(np.abs(self.comps)))

    def terms(self) -> dict[tuple[int, ...], float]:
        return {
            indices_from_key(k): float(c)
            for k, c in enumerate(self.comps)
            if c != 0.0
        }

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            if other.n != self.n:
                raise DimensionError(f"algebras differ: {self.n} vs {other.n} generators")
            return other
        if isinstance(other, (int, float)):
            return GrassmannElement.scalar(self.n, float(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GrassmannElement._fresh(self.n, self.comps + other.comps)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GrassmannElement._fresh(self.n, self.comps - other.comps)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GrassmannElement._fresh(self.n, other.comps - self.comps)

    def __neg__(self):
        return GrassmannElement._fresh(self.n, -self.comps)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GrassmannElement._fresh(self.n, self.comps * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GrassmannElement._fresh(self.n, mul_components(self.n, self.comps, other.comps))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return GrassmannElement._fresh(self.n, self.comps * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return GrassmannElement._fresh(self.n, self.comps / float(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.comps, other.comps))

    def __hash__(self):
        return hash((self.n, self.comps.tobytes()))

    def allclose(self, other: "GrassmannElement", tol: float = 1e-12) -> bool:
        return self.n == other.n and bool(np.all(np.abs(self.comps - other.comps) <= tol))

    def __repr__(self) -> str:
        parts = []
        for k, c in sorted(self.terms().items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "1" if not k else "e" + "".join(f"{i}" if i < 10 else f"({i})" for i in k)
            parts.append(f"{c:g}*{name}" if k else f"{c:g}")
        return f"G{self.n}[{' + '.join(parts) if parts else '0'}]"

    # -- algebra changes ---------------------------------------------------

    def promoted(self, n_new: int) -> "GrassmannElement":
        """Embed into the algebra on ``n_new >= n`` generators."""
        if n_new < self.n:
            raise DimensionError("cannot demote to fewer generators")
        comps = np.zeros(1 << n_new)
        comps[: 1 << self.n] = self.comps
        return GrassmannElement(n_new, comps)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict[str, float]:
        return {
            "|".join(str(i) for i in idx): c for idx, c in self.terms().items()
        }

    @classmethod
    def from_json_dict(cls, n: int, data: Mapping[str, float]) -> "GrassmannElement":
        comps = np.zeros(1 << n)
        for key, coeff in data.items():
            comps[key_from_indices(parse_key(key, n))] = float(coeff)
        return cls(n, comps)


# ---------------------------------------------------------------------------
# Smooth-function oracles and the Grassmann-analytic Taylor extension
# ---------------------------------------------------------------------------


class PolyMap:
    """A polynomial map R^nvars -> R or R^(r x c).

    Terms are stored as {exponent tuple: coefficient}; coefficients are
    floats or real ndarrays sharing one shape.  ``exponents`` (terms, nvars)
    and ``coeffs`` (terms,) + coeff_shape hold the same terms as arrays, in
    one order.
    """

    __slots__ = ("nvars", "terms", "coeff_shape", "exponents", "coeffs")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object]):
        self.nvars = nvars
        shape = None
        norm_terms: dict[tuple[int, ...], np.ndarray | float] = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or min(expo, default=0) < 0:
                raise DimensionError(f"exponent tuple {expo} needs {nvars} entries >= 0")
            arr = np.asarray(coeff, dtype=np.float64)
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise DimensionError("all coefficients must share one shape")
            if arr.shape == ():
                norm_terms[expo] = float(arr)
            else:
                arr = arr.copy()
                arr.setflags(write=False)
                norm_terms[expo] = arr
        self.terms = norm_terms
        self.coeff_shape = shape if shape is not None else ()
        self.exponents = np.array(list(norm_terms), dtype=np.intp).reshape(len(norm_terms), nvars)
        self.coeffs = np.array(list(norm_terms.values())).reshape(
            (len(norm_terms),) + self.coeff_shape)
        self.exponents.setflags(write=False)
        self.coeffs.setflags(write=False)

    @classmethod
    def constant(cls, nvars: int, value) -> "PolyMap":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def zero(cls, nvars: int, shape: tuple[int, ...] = ()) -> "PolyMap":
        return cls(nvars, {(0,) * nvars: np.zeros(shape)})

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def value(self, x: Sequence[float]):
        """The value at one real point x of shape (nvars,)."""
        return self.eval_stack(np.asarray(x, dtype=np.float64).reshape(self.nvars, 1, 1))[0, 0]

    def eval_stack(self, xs: np.ndarray) -> np.ndarray:
        """The polynomial computed in the ring at even arguments, which is
        its exact Taylor extension; see :func:`taylor_eval_stack`."""
        return np.einsum("ktn,t...->kn...", monomial_table(xs, self.exponents), self.coeffs)

    def partial(self, i: int) -> "PolyMap":
        e = self.exponents[:, i]
        if not e.any():
            return PolyMap.zero(self.nvars, self.coeff_shape)
        # lowering e_i is one-to-one on the terms with e_i > 0
        lowered = self.exponents - np.eye(self.nvars, dtype=np.intp)[i]
        return PolyMap(self.nvars, {tuple(lo): k * c
                                    for lo, k, c in zip(lowered, e, self.coeffs) if k})

    def _combine(self, other: "PolyMap", op) -> "PolyMap":
        terms: dict[tuple[int, ...], object] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                add = op(ca, cb)
                terms[key] = terms.get(key, 0.0 * add) + add
        return PolyMap(self.nvars, terms)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PolyMap(self.nvars, {e: (np.asarray(c) * other if not isinstance(c, float) else c * other) for e, c in self.terms.items()})
        if isinstance(other, PolyMap):
            return self._combine(other, lambda a, b: a * b)
        return NotImplemented

    __rmul__ = __mul__

    def matmul(self, other: "PolyMap") -> "PolyMap":
        return self._combine(other, lambda a, b: np.asarray(a) @ np.asarray(b))

    def ring_mul(self, other: "PolyMap", n: int) -> "PolyMap":
        """Pointwise product of maps valued in component vectors of the
        algebra on n generators (left factor first)."""
        return self._combine(other, lambda a, b: mul_components(n, a, b))

    def __add__(self, other: "PolyMap") -> "PolyMap":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0 * c) + c
        return PolyMap(self.nvars, terms)

    def __neg__(self) -> "PolyMap":
        return self * -1.0


class SmoothMap:
    """Smooth function given by a derivative oracle of limited order.

    ``eval_partial(alpha, x)`` must return d^alpha f at the real point x.
    Evaluation beyond ``max_order`` raises a capability error; points outside
    the optional domain box raise a domain error.
    """

    __slots__ = ("nvars", "_eval", "max_order", "coeff_shape", "domain")

    def __init__(self, nvars: int, eval_partial: Callable, max_order: int,
                 coeff_shape: tuple[int, ...] = (), domain=None):
        self.nvars = nvars
        self._eval = eval_partial
        self.max_order = max_order
        self.coeff_shape = coeff_shape
        self.domain = domain

    def value(self, x: Sequence[float]):
        return self.partial_eval((0,) * self.nvars, x)

    def partial_eval(self, alpha: Sequence[int], x):
        """The oracle at one real point x of shape (nvars,), or at each point
        of an (nvars, nodes) batch (results stacked on a leading axis)."""
        if sum(alpha) > self.max_order:
            raise CapabilityError(
                f"derivative oracle supplies order <= {self.max_order}, requested {tuple(alpha)}"
            )
        x = np.asarray(x, dtype=np.float64)
        if self.domain is not None:
            for xi, (lo, hi) in zip(x, self.domain):
                if not np.all((lo <= xi) & (xi <= hi)):
                    raise DomainError(f"point {x.tolist()} outside oracle domain")
        if x.ndim == 1:
            return self._eval(tuple(alpha), x)
        return np.stack([np.asarray(self._eval(tuple(alpha), x[:, k]), dtype=np.float64)
                         for k in range(x.shape[1])])

    def eval_stack(self, xs: np.ndarray) -> np.ndarray:
        """The terminating Taylor series sum_alpha s**alpha / alpha! * d^alpha f
        at the bodies, s the souls, from one :func:`monomial_table`; the oracle
        is asked only for the alpha whose s**alpha is nonzero at some node (at
        most n/2 in total order).  See :func:`taylor_eval_stack`."""
        nvars, dim, _ = xs.shape
        half = (dim.bit_length() - 1) // 2
        souls = np.where(np.arange(dim)[:, None] > 0, xs, 0.0)
        alphas = [a for a in itertools.product(range(half + 1), repeat=nvars) if sum(a) <= half]
        table = monomial_table(souls, np.array(alphas, dtype=np.intp).reshape(-1, nvars))
        out = None
        for alpha, prod in zip(alphas, table.swapaxes(0, 1)):
            if np.any(prod):
                coeff = np.asarray(self.partial_eval(alpha, xs[:, 0]), dtype=np.float64)
                term = _keyed(prod, coeff.ndim + 1) * coeff / math.prod(map(math.factorial, alpha))
                out = term if out is None else out + term
        return out


def taylor_eval_stack(f, xs: np.ndarray) -> np.ndarray:
    """Grassmann-analytic extension of ``f`` at even arguments, node by node.

    ``xs`` is an (nvars, 2**n, nodes) array: the component columns of every
    argument at every node.  Returns the (2**n, nodes) + coeff_shape stack of
    the value at each node, computed by ``f.eval_stack``: in the ring for a
    `PolyMap`, by the terminating series over souls for a `SmoothMap`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    nvars, dim, _ = xs.shape
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DimensionError(f"argument columns of length {dim} are not 2**n")
    if nvars and np.any(xs[:, _odd_keys(n)]):
        raise ParityError("taylor arguments must be even")
    return f.eval_stack(xs)


def taylor_eval(f, xs: Sequence[GrassmannElement]) -> GrassmannElement:
    """Scalar Grassmann-analytic evaluation at one point; see
    :func:`taylor_eval_stack`."""
    if not xs:
        raise DimensionError("taylor evaluation needs at least one argument")
    n = xs[0].n
    if any(x.n != n for x in xs):
        raise DimensionError("taylor arguments live over different algebras")
    stack = taylor_eval_stack(f, np.stack([x.comps for x in xs])[:, :, None])[:, 0]
    if stack.ndim != 1:
        raise DimensionError("taylor_eval expects a scalar-valued function")
    return GrassmannElement(n, stack)


# ---------------------------------------------------------------------------
# Graded matrices
# ---------------------------------------------------------------------------


class GradedMatrix:
    """A matrix over the Grassmann algebra with a Z/2 block structure.

    Rows split into ``row_split = (even, odd)`` and likewise columns.  A
    declared parity ``p`` requires every entry in block (i, j) to be a
    homogeneous element of parity ``p XOR blockparity(i, j)``; ``parity=None``
    skips the check and marks a heterogeneous value.
    """

    __slots__ = ("n", "comps", "row_split", "col_split", "parity")

    def __init__(self, n: int, comps: np.ndarray, row_split: tuple[int, int],
                 col_split: tuple[int, int], parity: Parity | None, check: bool = True):
        r = row_split[0] + row_split[1]
        c = col_split[0] + col_split[1]
        comps = np.asarray(comps, dtype=np.float64)
        if comps.shape != (1 << n, r, c):
            raise DimensionError(f"component stack shape {comps.shape} != {(1 << n, r, c)}")
        comps = comps.copy()
        comps.setflags(write=False)
        self.n = n
        self.comps = comps
        self.row_split = row_split
        self.col_split = col_split
        self.parity = parity
        if check and parity is not None:
            violations = np.abs(comps[total_parities(n, row_split, col_split) != parity])
            bad = float(violations.max()) if violations.size else 0.0
            if bad != 0.0:
                raise ParityError(f"matrix violates declared parity by {bad}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.comps.shape[1], self.comps.shape[2]

    @property
    def body(self) -> np.ndarray:
        return self.comps[0].copy()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_real(cls, n: int, matrix: np.ndarray, row_split, col_split,
                  parity: Parity | None = None) -> "GradedMatrix":
        matrix = np.asarray(matrix, dtype=np.float64)
        comps = np.zeros((1 << n,) + matrix.shape)
        comps[0] = matrix
        if parity is None:
            parity = stack_parity(n, comps, row_split, col_split)
        return cls(n, comps, tuple(row_split), tuple(col_split), parity)

    @classmethod
    def zeros(cls, n: int, row_split, col_split, parity: Parity | None = Parity.EVEN) -> "GradedMatrix":
        r = row_split[0] + row_split[1]
        c = col_split[0] + col_split[1]
        return cls(n, np.zeros((1 << n, r, c)), tuple(row_split), tuple(col_split), parity)

    @classmethod
    def identity(cls, n: int, split) -> "GradedMatrix":
        r = split[0] + split[1]
        comps = np.zeros((1 << n, r, r))
        comps[0] = np.eye(r)
        return cls(n, comps, tuple(split), tuple(split), Parity.EVEN)

    @classmethod
    def from_entries(cls, entries, row_split, col_split,
                     parity: Parity | None = None, check: bool = True) -> "GradedMatrix":
        rows = len(entries)
        cols = len(entries[0])
        n = entries[0][0].n
        comps = np.zeros((1 << n, rows, cols))
        for i in range(rows):
            for j in range(cols):
                e = entries[i][j]
                if e.n != n:
                    raise DimensionError("entries live over different algebras")
                comps[:, i, j] = e.comps
        return cls(n, comps, tuple(row_split), tuple(col_split), parity, check=check)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "GradedMatrix"):
        if self.n != other.n:
            raise DimensionError("matrices live over different algebras")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check_compatible(other)
        if self.shape != other.shape:
            raise DimensionError("shape mismatch in addition")
        parity = self.parity if self.parity == other.parity else None
        return GradedMatrix(self.n, self.comps + other.comps, self.row_split,
                            self.col_split, parity, check=False)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def __neg__(self) -> "GradedMatrix":
        return GradedMatrix(self.n, -self.comps, self.row_split, self.col_split,
                            self.parity, check=False)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Operator product in the graded algebra (odd blocks anticommute
        with odd scalars of the right factor)."""
        self._check_compatible(other)
        if self.col_split != other.row_split:
            raise DimensionError("block structure mismatch in product")
        comps = graded_mul_stacks(self.n, self.comps, other.comps,
                                  split_parities(self.row_split), split_parities(self.col_split))
        return GradedMatrix(self.n, comps, self.row_split, other.col_split,
                            Parity.combine(self.parity, other.parity), check=False)

    def scale_left(self, u) -> "GradedMatrix":
        """Multiply by a scalar from the left (a scalar is an even-block
        operator, so this is the plain entrywise product)."""
        if isinstance(u, (int, float)):
            return GradedMatrix(self.n, self.comps * float(u), self.row_split,
                                self.col_split, self.parity, check=False)
        if u.n != self.n:
            raise DimensionError("scalar lives over a different algebra")
        comps = scale_stack(self.n, u.comps, self.comps, side="left")
        return GradedMatrix(self.n, comps, self.row_split, self.col_split,
                            Parity.combine(u.parity, self.parity), check=False)

    def parity_involution(self) -> "GradedMatrix":
        """Negate the total-parity-odd part (grade parity XOR block parity)."""
        signs = 1.0 - 2.0 * total_parities(self.n, self.row_split, self.col_split)
        return GradedMatrix(self.n, self.comps * signs, self.row_split,
                            self.col_split, self.parity, check=False)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> GrassmannElement:
        return GrassmannElement(self.n, self.comps[:, i, j].copy())

    def apply(self, psi: Sequence[GrassmannElement]) -> list[GrassmannElement]:
        """Graded action on a column of scalars."""
        if len(psi) != self.shape[1]:
            raise DimensionError("vector length mismatch")
        vec = np.stack([v.comps for v in psi], axis=1)[:, :, None]
        out = graded_mul_stacks(self.n, self.comps, vec,
                                split_parities(self.row_split), split_parities(self.col_split))
        return [GrassmannElement(self.n, out[:, i, 0].copy()) for i in range(self.shape[0])]

    def norm(self) -> float:
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0

    def distance(self, other: "GradedMatrix") -> float:
        return (self - other).norm()

    def allclose(self, other: "GradedMatrix", tol: float = 1e-12) -> bool:
        return self.distance(other) <= tol

    def body_invertible(self) -> bool:
        b = self.comps[0]
        return b.shape[0] == b.shape[1] and abs(np.linalg.det(b)) > 1e-300

    def __repr__(self) -> str:
        p = {Parity.EVEN: "even", Parity.ODD: "odd", None: "mixed"}[self.parity]
        return f"GradedMatrix(n={self.n}, shape={self.shape}, split={self.row_split}|{self.col_split}, {p})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        r, c = self.shape
        return {
            "n": self.n,
            "row_split": list(self.row_split),
            "col_split": list(self.col_split),
            "parity": None if self.parity is None else int(self.parity),
            "entries": [[self.entry(i, j).to_json_dict() for j in range(c)] for i in range(r)],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GradedMatrix":
        n = int(data["n"])
        entries = [
            [GrassmannElement.from_json_dict(n, cell) for cell in row]
            for row in data["entries"]
        ]
        parity = data.get("parity")
        return cls.from_entries(entries, tuple(data["row_split"]), tuple(data["col_split"]),
                                None if parity is None else Parity(parity), check=False)


def graded_expm(m: GradedMatrix) -> GradedMatrix:
    """Exponential of an even graded matrix.

    Scaling and squaring applied over the Grassmann ring: the argument is
    scaled until its body is small, the exponential series (which converges
    fast in the body and terminates in the soul) is summed by Horner's rule,
    and the result is squared back up.  Satisfies exp(M) exp(-M) = 1 to
    machine precision; odd arguments are rejected because their exponential
    is not parity-consistent.
    """
    if m.parity is not Parity.EVEN:
        raise ParityError("graded_expm requires an even-declared matrix")
    if m.shape[0] != m.shape[1] or m.row_split != m.col_split:
        raise DimensionError("graded_expm requires a square matrix")
    body_norm = float(np.linalg.norm(m.comps[0], 1))
    squarings = max(0, int(math.ceil(math.log2(max(body_norm, 1e-16) / 0.5))))
    scaled = GradedMatrix(m.n, m.comps / (2.0 ** squarings), m.row_split,
                          m.col_split, Parity.EVEN, check=False)
    terms = max(24, m.n + 2)
    acc = GradedMatrix.identity(m.n, m.row_split)
    for k in range(terms, 0, -1):
        acc = GradedMatrix.identity(m.n, m.row_split) + (scaled @ acc).scale_left(1.0 / k)
    for _ in range(squarings):
        acc = acc @ acc
    return acc


# ---------------------------------------------------------------------------
# Algebra substitutions
# ---------------------------------------------------------------------------


class AlgebraMap:
    """Algebra homomorphism between Grassmann algebras.

    Determined by the (odd) images of the source generators; extends
    multiplicatively over basis monomials and linearly over elements.
    """

    __slots__ = ("n_from", "n_to", "images", "_key_images")

    def __init__(self, n_from: int, n_to: int, images: Sequence[GrassmannElement]):
        if len(images) != n_from:
            raise DimensionError(f"need {n_from} generator images, got {len(images)}")
        for im in images:
            if im.n != n_to:
                raise DimensionError("generator image lives over the wrong algebra")
            if not im.is_odd():
                raise ParityError("generator images must be odd")
        self.n_from = n_from
        self.n_to = n_to
        self.images = tuple(images)
        key_images = np.zeros((1 << n_from, 1 << n_to))
        key_images[0, 0] = 1.0
        for key in range(1, 1 << n_from):
            low = key & -key
            rest = key ^ low
            gen = self.images[low.bit_length() - 1].comps
            # key = rest | low with low the smallest generator: e_low * e_rest
            key_images[key] = mul_components(n_to, gen, key_images[rest])
        key_images.setflags(write=False)
        self._key_images = key_images

    def apply_components(self, comps: np.ndarray) -> np.ndarray:
        """Images of component arrays, keys on the leading axis."""
        return np.tensordot(self._key_images, comps, axes=(0, 0))

    def apply(self, u: GrassmannElement) -> GrassmannElement:
        if u.n != self.n_from:
            raise DimensionError("element lives over the wrong source algebra")
        return GrassmannElement(self.n_to, self.apply_components(u.comps))

    def apply_matrix(self, m: GradedMatrix) -> GradedMatrix:
        if m.n != self.n_from:
            raise DimensionError("matrix lives over the wrong source algebra")
        return GradedMatrix(self.n_to, self.apply_components(m.comps), m.row_split,
                            m.col_split, m.parity, check=False)
