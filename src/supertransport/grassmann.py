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
Every ring product -- of scalars, of matrix stacks, of a stack by a scalar --
goes through one kernel over the 3**n pairs of disjoint keys, sorted by
product key so that each product component is one segment sum; the soul
series of a function at an even time is :func:`soul_series`.

Conventions used everywhere downstream:

* products are written left to right, ``e1*e2 == e12 == -(e2*e1)``;
* the parity involution fixes the even part and negates the odd part (for
  graded matrices it also flips the sign of the off-diagonal blocks, i.e. it
  uses the *total* parity of an entry);
* smooth functions enter only through objects that can report mixed partial
  derivatives at real points (`PolyMap`, `SmoothMap`); their evaluation at
  even elements with nilpotent soul is the terminating Taylor series
  implemented by :func:`taylor_eval`.

Values are immutable after construction, so everything here is safe to share
between threads.
"""

from __future__ import annotations

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
    puts it in J.
    """
    if not 0 <= n <= MAX_GENERATORS:
        raise DimensionError(f"generator count must be in [0, {MAX_GENERATORS}], got {n}")
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


def _theta_signs(n: int, ndim: int) -> np.ndarray:
    # theta * e_K = (-1)**|K| e_K * theta, and e_K * theta has key K + 2**n
    return ring_parity_signs(n).reshape((1 << n,) + (1,) * (ndim - 1))


def adjoin_theta(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of a + theta*b over n + 1 generators, theta = e_{n+1}.

    ``a`` and ``b`` are scalar vectors or matrix stacks over n generators,
    keys on the leading axis; inverse of :func:`split_theta`.
    """
    return np.concatenate((a, _theta_signs(n, np.ndim(b)) * b))


def split_theta(n: int, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write a vector or stack over n + 1 generators as a + theta*b, with a
    and b over the first n generators; inverse of :func:`adjoin_theta`."""
    dim = 1 << n
    return stack[:dim].copy(), _theta_signs(n, stack.ndim) * stack[dim:]


def _ring_product(n: int, a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    # Every ring product: gather the factor components of all key pairs,
    # combine them with ``op``, sign them and sum each product key's group.
    # No group is empty: key K always has the pairs (0, K) and (K, 0).
    I, J, S, starts, _ = _tables(n)
    prod = op(a[I], b[J])
    prod *= S.reshape((-1,) + (1,) * (prod.ndim - 1))
    return np.add.reduceat(prod, starts, axis=0)


def mul_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of two scalar component vectors."""
    return _ring_product(n, u, v, np.multiply)


def mul_stacks(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise-ring product of two matrix component stacks (2**n, r, c).

    This is the product of matrices over the scalar ring with no block
    bookkeeping; the operator product of graded matrices is
    :func:`graded_mul_stacks`.
    """
    return _ring_product(n, a, b, np.matmul)


def graded_mul_stacks(n: int, a: np.ndarray, b: np.ndarray,
                      rows_par: np.ndarray, mid_par: np.ndarray) -> np.ndarray:
    """Operator product in the graded tensor algebra Lambda (x) End(V).

    The block-off-diagonal (endomorphism-odd) part of the left factor
    anticommutes with odd scalars on the right; concretely

        A o B = A_diag . B + A_off . eps_ring(B)

    with plain matrix products over the ring and eps_ring the scalar parity
    involution.  ``rows_par``/``mid_par`` are the 0/1 parities of the left
    factor's rows and columns.  The right factor needs no block data.
    """
    off = (rows_par[:, None] ^ mid_par[None, :]).astype(np.float64)
    a_d = a * (1.0 - off)[None, :, :]
    a_o = a * off[None, :, :]
    out = mul_stacks(n, a_d, b)
    if np.any(a_o):
        b_eps = b * ring_parity_signs(n)[:, None, None]
        out = out + mul_stacks(n, a_o, b_eps)
    return out


def scale_stack(n: int, u: np.ndarray, m: np.ndarray, side: str = "left") -> np.ndarray:
    """Multiply a matrix stack by a scalar component vector on one side."""
    u = u[:, None, None]
    if side == "left":
        return _ring_product(n, u, m, np.multiply)
    return _ring_product(n, m, u, np.multiply)


def soul_series(n: int, soul: np.ndarray, derivative: Callable[[int], np.ndarray]):
    """Terminating Taylor tail sum_{k>=1} soul**k / k! * derivative(k).

    ``derivative(k)`` is a scalar component vector or a matrix stack and is
    requested for k = 1, 2, ... in turn, only while soul**k is nonzero; the
    series stops at the first vanishing power (at the latest past k = n).
    Returns 0.0 for a zero soul.  The soul is even, so the side it
    multiplies from is immaterial.
    """
    out = 0.0
    power = soul
    for k in range(1, n + 1):
        if not np.any(power):
            break
        coeff, d = power / math.factorial(k), derivative(k)
        out = out + (mul_components(n, coeff, d) if d.ndim == 1 else scale_stack(n, coeff, d))
        power = mul_components(n, power, soul)
    return out


def key_from_indices(indices: Sequence[int]) -> int:
    key = 0
    for i in indices:
        bit = 1 << (i - 1)
        if key & bit:
            raise ValueError(f"repeated generator index {i}")
        key |= bit
    return key


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
            indices = tuple(int(s) for s in key.split("|")) if key else ()
            comps[key_from_indices(indices)] = float(coeff)
        return cls(n, comps)


# ---------------------------------------------------------------------------
# Smooth-function oracles and the Grassmann-analytic Taylor extension
# ---------------------------------------------------------------------------


class PolyMap:
    """A polynomial map R^nvars -> R or R^(r x c), with exact partials.

    Terms are stored as {exponent tuple: coefficient}; coefficients are
    floats or real ndarrays sharing one shape.  This is the workhorse
    realization of the smooth-function interface used by :func:`taylor_eval`:
    it can report every mixed partial derivative exactly.
    """

    __slots__ = ("nvars", "terms", "coeff_shape")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object]):
        self.nvars = nvars
        shape = None
        norm_terms: dict[tuple[int, ...], np.ndarray | float] = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise DimensionError(f"exponent tuple {expo} does not match nvars={nvars}")
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

    @classmethod
    def constant(cls, nvars: int, value) -> "PolyMap":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def zero(cls, nvars: int, shape: tuple[int, ...] = ()) -> "PolyMap":
        return cls(nvars, {(0,) * nvars: np.zeros(shape)})

    @property
    def max_order(self) -> int | None:
        return None  # exact to all orders

    def is_zero(self) -> bool:
        return all(np.all(np.asarray(c) == 0.0) for c in self.terms.values())

    def value(self, x: Sequence[float]):
        return self.partial_eval((0,) * self.nvars, x)

    def partial_eval(self, alpha: Sequence[int], x: Sequence[float]):
        """Evaluate the mixed partial d^alpha f at the real point x."""
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros(self.coeff_shape) if self.coeff_shape else 0.0
        for expo, coeff in self.terms.items():
            factor = 1.0
            for e, a, xi in zip(expo, alpha, x):
                if a > e:
                    factor = 0.0
                    break
                for k in range(a):
                    factor *= e - k
                factor *= xi ** (e - a)
            if factor != 0.0:
                acc = acc + factor * coeff
        return acc

    def partial(self, i: int) -> "PolyMap":
        terms: dict[tuple[int, ...], object] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            key = tuple(new)
            add = expo[i] * (coeff if isinstance(coeff, float) else np.asarray(coeff))
            terms[key] = terms.get(key, 0.0 * add) + add
        if not terms:
            return PolyMap.zero(self.nvars, self.coeff_shape)
        return PolyMap(self.nvars, terms)

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

    def partial_eval(self, alpha: Sequence[int], x: Sequence[float]):
        if sum(alpha) > self.max_order:
            raise CapabilityError(
                f"derivative oracle supplies order <= {self.max_order}, requested {tuple(alpha)}"
            )
        if self.domain is not None:
            for xi, (lo, hi) in zip(x, self.domain):
                if not lo <= xi <= hi:
                    raise DomainError(f"point {tuple(x)} outside oracle domain")
        return self._eval(tuple(alpha), np.asarray(x, dtype=np.float64))


def taylor_eval_stack(f, xs: Sequence[GrassmannElement], order: int | None = None,
                      n: int | None = None) -> np.ndarray:
    """Grassmann-analytic extension of ``f`` at even arguments, as a stack.

    Returns the component stack of shape (2**n,) + coeff_shape.  The series
    over souls terminates by nilpotency; ``f`` must supply partials up to the
    total order actually reached (at most ``n``).  For a nullary ``f`` the
    algebra size must be passed explicitly.
    """
    if not xs:
        if n is None:
            raise DimensionError("nullary taylor evaluation needs the algebra size")
        val = np.asarray(f.value(np.zeros(0)), dtype=np.float64)
        out = np.zeros((1 << n,) + val.shape)
        out[0] = val
        return out
    n = xs[0].n
    for x in xs:
        if x.n != n:
            raise DimensionError("taylor arguments live over different algebras")
        if not x.is_even():
            raise ParityError("taylor arguments must be even")
    bodies = np.array([x.body for x in xs])
    max_total = n if order is None else order
    shape = tuple(np.shape(f.value(bodies)))
    dim = 1 << n
    out = np.zeros((dim,) + shape)

    # Precompute soul powers until they vanish.
    powers: list[list[np.ndarray]] = []
    for x in xs:
        soul = x.soul().comps
        pw = [np.zeros(dim)]
        pw[0][0] = 1.0
        cur = pw[0]
        for _ in range(max_total):
            cur = mul_components(n, cur, soul)
            if not np.any(cur):
                break
            pw.append(cur)
        powers.append(pw)

    alpha = [0] * len(xs)

    def recurse(var: int, budget: int, prod: np.ndarray, denom: float):
        if var == len(xs):
            coeff = np.asarray(f.partial_eval(tuple(alpha), bodies), dtype=np.float64)
            out_view = np.multiply.outer(prod, coeff) / denom
            np.copyto(out, out + out_view.reshape(out.shape))
            return
        pw = powers[var]
        for k in range(min(budget, len(pw) - 1) + 1):
            alpha[var] = k
            # soul powers are even, hence central; order of factors is free
            new_prod = prod if k == 0 else mul_components(n, prod, pw[k])
            if k >= 1 and not np.any(new_prod):
                continue
            recurse(var + 1, budget - k, new_prod, denom * math.factorial(k))
        alpha[var] = 0

    recurse(0, max_total, powers[0][0], 1.0)
    return out


def taylor_eval(f, xs: Sequence[GrassmannElement], order: int | None = None) -> GrassmannElement:
    """Scalar Grassmann-analytic evaluation; see :func:`taylor_eval_stack`."""
    stack = taylor_eval_stack(f, xs, order=order)
    if stack.ndim != 1:
        raise DimensionError("taylor_eval expects a scalar-valued function")
    n = xs[0].n if xs else 0
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

    def column(self, j: int) -> list[GrassmannElement]:
        return [self.entry(i, j) for i in range(self.shape[0])]

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

    def apply(self, u: GrassmannElement) -> GrassmannElement:
        if u.n != self.n_from:
            raise DimensionError("element lives over the wrong source algebra")
        return GrassmannElement(self.n_to, u.comps @ self._key_images)

    def apply_matrix(self, m: GradedMatrix) -> GradedMatrix:
        if m.n != self.n_from:
            raise DimensionError("matrix lives over the wrong source algebra")
        comps = np.einsum("kt,krc->trc", self._key_images, m.comps)
        return GradedMatrix(self.n_to, comps, m.row_split, m.col_split, m.parity, check=False)
