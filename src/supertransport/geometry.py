"""Chart-level geometric data on R^{p|q} and the pullbacks feeding the solvers.

Everything is chart-local: the target is a single coordinate patch R^{p|q}
with a trivialized rank re|ro bundle over it.  The building blocks are

* `Curve` -- a Grassmann-valued smooth function of one real parameter with an
  exact (or finite-difference) derivative chain; paths, substituted paths and
  reparametrized paths are all made of these;
* `SuperPath` -- the theta-expansion x_i(t) + theta*y_i(t) of a supercurve
  into R^{p|q}, one (even, odd) curve pair per coordinate;
* `GrassmannPoly` -- a function on R^{p|q}: a finite sum of even-variable
  coefficients times monomials in the odd coordinates, each coefficient a
  polynomial computed in the ring or a smooth oracle summed as its Taylor
  series; vector-field and connection coefficients live here;
* `DifferentialForm`, `Connection`, `Superconnection` -- the transported data.

Sign conventions: theta-expansions are kept in left-normal form (theta
written to the left), and every commutation sign is derived from Grassmann
multiplication by adjoining theta as one extra generator
(:func:`~supertransport.grassmann.adjoin_theta` and
:func:`~supertransport.grassmann.split_theta`).  One private assembler
evaluates data at the theta-adjoined path coordinates and splits the
result; `connection_coefficient`, `endomorphism_term` and `lift_pullback`
are each one call to it.  Everything on that route is batched over grid
nodes: curves sample arrays of times, coordinates and values carry a node
axis right after the key axis, and the assembler makes one call per block
of nodes rather than one per node.  `lift_pullback` takes the route
through the odd tangent bundle R^{p|p}: the form becomes the odd-monomial
function dx^I -> z^I, evaluated along `odd_tangent_lift` of the path.

Composition with an inner curve g (`Curve.compose`, substituted paths) goes
through one shared table: one soul series gives the values and first
derivatives at g(u) of all curves composed with g (`_Composition`).

Thread safety: curves, paths, polynomials, forms and connections are not
changed after construction, with these exceptions: a curve builds its
derivative curve on first use and keeps it (``Curve._derivative``), as a
`SuperField` keeps its derivative stacks, and a composition keeps its last
table in a one-entry memo keyed on the sample times.  All of these fills
are idempotent -- threads that race build equal values and either is kept --
so all of these objects may be shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapabilityError, DegreeError, DimensionError, DomainError, ParityError
from .grassmann import (
    AlgebraMap,
    GrassmannElement,
    Parity,
    PolyMap,
    adjoin_theta,
    monomial_table,
    mul_components,
    node_blocks,
    parities_present,
    scale_stack,
    soul_series,
    split_parities,
    split_theta,
    taylor_eval_stack,
)
from .superfield import Grid, SuperField, SuperPoint

_FD_STEP = 1e-3


class Curve:
    """A Grassmann-valued smooth function of one real parameter.

    A curve samples itself at a 1-D array of times as a (2**n, nodes) array
    of component columns (:meth:`sample`); calling it at one time is a batch
    of one.  It also knows how to produce its derivative curve.  Exact
    derivative chains are attached by the constructors below; when none is
    available the derivative falls back to a fourth-order central
    difference of the values.
    """

    __slots__ = ("n", "_sample", "_derivative_factory", "_derivative")

    def __init__(self, n: int, sample: Callable[[np.ndarray], np.ndarray],
                 derivative: "Callable[[], Curve] | None" = None):
        self.n = n
        self._sample = sample
        self._derivative_factory = derivative
        self._derivative: Curve | None = None

    def sample(self, times) -> np.ndarray:
        """The (2**n, nodes) component columns of the values at the times."""
        return self._sample(np.asarray(times, dtype=np.float64))

    def __call__(self, t: float) -> GrassmannElement:
        return GrassmannElement(self.n, self.sample([t])[:, 0])

    def derivative(self) -> "Curve":
        # filled once; a racing second fill builds an equal curve
        if self._derivative is None:
            if self._derivative_factory is not None:
                self._derivative = self._derivative_factory()
            else:
                self._derivative = _fd_curve(self)
        return self._derivative

    def eval_grassmann(self, t: GrassmannElement) -> GrassmannElement:
        """Evaluate at an even time with nilpotent soul (terminating Taylor)."""
        if t.n != self.n:
            raise DimensionError("time argument lives over a different algebra")
        if not t.is_even():
            raise ParityError("time argument must be even")
        return GrassmannElement(self.n, self.compose(Curve.constant(self.n, t)).sample([0.0])[:, 0])

    # -- combinators ---------------------------------------------------------

    def __add__(self, other: "Curve") -> "Curve":
        self._check(other)
        return Curve(self.n, lambda ts: self.sample(ts) + other.sample(ts),
                     lambda: self.derivative() + other.derivative())

    def __sub__(self, other: "Curve") -> "Curve":
        self._check(other)
        return Curve(self.n, lambda ts: self.sample(ts) - other.sample(ts),
                     lambda: self.derivative() - other.derivative())

    def __neg__(self) -> "Curve":
        return self.scale_left(-1.0)

    def scale_left(self, u) -> "Curve":
        if isinstance(u, (int, float)):
            u = GrassmannElement.scalar(self.n, float(u))
        return Curve(self.n, lambda ts: mul_components(self.n, u.comps, self.sample(ts)),
                     lambda: self.derivative().scale_left(u))

    def __mul__(self, other: "Curve") -> "Curve":
        """Pointwise product, left factor first (order matters)."""
        self._check(other)
        return Curve(self.n, lambda ts: mul_components(self.n, self.sample(ts), other.sample(ts)),
                     lambda: self.derivative() * other + self * other.derivative())

    def compose(self, inner: "Curve") -> "Curve":
        """self(inner(u)) for an even inner curve (a one-curve `_Composition`);
        where inner(u) has a soul, the terminating Taylor series is summed."""
        return _Composition([self], inner).column(0, 0)

    def power(self, exponent: float) -> "Curve":
        """Real power of a real-valued curve (used for sqrt of r')."""
        def sample(ts: np.ndarray) -> np.ndarray:
            v = self.sample(ts)
            if np.any(v[1:]):
                raise DomainError("power law applies to real-valued curves only")
            out = np.zeros_like(v)
            out[0] = v[0] ** exponent
            return out

        return Curve(self.n, sample,
                     lambda: self.power(exponent - 1.0).scale_left(exponent) * self.derivative())

    def mapped(self, hom: AlgebraMap) -> "Curve":
        return Curve(hom.n_to, lambda ts: hom.apply_components(self.sample(ts)),
                     lambda: self.derivative().mapped(hom))

    def _check(self, other: "Curve"):
        if self.n != other.n:
            raise DimensionError("curves live over different algebras")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value) -> "Curve":
        if isinstance(value, (int, float)):
            value = GrassmannElement.scalar(n, float(value))
        return cls(n, lambda ts: np.repeat(value.comps[:, None], len(ts), axis=1),
                   lambda: Curve.constant(n, GrassmannElement.zero(n)))

    @classmethod
    def polynomial(cls, n: int, coeffs: Sequence) -> "Curve":
        """sum_k coeffs[k] * t^k with Grassmann (or float) coefficients."""
        gcoeffs = [c if isinstance(c, GrassmannElement) else GrassmannElement.scalar(n, float(c))
                   for c in coeffs]
        if len(gcoeffs) < 2:  # a constant samples without the power loop
            return cls.constant(n, gcoeffs[0] if gcoeffs else 0.0)

        def sample(ts: np.ndarray) -> np.ndarray:
            acc = np.zeros((1 << n, len(ts)))
            tp = np.ones(len(ts))
            for c in gcoeffs:
                acc = acc + c.comps[:, None] * tp
                tp = tp * ts
            return acc

        def dfactory() -> Curve:
            return Curve.polynomial(n, [c * float(k) for k, c in enumerate(gcoeffs)][1:])

        return cls(n, sample, dfactory)

    @classmethod
    def identity_map(cls, n: int) -> "Curve":
        return cls.polynomial(n, [0.0, 1.0])

    @classmethod
    def harmonic(cls, n: int, amplitude, omega: float, phase: float = 0.0,
                 offset=0.0, kind: str = "cos") -> "Curve":
        """amplitude*cos(omega t + phase) + offset (or sin)."""
        if isinstance(amplitude, (int, float)):
            amplitude = GrassmannElement.scalar(n, float(amplitude))
        if isinstance(offset, (int, float)):
            offset = GrassmannElement.scalar(n, float(offset))
        trig = np.cos if kind == "cos" else np.sin

        def sample(ts: np.ndarray) -> np.ndarray:
            return amplitude.comps[:, None] * trig(omega * ts + phase) + offset.comps[:, None]

        def dfactory() -> Curve:
            # d/dt cos = -omega sin; d/dt sin = omega cos
            if kind == "cos":
                return Curve.harmonic(n, amplitude * (-omega), omega, phase, 0.0, "sin")
            return Curve.harmonic(n, amplitude * omega, omega, phase, 0.0, "cos")

        return cls(n, sample, dfactory)

    @classmethod
    def from_samples(cls, n: int, grid: Grid, values: Sequence[GrassmannElement]) -> "Curve":
        """Quartic interpolation of one value per grid node; derivatives via FD4 stacks."""
        from .superfield import fd4_stack, interpolate_stack
        if len(values) != grid.nodes:
            raise DimensionError(f"expected {grid.nodes} sampled values, got {len(values)}")

        def make(stk: np.ndarray) -> Curve:
            return Curve(n, lambda ts: interpolate_stack(grid, stk, ts).T,
                         lambda: make(fd4_stack(stk, grid.h)))

        return make(np.stack([v.comps for v in values]))


def _fd_curve(base: Curve, h: float = _FD_STEP) -> Curve:
    def sample(ts: np.ndarray) -> np.ndarray:
        return (base.sample(ts - 2 * h) - 8.0 * base.sample(ts - h)
                + 8.0 * base.sample(ts + h) - base.sample(ts + 2 * h)) / (12.0 * h)

    return Curve(base.n, sample)


class _Composition:
    """Curves c_i composed with one even inner curve g, sampled as one table.

    ``table(us)`` stacks c_i(g(u)) and c_i'(g(u)) as (2**n, nodes, 2, m) from
    one terminating Taylor series in the souls of g(u), whose order-k term
    samples the k-th and (k+1)-th derivatives of every c_i at the bodies; a
    one-entry memo keyed on the times lets all columns share it.
    """

    __slots__ = ("curves", "inner", "_memo")

    def __init__(self, curves: Sequence[Curve], inner: Curve):
        self.curves, self.inner, self._memo = tuple(curves), inner, None

    def table(self, us: np.ndarray) -> np.ndarray:
        key, memo = us.tobytes(), self._memo
        if memo is None or memo[0] != key:
            times = self.inner.sample(us)
            souls = times.copy()
            souls[0] = 0.0
            chains = [[c] for c in self.curves]

            def at_body(k: int) -> np.ndarray:
                for chain in chains:
                    while len(chain) < k + 2:
                        chain.append(chain[-1].derivative())
                return np.stack([np.stack([ch[k].sample(times[0]), ch[k + 1].sample(times[0])], -1)
                                 for ch in chains], -1)

            table = at_body(0) + soul_series(self.inner.n, souls, at_body)
            table.setflags(write=False)  # columns are views of it
            memo = self._memo = (key, table)  # a racing fill stores an equal table
        return memo[1]

    def column(self, i: int, order: int) -> Curve:
        """c_i(g(u)) (order 0) or c_i'(g(u)) (order 1); the derivative is
        c_i'(g(u)) g'(u) from this table, or (c_i' o g)'."""
        return Curve(self.inner.n, lambda us: self.table(us)[:, :, order, i],
                     lambda: self.column(i, 1) * self.inner.derivative() if order == 0
                     else self.curves[i].derivative().compose(self.inner).derivative())


# ---------------------------------------------------------------------------
# Grassmann-polynomial functions on R^{p|q}
# ---------------------------------------------------------------------------


class GrassmannPoly:
    """A function on R^{p|q}: sum_J f_J(x) * z^J over odd-coordinate monomials.

    ``terms`` maps strictly increasing tuples of odd-coordinate indices
    (0-based within the odd block) to smooth coefficient maps of the p even
    variables.  Coefficients may be scalar- or matrix-valued but must share
    one shape.  The coefficient is always written to the left of the odd
    monomial.

    When ``lambda_n`` is set the coefficient maps are polynomials valued in
    component vectors of the scalar algebra on ``lambda_n`` generators
    (families of functions parametrized by S); the payload multiplies from
    the left.
    """

    __slots__ = ("p", "q", "terms", "coeff_shape", "lambda_n", "rank")

    def __init__(self, p: int, q: int, terms: Mapping[tuple[int, ...], object],
                 lambda_n: int | None = None, rank: tuple[int, int] | None = None):
        self.p = p
        self.q = q
        self.lambda_n = lambda_n
        self.rank = tuple(rank) if rank is not None else None
        shape = None
        norm: dict[tuple[int, ...], object] = {}
        for J, f in terms.items():
            J = tuple(int(j) for j in J)
            if any(not 0 <= j < q for j in J) or list(J) != sorted(set(J)):
                raise DimensionError(f"bad odd multi-index {J} for q={q}")
            if f.nvars != p:
                raise DimensionError("coefficient arity does not match p")
            if lambda_n is not None and not isinstance(f, PolyMap):
                raise CapabilityError("family payloads need polynomial coefficients")
            if shape is None:
                shape = f.coeff_shape
            elif f.coeff_shape != shape:
                raise DimensionError("coefficients must share one shape")
            if getattr(f, "is_zero", lambda: False)():
                continue
            norm[J] = f
        self.terms = norm
        self.coeff_shape = shape if shape is not None else ()
        if self.rank is not None and self.coeff_shape != (sum(self.rank),) * 2:
            raise DimensionError("rank split does not match the coefficient shape")

    @classmethod
    def from_even(cls, p: int, q: int, f) -> "GrassmannPoly":
        return cls(p, q, {(): f})

    @classmethod
    def constant(cls, p: int, q: int, value) -> "GrassmannPoly":
        return cls(p, q, {(): PolyMap.constant(p, value)})

    @classmethod
    def lambda_constant(cls, p: int, q: int, value: GrassmannElement,
                        odd_indices: tuple[int, ...] = ()) -> "GrassmannPoly":
        """A constant coefficient in the scalar algebra times an odd monomial."""
        return cls(p, q, {tuple(odd_indices): PolyMap.constant(p, value.comps)},
                   lambda_n=value.n)

    @classmethod
    def zero(cls, p: int, q: int, shape: tuple[int, ...] = (),
             rank: tuple[int, int] | None = None) -> "GrassmannPoly":
        return cls(p, q, {(): PolyMap.zero(p, shape)}, rank=rank)

    def value_stack(self, coords: np.ndarray) -> np.ndarray:
        """Component stack of the value at graded coordinates, node by node.

        ``coords`` is a (p + q, 2**n, nodes) array: the component columns of
        every coordinate at every node, the first p even and the last q odd.
        Result shape: (2**n, nodes) + value shape, the value shape being ()
        for family-valued coefficients and coeff_shape otherwise.
        """
        _check_coordinates(self.p, self.q, coords)
        return self._values(coords)

    def _values(self, coords: np.ndarray) -> np.ndarray:  # on checked coordinates
        _, dim, nodes = coords.shape
        n = dim.bit_length() - 1
        evens = coords[:self.p]
        odds = coords[self.p:]
        lam = self.lambda_n
        if lam is not None and 1 << lam > dim:
            raise DimensionError("coefficient algebra larger than coordinate algebra")
        out = np.zeros((dim, nodes) + (() if lam is not None else self.coeff_shape))
        for J, f in self.terms.items():
            if lam is None:
                coeff = f.eval_stack(evens)
            else:
                # sum_t c_t x^e_t with the payloads c_t embedded on the left
                payload = np.zeros((dim, len(f.coeffs), nodes))
                payload[:1 << lam] = f.coeffs.T[:, :, None]
                coeff = mul_components(n, payload, monomial_table(evens, f.exponents)).sum(axis=1)
            zprod = None
            for j in J:
                zprod = odds[j] if zprod is None else mul_components(n, zprod, odds[j])
            if zprod is None:
                out = out + coeff
            elif coeff.ndim == 2:
                out = out + mul_components(n, coeff, zprod)
            else:
                # value semantics: pullbacks act entrywise on the scalars
                out = out + scale_stack(n, zprod, coeff, side="right")
        return out

    def value(self, coords: Sequence[GrassmannElement]) -> GrassmannElement:
        if not coords:
            raise DimensionError("value on the empty chart needs the algebra size")
        stack = self.value_stack(np.stack([c.comps for c in coords])[:, :, None])[:, 0]
        if stack.ndim != 1:
            raise DimensionError("value() expects a scalar-valued function")
        return GrassmannElement(coords[0].n, stack)

    def partial(self, i: int) -> "GrassmannPoly":
        """Left partial derivative with respect to coordinate i (0-based)."""
        if i < self.p:
            terms = {J: f.partial(i) for J, f in self.terms.items()}
            return GrassmannPoly(self.p, self.q, terms, self.lambda_n, self.rank)
        j = i - self.p
        terms: dict[tuple[int, ...], object] = {}
        for J, f in self.terms.items():
            if j not in J:
                continue
            pos = J.index(j)
            rest = J[:pos] + J[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            pay = self._payload_parities(f)
            if len(pay) > 1:
                raise ParityError("odd derivative needs a homogeneous family payload")
            sign *= -1.0 if 1 in pay else 1.0
            g = f * sign
            terms[rest] = terms[rest] + g if rest in terms else g
        if not terms:
            terms = {(): PolyMap.zero(self.p, self.coeff_shape)}
        return GrassmannPoly(self.p, self.q, terms, self.lambda_n, self.rank)

    def _payload_parities(self, f) -> set[int]:
        """Parities (0/1) present in the family payload of a coefficient map."""
        if self.lambda_n is None:
            return {0}
        return parities_present(self.lambda_n, f.coeffs.T)

    def _payload_terms(self, lam: int | None) -> dict[tuple[int, ...], object]:
        """The terms with payloads over Lambda_lam; a plain coefficient f
        becomes the body-only payload f*1."""
        if lam is None or self.lambda_n == lam:
            return self.terms
        if self.lambda_n is not None:
            raise DimensionError("family payloads live over different algebras")
        if self.coeff_shape != ():
            raise DimensionError("only scalar coefficients combine with family payloads")
        one = GrassmannElement.one(lam).comps
        return {J: PolyMap(self.p, {e: c * one for e, c in f.terms.items()})
                for J, f in self.terms.items()}

    def __add__(self, other: "GrassmannPoly") -> "GrassmannPoly":
        lam = self.lambda_n if self.lambda_n is not None else other.lambda_n
        terms = dict(self._payload_terms(lam))
        for J, f in other._payload_terms(lam).items():
            terms[J] = terms[J] + f if J in terms else f
        return GrassmannPoly(self.p, self.q, terms, lam,
                             self.rank if self.rank is not None else other.rank)

    def __mul__(self, other: "GrassmannPoly") -> "GrassmannPoly":
        """Product of scalar Grassmann polynomials (left to right).

        Family payloads multiply in the ring of Lambda_lambda; a plain
        coefficient enters as a body-only payload.  Bringing the payload f_b
        of the right factor past the odd monomial z^{J_a} of the left one
        costs (-1)^{|J_a| p(f_b)}: split into its even and odd parts, f_b
        becomes its parity involution when |J_a| is odd.
        """
        lam = self.lambda_n if self.lambda_n is not None else other.lambda_n
        if lam is None and (self.coeff_shape != () or other.coeff_shape != ()):
            raise DimensionError("only scalar Grassmann polynomials multiply")
        left, right = self._payload_terms(lam), other._payload_terms(lam)
        terms: dict[tuple[int, ...], object] = {}
        for Ja, fa in left.items():
            for Jb, fb in right.items():
                if set(Ja) & set(Jb):
                    continue
                sign, J = _merge_odd_indices(Ja, Jb)
                if lam is None:
                    f = (fa * fb) * sign
                else:
                    if len(Ja) % 2:
                        fb = PolyMap(self.p, {e: GrassmannElement(lam, c).parity_involution().comps
                                              for e, c in fb.terms.items()})
                    f = fa.ring_mul(fb, lam) * sign
                terms[J] = terms[J] + f if J in terms else f
        if not terms:
            terms = {(): PolyMap.zero(self.p, () if lam is None else (1 << lam,))}
        return GrassmannPoly(self.p, self.q, terms, lam)

    def term_parities(self) -> set[int]:
        """Parities (0/1) present among the terms, payload included."""
        return {(len(J) + g) % 2 for J, f in self.terms.items() for g in self._payload_parities(f)}


def _check_coordinates(p: int, q: int, coords: np.ndarray) -> None:
    """Count and parities of (p + q, 2**n, nodes) coordinate columns."""
    if len(coords) != p + q:
        raise DimensionError(f"expected {p + q} coordinates")
    n = coords.shape[1].bit_length() - 1
    for i, x in enumerate(coords):
        if int(i < p) in parities_present(n, x):
            raise ParityError(f"coordinate {i} has a value of the wrong parity")


def _merge_odd_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    merged = list(a)
    sign = 1.0
    for idx in b:
        pos = len(merged)
        for k, m in enumerate(merged):
            if idx < m:
                pos = k
                break
        sign *= (-1.0) ** (len(merged) - pos)
        merged.insert(pos, idx)
    return sign, tuple(merged)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


class SuperVectorField:
    """A vector field sum_i a_i d/dx^i on R^{p|q} with scalar coefficients.

    For a field of parity pi the coefficient of an even coordinate has
    parity pi and the coefficient of an odd coordinate has parity pi+1.
    Applied to functions with coefficients on the left:
    X(f) = sum_i a_i * (d f / d x^i).
    """

    __slots__ = ("p", "q", "parity", "coeffs")

    def __init__(self, p: int, q: int, parity: Parity, coeffs: Sequence[GrassmannPoly]):
        if len(coeffs) != p + q:
            raise DimensionError(f"expected {p + q} coefficients")
        for i, c in enumerate(coeffs):
            if c.p != p or c.q != q:
                raise DimensionError("coefficients must be scalar functions on R^{p|q}")
            if c.lambda_n is None and c.coeff_shape != ():
                raise DimensionError("coefficients must be scalar functions on R^{p|q}")
            want = parity ^ (0 if i < p else 1)
            bad = c.term_parities() - {want}
            if bad:
                raise ParityError(
                    f"coefficient {i} has terms of parity {bad}, field parity requires {want}")
        self.p = p
        self.q = q
        self.parity = parity
        self.coeffs = tuple(coeffs)

    def apply(self, f: GrassmannPoly) -> GrassmannPoly:
        out = None
        for i, a in enumerate(self.coeffs):
            term = a * f.partial(i)
            out = term if out is None else out + term
        return out if out is not None else GrassmannPoly.zero(self.p, self.q)

    def squared(self) -> "SuperVectorField":
        """For an odd field X, the even field X^2 = (1/2)[X, X]."""
        if self.parity is not Parity.ODD:
            raise ParityError("squared() applies to odd vector fields")
        coords = [GrassmannPoly(self.p, self.q, {(): PolyMap(self.p, {_unit_expo(self.p, i): 1.0})})
                  if i < self.p else
                  GrassmannPoly(self.p, self.q, {(i - self.p,): PolyMap.constant(self.p, 1.0)})
                  for i in range(self.p + self.q)]
        new_coeffs = [self.apply(self.apply(x)) for x in coords]
        return SuperVectorField(self.p, self.q, Parity.EVEN, new_coeffs)

    def coefficient_values(self, coords: Sequence[GrassmannElement]) -> list[GrassmannElement]:
        return [c.value(coords) for c in self.coeffs]

    def coefficient_stack(self, coords: np.ndarray) -> np.ndarray:
        """The (p + q, 2**n, nodes) coefficient values at (p + q, 2**n, nodes)
        coordinate columns (checked once); see :meth:`GrassmannPoly.value_stack`."""
        _check_coordinates(self.p, self.q, coords)
        return np.stack([c._values(coords) for c in self.coeffs])


def _unit_expo(p: int, i: int) -> tuple[int, ...]:
    e = [0] * p
    e[i] = 1
    return tuple(e)


# ---------------------------------------------------------------------------
# Superpaths
# ---------------------------------------------------------------------------


class SuperPath:
    """A chart-level supercurve into R^{p|q}.

    Coordinate i pulls back to a_i(t) + theta*b_i(t); the a-curves of the
    first p coordinates are even and their b-partners odd, reversed for the
    q odd coordinates.  The path is defined for all t its curves accept, and
    declares a window [0, t_end] (plus a validation margin) on which it is
    meant to be used.
    """

    __slots__ = ("p", "q", "n", "a", "b", "t_end", "margin")

    def __init__(self, p: int, q: int, n: int, a: Sequence[Curve], b: Sequence[Curve],
                 t_end: float, margin: float | None = None):
        if len(a) != p + q or len(b) != p + q:
            raise DimensionError(f"expected {p + q} coordinate curve pairs")
        self.p = p
        self.q = q
        self.n = n
        self.a = tuple(a)
        self.b = tuple(b)
        self.t_end = float(t_end)
        self.margin = 1e-2 * max(abs(self.t_end), 1.0) if margin is None else margin

    # -- evaluation ------------------------------------------------------------

    def value(self, point: SuperPoint) -> list[GrassmannElement]:
        """Coordinates of the path at an S-point of R^{1|1}."""
        out = []
        for ca, cb in zip(self.a, self.b):
            out.append(ca.eval_grassmann(point.t) + point.theta * cb.eval_grassmann(point.t))
        return out

    def contains_time(self, t: float) -> bool:
        lo, hi = min(0.0, self.t_end), max(0.0, self.t_end)
        return lo - self.margin <= t <= hi + self.margin

    # -- validation --------------------------------------------------------------

    def parity_residual(self, samples: int = 5) -> float:
        res = 0.0
        for t in np.linspace(0.0, self.t_end if self.t_end else 1.0, samples):
            for i in range(self.p + self.q):
                a_val = self.a[i](t)
                b_val = self.b[i](t)
                if i < self.p:
                    res = max(res, a_val.odd_part().norm(), b_val.even_part().norm())
                else:
                    res = max(res, a_val.even_part().norm(), b_val.odd_part().norm())
        return res

    def validate(self, tol: float = 0.0):
        r = self.parity_residual()
        if r > tol:
            raise ParityError(f"path components violate coordinate parities by {r}")

    # -- substitution -------------------------------------------------------------

    def substituted(self, g: Curve, rho: GrassmannElement, tau: GrassmannElement,
                    e: "Curve | float", t_end: float) -> "SuperPath":
        """Precompose with (u, eta) -> (g(u) + eta*rho, tau + e(u)*eta).

        Components transform (left-normal form in the new odd coordinate) as

            A(u) = a(g(u)) + tau * b(g(u))
            B(u) = rho * a'(g(u)) + e(u) * b(g(u)) - tau*rho * b'(g(u))

        A, B and the velocities A' = a'(g) g' + tau * b'(g) g' read their
        columns from one `_Composition` of all a_i and b_i with g.
        """
        e_curve = Curve.constant(self.n, float(e)) if isinstance(e, (int, float)) else e
        taurho = tau * rho
        curves = list(dict.fromkeys(self.a + self.b))  # a lift repeats its b curves
        comp = _Composition(curves, g)
        new_a, new_b = [], []
        for ca, cb in zip(self.a, self.b):
            a_g, da_g, b_g, db_g = (comp.column(curves.index(c), order)
                                    for c in (ca, cb) for order in (0, 1))
            A = a_g + b_g.scale_left(tau)
            B = da_g.scale_left(rho) + e_curve * b_g
            if taurho.norm() != 0.0:
                B = B - db_g.scale_left(taurho)
            new_a.append(A)
            new_b.append(B)
        return SuperPath(self.p, self.q, self.n, new_a, new_b, t_end, self.margin)

    def translated(self, point: SuperPoint, t_end: float | None = None) -> "SuperPath":
        """Precompose with the right translation (u, eta) -> (u, eta)(t0, th0)."""
        g = Curve.polynomial(self.n, [point.t, 1.0])
        end = self.t_end - point.t.body if t_end is None else t_end
        return self.substituted(g, point.theta, point.theta, 1.0, end)

    def reversed_through(self, end: SuperPoint) -> "SuperPath":
        """The reversal u -> c((u, eta)^{-1}(t0, th0)) on [0, body(t0)]."""
        g = Curve.polynomial(self.n, [end.t, -1.0])
        return self.substituted(g, -end.theta, end.theta, -1.0, end.t.body)

    def shifted_by_inverse(self, point: SuperPoint, t_end: float) -> "SuperPath":
        """Precompose with (u, eta) -> (u, eta)(t0, th0)^{-1} (gluing branch)."""
        g = Curve.polynomial(self.n, [-point.t, 1.0])
        return self.substituted(g, -point.theta, -point.theta, 1.0, t_end)

    def reparametrized(self, r: Curve, new_t_end: float) -> "SuperPath":
        """Precompose with (u, eta) -> (r(u), sqrt(r'(u)) eta)."""
        e = r.derivative().power(0.5)
        return self.substituted(r, GrassmannElement.zero(self.n),
                                GrassmannElement.zero(self.n), e, new_t_end)

    def mapped(self, hom: AlgebraMap) -> "SuperPath":
        return SuperPath(self.p, self.q, hom.n_to,
                         [c.mapped(hom) for c in self.a],
                         [c.mapped(hom) for c in self.b],
                         self.t_end, self.margin)

    @classmethod
    def piecewise(cls, first: "SuperPath", second: "SuperPath", switch: float,
                  t_end: float) -> "SuperPath":
        """Concatenation that follows `first` below the switch time.

        Each piece is sampled only at its own times, since a piece need not
        be defined beyond its window.
        """
        if (first.p, first.q, first.n) != (second.p, second.q, second.n):
            raise DimensionError("piecewise pieces have different targets")

        def join(c1: Curve, c2: Curve) -> Curve:
            def sample(ts: np.ndarray) -> np.ndarray:
                out = np.empty((1 << first.n, len(ts)))
                low = ts < switch
                for piece, sel in ((c1, low), (c2, ~low)):
                    if np.any(sel):
                        out[:, sel] = piece.sample(ts[sel])
                return out

            return Curve(first.n, sample, lambda: join(c1.derivative(), c2.derivative()))

        a = [join(c1, c2) for c1, c2 in zip(first.a, second.a)]
        b = [join(c1, c2) for c1, c2 in zip(first.b, second.b)]
        return cls(first.p, first.q, first.n, a, b, t_end,
                   max(first.margin, second.margin))

    # -- builders -------------------------------------------------------------------

    @classmethod
    def line(cls, n: int, start: Sequence, velocity: Sequence, theta_parts: Sequence,
             t_end: float, p: int | None = None, q: int = 0) -> "SuperPath":
        """Straight path start + t*velocity with constant theta-components."""
        return cls.from_polynomials(n, [[s, v] for s, v in zip(start, velocity)],
                                    [[h] for h in theta_parts], t_end, p, q)

    @classmethod
    def from_polynomials(cls, n: int, even_coeffs: Sequence[Sequence],
                         theta_coeffs: Sequence[Sequence], t_end: float,
                         p: int | None = None, q: int = 0) -> "SuperPath":
        ncoords = len(even_coeffs)
        p = ncoords - q if p is None else p
        a = [Curve.polynomial(n, list(cs)) for cs in even_coeffs]
        b = [Curve.polynomial(n, list(cs)) for cs in theta_coeffs]
        return cls(p, q, n, a, b, t_end)

    @classmethod
    def circle(cls, n: int, center: Sequence[float], radius: float, omega: float,
               theta_parts: Sequence, t_end: float, plane: tuple[int, int] = (0, 1),
               phase: float = 0.0) -> "SuperPath":
        p = len(center)
        if len(plane) != 2 or plane[0] == plane[1] or not set(plane) <= set(range(p)):
            raise DimensionError(f"circle plane {plane} is not 2 distinct axes in 0..{p - 1}")
        a = []
        for i, c in enumerate(center):
            if i == plane[0]:
                a.append(Curve.harmonic(n, radius, omega, phase, c, "cos"))
            elif i == plane[1]:
                a.append(Curve.harmonic(n, radius, omega, phase, c, "sin"))
            else:
                a.append(Curve.constant(n, c))
        b = [Curve.constant(n, h) for h in theta_parts]
        return cls(p, 0, n, a, b, t_end)


# ---------------------------------------------------------------------------
# Forms, connections, superconnections
# ---------------------------------------------------------------------------


class DifferentialForm:
    """A k-form on R^p valued in endomorphisms of the rank re|ro fiber.

    Components are indexed by strictly increasing tuples of 1-based
    coordinate indices; each component is a matrix-valued polynomial (or
    smooth oracle) in the even coordinates.  The total parity is
    (degree + endomorphism parity) mod 2.
    """

    __slots__ = ("degree", "p", "rank", "endo_parity", "components")

    def __init__(self, degree: int, p: int, rank: tuple[int, int],
                 endo_parity: Parity, components: Mapping[tuple[int, ...], object]):
        if degree > p:
            raise DegreeError(f"degree {degree} exceeds chart dimension {p}")
        r = rank[0] + rank[1]
        self.degree = degree
        self.p = p
        self.rank = tuple(rank)
        self.endo_parity = endo_parity
        comp: dict[tuple[int, ...], object] = {}
        for I, f in components.items():
            I = tuple(int(i) for i in I)
            if len(I) != degree or list(I) != sorted(set(I)) or any(not 1 <= i <= p for i in I):
                raise DimensionError(f"bad form index {I} for degree {degree}, p={p}")
            if f.nvars != p or f.coeff_shape != (r, r):
                raise DimensionError("component must be a (r x r)-valued map of the even variables")
            _check_block_parity(f.coeffs, rank, endo_parity)
            comp[I] = f
        self.components = comp

    @property
    def total_parity(self) -> Parity:
        return Parity((self.degree + self.endo_parity) % 2)

    @classmethod
    def constant_form(cls, degree: int, p: int, rank: tuple[int, int],
                      endo_parity: Parity, matrices: Mapping[tuple[int, ...], np.ndarray]) -> "DifferentialForm":
        comps = {I: PolyMap.constant(p, np.asarray(m, dtype=np.float64))
                 for I, m in matrices.items()}
        return cls(degree, p, rank, endo_parity, comps)

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        """Graded wedge product (Koszul sign for the endomorphism parts)."""
        if self.p != other.p or self.rank != other.rank:
            raise DimensionError("wedge operands live on different charts")
        sign0 = (-1.0) ** (self.endo_parity * other.degree)
        comps: dict[tuple[int, ...], object] = {}
        for Ia, fa in self.components.items():
            for Ib, fb in other.components.items():
                if set(Ia) & set(Ib):
                    continue
                sign, I = _merge_odd_indices(Ia, Ib)
                term = fa.matmul(fb) * (sign * sign0)
                comps[I] = comps[I] + term if I in comps else term
        return DifferentialForm(self.degree + other.degree, self.p, self.rank,
                                Parity((self.endo_parity + other.endo_parity) % 2), comps)


def _check_block_parity(coeff_stack: np.ndarray, rank: tuple[int, int], parity: Parity):
    rows = split_parities(rank)
    block = rows[:, None] ^ rows[None, :]
    bad = coeff_stack[:, block != parity]
    if bad.size and float(np.max(np.abs(bad))) != 0.0:
        raise ParityError("matrix coefficients violate the declared endomorphism parity")


class Connection:
    """A connection d + a on the trivialized rank re|ro bundle over R^{p|q}.

    ``coeffs[i]`` is the End-valued coefficient of the i-th coordinate
    differential, a Grassmann polynomial on R^{p|q}.  The operator is even:
    coefficients of even differentials have even total parity, coefficients
    of odd differentials odd total parity.
    """

    __slots__ = ("p", "q", "rank", "coeffs")

    def __init__(self, p: int, q: int, rank: tuple[int, int],
                 coeffs: Sequence[GrassmannPoly]):
        if len(coeffs) != p + q:
            raise DimensionError(f"expected {p + q} connection coefficients")
        r = rank[0] + rank[1]
        norm_coeffs = []
        for i, c in enumerate(coeffs):
            if c.p != p or c.q != q or c.coeff_shape != (r, r):
                raise DimensionError("connection coefficient has wrong arity or shape")
            if c.rank is None:
                c = GrassmannPoly(p, q, c.terms, c.lambda_n, rank)
            elif c.rank != tuple(rank):
                raise DimensionError("connection coefficient has a different rank split")
            norm_coeffs.append(c)
        coeffs = norm_coeffs
        for i, c in enumerate(coeffs):
            want_total = Parity(0 if i < p else 1)
            for J, f in c.terms.items():
                _check_block_parity(f.coeffs, rank, Parity((want_total + len(J)) % 2))
        self.p = p
        self.q = q
        self.rank = tuple(rank)
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, p: int, q: int, rank: tuple[int, int]) -> "Connection":
        r = rank[0] + rank[1]
        return cls(p, q, rank, [GrassmannPoly.zero(p, q, (r, r), rank) for _ in range(p + q)])

    @classmethod
    def from_matrix_polys(cls, p: int, rank: tuple[int, int],
                          polys: Sequence[PolyMap]) -> "Connection":
        """Ordinary-manifold case: q = 0, one matrix polynomial per dx^i."""
        coeffs = [GrassmannPoly(p, 0, {(): f}, rank=rank) for f in polys]
        return cls(p, 0, rank, coeffs)


@dataclass(frozen=True)
class Superconnection:
    """Quillen data: a grading-preserving connection plus odd-total forms.

    The form part must not contain degree 1 (that slot is the connection) and
    every summand has odd total parity: a k-form with endomorphism parity
    (1 + k) mod 2.
    """

    connection: Connection
    forms: tuple[DifferentialForm, ...] = ()

    def __post_init__(self):
        if self.connection.q != 0:
            raise DimensionError("superconnection transport works over an ordinary base")
        object.__setattr__(self, "forms", tuple(self.forms))
        for w in self.forms:
            if w.degree == 1:
                raise DimensionError("degree-1 data belongs to the connection part")
            if w.total_parity is not Parity.ODD:
                raise ParityError("form part must have odd total parity")
            if w.p != self.connection.p or w.rank != self.connection.rank:
                raise DimensionError("form part lives on a different chart or rank")

    @property
    def p(self) -> int:
        return self.connection.p

    @property
    def rank(self) -> tuple[int, int]:
        return self.connection.rank


# ---------------------------------------------------------------------------
# Pullback assembly
# ---------------------------------------------------------------------------


def _adjoined_coordinates(path: SuperPath, times: np.ndarray) -> np.ndarray:
    """The (p + q, 2**(n+1), nodes) component columns of the coordinates
    a_i(t) + theta*b_i(t) at the times, theta adjoined as one extra
    generator."""
    n = path.n
    return np.array([adjoin_theta(n, a.sample(times), b.sample(times))
                     for a, b in zip(path.a, path.b)]).reshape(-1, 2 << n, len(times))


def _assemble(path: SuperPath, grid: Grid, rank: tuple[int, int],
              parities: tuple[Parity, Parity],
              value_hat: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> SuperField:
    """The field whose values at the grid nodes are ``value_hat(times, coords)``.

    The nodes go in blocks (:func:`~supertransport.grassmann.node_blocks`),
    one call per block: ``coords`` are the block's path coordinates with
    theta adjoined, checked once, and the (2**(n+1), nodes, r, r) stack
    returned is split into its theta^0 and theta^1 parts.  The blocks bound
    the temporaries of one call's many ring products.
    """
    n = path.n
    r = rank[0] + rank[1]
    times = grid.times()
    a = np.empty((grid.nodes, 1 << n, r, r))
    b = np.empty_like(a)
    for blk in node_blocks(n + 1, grid.nodes, r * r):
        coords = _adjoined_coordinates(path, times[blk])
        _check_coordinates(path.p, path.q, coords)
        a_blk, b_blk = split_theta(n, value_hat(times[blk], coords))
        a[blk], b[blk] = a_blk.swapaxes(0, 1), b_blk.swapaxes(0, 1)
    return SuperField(grid, n, a, b, tuple(rank), tuple(rank), *parities)


def connection_coefficient(path: SuperPath, conn: Connection, grid: Grid,
                           variant: str = "D") -> SuperField:
    """The End-valued field obtained by contracting the pulled-back
    connection form with D (or Q) along the path.

    Per coordinate the differential contributes b_i(t) + theta*a_i'(t) for D
    and b_i(t) - theta*a_i'(t) for Q; the coefficient is evaluated at the
    full theta-expanded coordinates.  All signs are produced by Grassmann
    multiplication with theta adjoined as one extra generator.
    """
    if (path.p, path.q) != (conn.p, conn.q):
        raise DimensionError("path and connection targets differ")
    if variant not in ("D", "Q"):
        raise ValueError("variant must be 'D' or 'Q'")
    n = path.n
    theta_sign = 1.0 if variant == "D" else -1.0
    r = conn.rank[0] + conn.rank[1]
    adots = [c.derivative() for c in path.a]

    def value_hat(times: np.ndarray, coords: np.ndarray) -> np.ndarray:
        acc = np.zeros((2 << n, len(times), r, r))
        for coeff, coord, adot in zip(conn.coeffs, coords, adots):
            b_t, adot_t = split_theta(n, coord)[1], adot.sample(times)
            if not (np.any(b_t) or np.any(adot_t)):
                continue
            factor = adjoin_theta(n, b_t, theta_sign * adot_t)
            acc = acc + scale_stack(n + 1, factor, coeff._values(coords), side="right")
        return acc

    return _assemble(path, grid, conn.rank, (Parity.ODD, Parity.EVEN), value_hat)


def lift_pullback(path: SuperPath, form: DifferentialForm, grid: Grid) -> SuperField:
    """Pull a form back along the odd-tangent lift of the path.

    On the odd tangent bundle R^{p|p} the form is the function with dx^I
    turned into the odd monomial z^I; it is evaluated along
    :func:`odd_tangent_lift` of the path.  Its theta^0 part is the form on
    the odd component data (dx^i -> b_i(t)), its theta^1 part the same for
    the exterior derivative.  Works for ordinary targets (q = 0).
    """
    if path.q != 0:
        raise DimensionError("form pullback requires an ordinary target (q = 0)")
    if form.degree > path.p:
        raise DegreeError(f"form degree {form.degree} exceeds target dimension {path.p}")
    fn = _odd_monomial_function([form], path.p, form.rank)
    total = form.total_parity
    return _assemble(odd_tangent_lift(path), grid, form.rank, (total, total.flipped()),
                     lambda times, coords: fn._values(coords))


def superconnection_coefficient(path: SuperPath, sc: Superconnection, grid: Grid,
                                variant: str = "D") -> SuperField:
    """Coefficient field of the parallel-section equation along the path.

    D-variant: (pullback of the connection contracted with D) minus the
    lifted form part; Q-variant: the Q-contraction plus the lifted form part
    (the relative sign is what makes reversed transport invert the forward
    one).
    """
    field = connection_coefficient(path, sc.connection, grid, variant)
    sign = -1.0 if variant == "D" else 1.0
    for w in sc.forms:
        field = field + lift_pullback(path, w, grid).scaled(sign)
    return field


def endomorphism_term(path: SuperPath, endo: GrassmannPoly, grid: Grid,
                      rank: tuple[int, int]) -> SuperField:
    """The field obtained by evaluating an End-valued function along the path.

    Used for transport data of the form (connection, odd endomorphism) on a
    supermanifold target; theta enters through the coordinate expansions and
    is split off by adjoining it as one extra generator.
    """
    if (endo.p, endo.q) != (path.p, path.q):
        raise DimensionError("endomorphism lives on a different chart")
    r = rank[0] + rank[1]
    if endo.coeff_shape != (r, r):
        raise DimensionError("endomorphism shape does not match the rank")
    return _assemble(path, grid, rank, (Parity.ODD, Parity.EVEN),
                     lambda times, coords: endo._values(coords))


def odd_tangent_lift(path: SuperPath) -> SuperPath:
    """The lift of an ordinary-target path to the odd tangent bundle R^{p|p}.

    Even coordinates keep their expansions x_i(t) + theta*y_i(t); the new odd
    coordinates carry the odd data with no theta part: y_i(t) + theta*0.
    """
    if path.q != 0:
        raise DimensionError("odd tangent lift applies to ordinary targets")
    zero = Curve.constant(path.n, GrassmannElement.zero(path.n))
    a = list(path.a) + list(path.b)
    b = list(path.b) + [zero] * path.p
    return SuperPath(path.p, path.p, path.n, a, b, path.t_end, path.margin)


def _odd_monomial_function(forms: Sequence[DifferentialForm], p: int,
                           rank: tuple[int, int]) -> GrassmannPoly:
    """The sum of forms on R^p as one End-valued function on R^{p|p}, each
    dx^I turned into the odd-coordinate monomial z^I."""
    terms: dict[tuple[int, ...], object] = {}
    for w in forms:
        for I, f in w.components.items():
            key = tuple(i - 1 for i in I)
            terms[key] = terms[key] + f if key in terms else f
    if not terms:
        r = rank[0] + rank[1]
        terms[()] = PolyMap.zero(p, (r, r))
    return GrassmannPoly(p, p, terms, rank=rank)


def odd_tangent_data(sc: Superconnection) -> tuple[Connection, GrassmannPoly]:
    """Superconnection data seen on the odd tangent bundle.

    The connection pulls back with no components along the new odd
    directions; the form part becomes a single End-valued function with the
    form indices turned into odd-coordinate monomials.
    """
    p = sc.p
    r = sc.rank[0] + sc.rank[1]
    coeffs = [GrassmannPoly(p, p, {(): c.terms.get((), PolyMap.zero(p, (r, r)))}, rank=sc.rank)
              for c in sc.connection.coeffs]
    coeffs += [GrassmannPoly.zero(p, p, (r, r), sc.rank) for _ in range(p)]
    return Connection(p, p, sc.rank, coeffs), _odd_monomial_function(sc.forms, p, sc.rank)


def chart_claim_residual(path: SuperPath, fns: Sequence[PolyMap],
                         ts: Sequence[float]) -> float:
    """Lifted pullback of functions vs the direct pullback (algebraic identity).

    For each sample function f the theta-expansion of f evaluated along the
    full path must equal (f along the base) + theta*(df contracted with the
    odd components).
    """
    if path.q != 0:
        raise DimensionError("claim check requires an ordinary target")
    n = path.n
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.array([path.a[i].sample(ts) for i in range(path.p)]).reshape(-1, 1 << n, len(ts))
    etas = [path.b[i].sample(ts) for i in range(path.p)]
    direct_coords = _adjoined_coordinates(path, ts)
    res = 0.0
    for f in fns:
        lift_a = taylor_eval_stack(f, xs)
        lift_b = np.zeros_like(lift_a)
        for j in range(path.p):
            lift_b = lift_b + mul_components(n, etas[j], taylor_eval_stack(f.partial(j), xs))
        da, db = split_theta(n, taylor_eval_stack(f, direct_coords))
        res = max(res, float(np.max(np.abs(da - lift_a))), float(np.max(np.abs(db - lift_b))))
    return res
