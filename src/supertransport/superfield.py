"""Calculus on S x R^{1|1}: theta-expansions, odd derivations, group structure.

A field psi = a(t) + theta*b(t) is stored through its two theta-components,
each sampled on a uniform grid of graded matrices.  Time derivatives use
fourth-order finite differences (one-sided at the ends); off-grid values use
quartic Lagrange interpolation, and evaluation at points whose time
coordinate carries a nilpotent soul uses the terminating Taylor series around
a grid node, with the value and derivatives read at that node.

The odd derivations supported are

    D = d/dtheta + theta d/dt        (squares to +d/dt, right invariant)
    Q = d/dtheta - theta d/dt        (squares to -d/dt, left invariant)

acting as D(a + theta*b) = b + theta*a',  Q(a + theta*b) = b - theta*a'.

Points of R^{1|1} carry the group law (t, theta)(t', theta') =
(t + t' + theta*theta', theta + theta') with identity (0, 0) and inverse
(-t, -theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import DimensionError, DomainError, ParityError, ResolutionError
from .grassmann import (
    GradedMatrix,
    GrassmannElement,
    Parity,
    graded_mul_stacks,
    scale_stack,
    soul_series,
    split_parities,
    total_parities,
)

# Fourth-order first-derivative stencils on a uniform grid.
_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@dataclass(frozen=True)
class SuperPoint:
    """An S-point (t, theta) of R^{1|1}: t even, theta odd."""

    t: GrassmannElement
    theta: GrassmannElement

    def __post_init__(self):
        if self.t.n != self.theta.n:
            raise DimensionError("t and theta live over different algebras")
        if not self.t.is_even():
            raise ParityError("time coordinate must be even")
        if not self.theta.is_odd():
            raise ParityError("theta coordinate must be odd")
        if not np.isfinite(self.t.body):
            raise DomainError("time coordinate has non-finite body")

    @property
    def n(self) -> int:
        return self.t.n

    @classmethod
    def identity(cls, n: int) -> "SuperPoint":
        return cls(GrassmannElement.zero(n), GrassmannElement.zero(n))

    @classmethod
    def at(cls, n: int, t: float, theta: GrassmannElement | None = None) -> "SuperPoint":
        return cls(GrassmannElement.scalar(n, t),
                   theta if theta is not None else GrassmannElement.zero(n))

    def compose(self, other: "SuperPoint") -> "SuperPoint":
        """Group product self * other."""
        if self.n != other.n:
            raise DimensionError("points live over different algebras")
        t = self.t + other.t + self.theta * other.theta
        return SuperPoint(t, self.theta + other.theta)

    def __mul__(self, other: "SuperPoint") -> "SuperPoint":
        return self.compose(other)

    def inverse(self) -> "SuperPoint":
        return SuperPoint(-self.t, -self.theta)

    def __lt__(self, other: "SuperPoint") -> bool:
        """Partial order: p < q iff q * p^{-1} has strictly positive body."""
        return (other.compose(self.inverse())).t.body > 0.0

    def allclose(self, other: "SuperPoint", tol: float = 1e-12) -> bool:
        return self.t.allclose(other.t, tol) and self.theta.allclose(other.theta, tol)

    def to_json_dict(self) -> dict:
        return {"t": self.t.to_json_dict(), "theta": self.theta.to_json_dict()}

    @classmethod
    def from_json_dict(cls, n: int, data: Mapping) -> "SuperPoint":
        return cls(GrassmannElement.from_json_dict(n, data["t"]),
                   GrassmannElement.from_json_dict(n, data["theta"]))


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t0 + k*h, k = 0..nodes-1."""

    t0: float
    h: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 2 or self.h <= 0.0:
            raise ResolutionError("grid needs at least two nodes and positive step")

    @property
    def t_end(self) -> float:
        return self.t0 + self.h * (self.nodes - 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.nodes)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        k = (t - self.t0) / self.h
        ki = int(round(k))
        if abs(k - ki) > tol or not 0 <= ki < self.nodes:
            raise DomainError(f"time {t} is not a node of the grid")
        return ki

    def contains(self, t: float, slack: float = 1e-9) -> bool:
        return self.t0 - slack <= t <= self.t_end + slack

    @classmethod
    def over(cls, t_start: float, t_stop: float, nodes: int) -> "Grid":
        if nodes < 2:
            raise ResolutionError("grid needs at least two nodes")
        lo, hi = (t_start, t_stop) if t_start <= t_stop else (t_stop, t_start)
        if hi == lo:
            raise ResolutionError("grid window has zero width")
        return cls(lo, (hi - lo) / (nodes - 1), nodes)


def fd4_stack(stack: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along axis 0 of a node stack."""
    m = stack.shape[0]
    if m < 5:
        raise ResolutionError("differentiation needs at least 5 grid nodes")
    flat = np.ascontiguousarray(stack, dtype=float).reshape(m, -1)
    out = np.empty(flat.shape)
    out[0] = _EDGE0 @ flat[:5]
    out[1] = _EDGE1 @ flat[:5]
    # the interior's five-node windows as one view; sliding_window_view keeps ~1 MB more RSS
    windows = np.ndarray((m - 4, out.shape[1], 5), float, flat, 0, flat.strides + flat.strides[:1])
    out[2:m - 2] = windows @ _INTERIOR
    out[m - 2] = -(_EDGE1 @ flat[m - 5:][::-1])
    out[m - 1] = -(_EDGE0 @ flat[m - 5:][::-1])
    return out.reshape(stack.shape) / h


def lagrange_weights(ts: np.ndarray, t) -> np.ndarray:
    """Lagrange basis weights at time t for the nodes ts on the last axis;
    a 1-D array of times goes with one row of nodes per time."""
    t = np.asarray(t, dtype=np.float64)[..., None, None]
    off = ~np.eye(ts.shape[-1], dtype=bool)
    num = t - ts[..., None, :]
    den = ts[..., :, None] - ts[..., None, :]
    # w_k = prod_{l != k} (t - ts_l) / (ts_k - ts_l), factors in order of l
    return np.where(off, num / np.where(off, den, 1.0), 1.0).prod(axis=-1)


def interpolate_stack(grid: Grid, stack: np.ndarray, t) -> np.ndarray:
    """Quartic Lagrange interpolation of a node stack at a 1-D array of real
    times, off the nodes too; the result gains a leading time axis.  The
    transport endpoint is read at its node instead (:func:`taylor_stack_at`)."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise DimensionError("interpolation takes a 1-D array of times")
    if not (grid.contains(t.min()) and grid.contains(t.max())):
        raise DomainError(f"time {t} outside grid window [{grid.t0}, {grid.t_end}]")
    if grid.nodes < 5:
        raise ResolutionError("interpolation needs at least 5 grid nodes")
    start = np.minimum(np.maximum(np.rint((t - grid.t0) / grid.h).astype(int) - 2, 0),
                       grid.nodes - 5)
    idx = start[:, None] + np.arange(5)
    return np.einsum("jk,jk...->j...", lagrange_weights(grid.t0 + grid.h * idx, t), stack[idx])


def node_jets(grid: Grid, stack: np.ndarray, node: int) -> Iterator[np.ndarray]:
    """The time derivatives of a node stack at one node, orders 0, 1, 2, ...
    in turn: the k-th is the k-th :func:`fd4_stack` pass read at the node,
    each pass taken over the last only when its order is asked for."""
    while True:
        yield stack[node]
        stack = fd4_stack(stack, grid.h)


def taylor_stack_at(grid: Grid, stack: np.ndarray, t: GrassmannElement) -> np.ndarray:
    """A node stack at an even time with nilpotent soul whose body is a grid
    node: the terminating Taylor series around that node.  A body off the
    nodes raises DomainError."""
    if not t.is_even():
        raise ParityError("time argument must be even")
    jets = node_jets(grid, stack, grid.index_of(t.body))
    # soul_series asks for orders k = 1, 2, ... in turn
    return next(jets) + soul_series(t.n, t.soul().comps, lambda k: next(jets))


class SuperField:
    """A (matrix-valued) function a(t) + theta*b(t) on S x R^{1|1}.

    ``a`` and ``b`` are stacks of graded-matrix components sharing one grid;
    ``a_parity``/``b_parity`` are the declared parities of the two halves
    (for a field of homogeneous value parity they are opposite).
    """

    __slots__ = ("grid", "n", "a", "b", "row_split", "col_split",
                 "a_parity", "b_parity")

    def __init__(self, grid: Grid, n: int, a: np.ndarray, b: np.ndarray,
                 row_split: tuple[int, int], col_split: tuple[int, int],
                 a_parity: Parity | None, b_parity: Parity | None):
        r = row_split[0] + row_split[1]
        c = col_split[0] + col_split[1]
        want = (grid.nodes, 1 << n, r, c)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != want or b.shape != want:
            raise DimensionError(f"component stacks must have shape {want}")
        self.grid = grid
        self.n = n
        self.a = a.copy()
        self.b = b.copy()
        self.a.setflags(write=False)
        self.b.setflags(write=False)
        self.row_split = tuple(row_split)
        self.col_split = tuple(col_split)
        self.a_parity = a_parity
        self.b_parity = b_parity

    # -- node access and interpolation --------------------------------------

    def a_matrix(self, k: int) -> GradedMatrix:
        return GradedMatrix(self.n, self.a[k], self.row_split, self.col_split,
                            self.a_parity, check=False)

    def b_matrix(self, k: int) -> GradedMatrix:
        return GradedMatrix(self.n, self.b[k], self.row_split, self.col_split,
                            self.b_parity, check=False)

    # -- derivations ---------------------------------------------------------

    def apply_derivation(self, which: str) -> "SuperField":
        """Apply D, Q, or dt to the field.

        D(a + theta b) = b + theta a';  Q(a + theta b) = b - theta a';
        dt(a + theta b) = a' + theta b'.
        """
        if self.grid.nodes < 5:
            raise ResolutionError("derivation needs at least 5 grid nodes")
        da = fd4_stack(self.a, self.grid.h)
        if which == "D":
            return SuperField(self.grid, self.n, self.b, da, self.row_split,
                              self.col_split, self.b_parity, self.a_parity)
        if which == "Q":
            return SuperField(self.grid, self.n, self.b, -da, self.row_split,
                              self.col_split, self.b_parity, self.a_parity)
        if which == "dt":
            db = fd4_stack(self.b, self.grid.h)
            return SuperField(self.grid, self.n, da, db, self.row_split,
                              self.col_split, self.a_parity, self.b_parity)
        raise ValueError(f"unknown derivation {which!r}; expected 'D', 'Q' or 'dt'")

    def dd_identity_check(self, dt_reference: "SuperField | None" = None) -> tuple[float, float]:
        """Max-norm residuals of (DD - dt) and (QQ + dt) applied to the field."""
        dt = dt_reference if dt_reference is not None else self.apply_derivation("dt")
        dd = self.apply_derivation("D").apply_derivation("D")
        qq = self.apply_derivation("Q").apply_derivation("Q")
        res_d = max(float(np.max(np.abs(dd.a - dt.a))), float(np.max(np.abs(dd.b - dt.b))))
        res_q = max(float(np.max(np.abs(qq.a + dt.a))), float(np.max(np.abs(qq.b + dt.b))))
        return res_d, res_q

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SuperField") -> "SuperField":
        self._check_same_grid(other)
        return SuperField(self.grid, self.n, self.a + other.a, self.b + other.b,
                          self.row_split, self.col_split,
                          self.a_parity if self.a_parity == other.a_parity else None,
                          self.b_parity if self.b_parity == other.b_parity else None)

    def __sub__(self, other: "SuperField") -> "SuperField":
        return self + other.scaled(-1.0)

    def scaled(self, factor: float) -> "SuperField":
        return SuperField(self.grid, self.n, self.a * factor, self.b * factor,
                          self.row_split, self.col_split, self.a_parity, self.b_parity)

    def matmul(self, other: "SuperField") -> "SuperField":
        """Pointwise product (a + theta b)(a' + theta b') with graded signs."""
        self._check_same_grid(other)
        if self.col_split != other.row_split:
            raise DimensionError("block structure mismatch in field product")
        n = self.n
        rows, mid = split_parities(self.row_split), split_parities(self.col_split)
        eps = 1.0 - 2.0 * total_parities(n, self.row_split, self.col_split)[:, None]
        a, b = self.a.swapaxes(0, 1), self.b.swapaxes(0, 1)
        a2, b2 = other.a.swapaxes(0, 1), other.b.swapaxes(0, 1)
        # (a + th b)(a' + th b') = a a' + th (b a' + eps(a) b')
        out_a = graded_mul_stacks(n, a, a2, rows, mid)
        out_b = (graded_mul_stacks(n, b, a2, rows, mid)
                 + graded_mul_stacks(n, eps * a, b2, rows, mid))
        b_parts = (Parity.combine(self.b_parity, other.a_parity),
                   Parity.combine(self.a_parity, other.b_parity))
        return SuperField(self.grid, n, out_a.swapaxes(0, 1), out_b.swapaxes(0, 1),
                          self.row_split, other.col_split,
                          Parity.combine(self.a_parity, other.a_parity),
                          b_parts[0] if b_parts[0] == b_parts[1] else None)

    def _check_same_grid(self, other: "SuperField"):
        if self.grid != other.grid or self.n != other.n:
            raise DimensionError("fields live on different grids or algebras")

    def norm(self) -> float:
        return max(float(np.max(np.abs(self.a))), float(np.max(np.abs(self.b))))

    def distance(self, other: "SuperField") -> float:
        self._check_same_grid(other)
        return max(float(np.max(np.abs(self.a - other.a))),
                   float(np.max(np.abs(self.b - other.b))))

    def parity_residual(self) -> float:
        """How far the stacks are from their declared parities (0 when clean)."""
        res = 0.0
        for stack, parity in ((self.a, self.a_parity), (self.b, self.b_parity)):
            if parity is None:
                continue
            bad = total_parities(self.n, self.row_split, self.col_split) != parity
            vals = np.abs(stack[:, bad])
            if vals.size:
                res = max(res, float(vals.max()))
        return res

    # -- substitution ---------------------------------------------------------

    def substitute(self, new_grid: Grid, sign: float, shift: GrassmannElement,
                   rho: GrassmannElement, tau: GrassmannElement, e: float) -> "SuperField":
        """Precompose with (u, eta) -> (sign*u + shift + eta*rho, tau + e*eta).

        ``shift`` is even, ``rho`` and ``tau`` odd.  This is the theta-expansion
        bookkeeping for right translations, the inversion map, and their
        compositions: with s = sign*u + shift,

            A(u) = a(s) + tau*b(s)
            B(u) = rho*a'(s) + e*b(s) - tau*rho*b'(s)
        """
        if shift.soul().norm() != 0.0:
            raise DimensionError("field substitution supports real shifts only; "
                                 "use path-level substitution for soulful shifts")
        n = self.n
        times = sign * new_grid.times() + shift.body
        a, b, da, db = (interpolate_stack(self.grid, stack, times).swapaxes(0, 1)
                        for stack in (self.a, self.b, fd4_stack(self.a, self.grid.h),
                                      fd4_stack(self.b, self.grid.h)))
        taurho = None if rho.norm() == 0.0 and tau.norm() == 0.0 else tau * rho
        new_a = a + scale_stack(n, tau.comps, b, side="left")
        new_b = scale_stack(n, rho.comps, da, side="left") + e * b
        if taurho is not None:
            new_b = new_b - scale_stack(n, taurho.comps, db, side="left")
        return SuperField(new_grid, n, new_a.swapaxes(0, 1), new_b.swapaxes(0, 1),
                          self.row_split, self.col_split, self.a_parity, self.b_parity)

    def right_translated(self, point: SuperPoint, new_grid: Grid) -> "SuperField":
        """Precompose with the right translation (u, eta) -> (u, eta)(t0, th0)."""
        return self.substitute(new_grid, 1.0, point.t, point.theta, point.theta, 1.0)

    def inverted(self, new_grid: Grid) -> "SuperField":
        """Precompose with the inversion (u, eta) -> (-u, -eta)."""
        n = self.n
        zero = GrassmannElement.zero(n)
        return self.substitute(new_grid, -1.0, zero, zero, zero, -1.0)
