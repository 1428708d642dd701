"""Parallel transport along superpaths and everything built on it.

The parallel-section equation along a path, D psi + F psi = 0 with
F = C(t) + theta*Dm(t) an End-valued coefficient field, reduces (writing
psi = a + theta*b) to

    b(t) = -C(t) a(t)
    a'(t) = -eps(C) b - Dm a = (eps(C) C - Dm) a        (D variant)
    a'(t) = +eps(C) b + Dm a = (Dm - eps(C) C) a        (Q variant)

where eps is the total-parity involution.  The solver marches the
fundamental matrices of a batch of such equations on one grid together
with the classical fourth-order scheme; coefficient fields are sampled at
half-step resolution so every stage value is exact.  Endpoints whose time
coordinate carries a soul are reached by the terminating Taylor series
with derivatives generated from the right-hand side.

On top of the solver live the transport-map constructors and the path
operations: gluing, reversal, reparametrization, adiabatic sweeps, and the
recovery of connection and form data from a transport oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    CompatibilityError,
    DimensionError,
    DomainError,
    OrientationError,
    ParityError,
    UnderdeterminedError,
)
from .geometry import (
    Connection,
    Curve,
    GrassmannPoly,
    SuperPath,
    Superconnection,
    connection_coefficient,
    endomorphism_term,
    lift_pullback,
    odd_tangent_data,
    odd_tangent_lift,
    superconnection_coefficient,
)
from .grassmann import (
    GradedMatrix,
    GrassmannElement,
    Parity,
    graded_mul_stacks,
    node_blocks,
    scale_stack,
    soul_series,
    split_parities,
    split_theta,
    stack_parity,
    total_parities,
)
from .superfield import Grid, SuperField, SuperPoint, fd4_chain, interpolate_stack, taylor_stack_at

DEFAULT_STEPS = 400


@dataclass(frozen=True)
class TransportMap:
    """A fiber identification along a superpath: a graded matrix over the
    scalar algebra together with the endpoint it transports to."""

    matrix: GradedMatrix
    end: SuperPoint

    def __post_init__(self):
        if not self.matrix.body_invertible():
            raise DomainError("transport map has a singular body")

    def apply(self, psi: Sequence[GrassmannElement]) -> list[GrassmannElement]:
        return self.matrix.apply(psi)

    def compose(self, earlier: "TransportMap") -> "TransportMap":
        """self after earlier (matrix product self @ earlier)."""
        return TransportMap(self.matrix @ earlier.matrix, self.end)

    def distance(self, other: "TransportMap") -> float:
        return self.matrix.distance(other.matrix)

    def to_json_dict(self) -> dict:
        return {"matrix": self.matrix.to_json_dict(), "end": self.end.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TransportMap":
        matrix = GradedMatrix.from_json_dict(data["matrix"])
        end = SuperPoint.from_json_dict(matrix.n, data["end"])
        return cls(matrix, end)


# ---------------------------------------------------------------------------
# The half-order solver
# ---------------------------------------------------------------------------


def _reduced_matrix_stacks(n: int, a: np.ndarray, b: np.ndarray,
                           row_split: tuple[int, int], variant: str) -> np.ndarray:
    """Node stack of eps(C) C - Dm (D variant) or Dm - eps(C) C (Q variant).

    ``a`` and ``b`` hold C and Dm of a batch of problems as
    (nodes, 2**n, problems, r, r) stacks.  All products are graded operator
    products; eps is the total-parity involution.  One batched product per
    block of nodes.
    """
    rows = split_parities(row_split)
    eps_sign = (1.0 - 2.0 * total_parities(n, row_split, row_split))[:, None, None]
    C, Dm = a.swapaxes(0, 1), b.swapaxes(0, 1)
    out = np.empty_like(C)
    for blk in node_blocks(n, a.shape[0], a[0, 0].size):
        epsC_C = graded_mul_stacks(n, C[:, blk] * eps_sign, C[:, blk], rows, rows)
        out[:, blk] = epsC_C - Dm[:, blk] if variant == "D" else Dm[:, blk] - epsC_C
    return np.ascontiguousarray(out.swapaxes(0, 1))


def solve_parallel(field: SuperField, end: SuperPoint, variant: str = "D",
                   psi0: Sequence[GrassmannElement] | None = None):
    """Parallel section value (or fundamental map) at an endpoint.

    The march runs from time 0 to body(end.t) on the field's grid, stepping
    two grid nodes at a time so that stage values are exact node samples;
    both times must therefore sit on even node offsets.  Returns a
    GradedMatrix mapping initial values to values at the endpoint, or the
    transported vector when ``psi0`` is given.
    """
    matrix, = _march([field], end, variant)
    if psi0 is not None:
        return matrix.apply(psi0)
    return matrix


def _march(fields: Sequence[SuperField], end: SuperPoint, variant: str) -> list[GradedMatrix]:
    """Fundamental maps at one endpoint for a batch of coefficient fields.

    Every field is checked as :func:`solve_parallel` checks one, and the
    batch must share the grid, the algebra and the block splits.  The
    fields' stacks gain a problem axis right after the key axis and march
    in blocks of problems from :func:`node_blocks`; for n >= 9 a block is
    one problem, so no ring product gathers more than a single march does.
    """
    if variant not in ("D", "Q"):
        raise ValueError("variant must be 'D' or 'Q'")
    body = end.t.body
    for field in fields:
        if end.n != field.n:
            raise DimensionError("endpoint lives over a different algebra")
        if field.a_parity not in (None, Parity.ODD) or field.b_parity not in (None, Parity.EVEN):
            raise ParityError("coefficient field must be odd (theta part even) "
                              "for the parallel equation to be parity consistent")
        grid = field.grid
        if not (grid.contains(0.0) and grid.contains(body)):
            raise DomainError(f"endpoint time {body} outside the coefficient grid")
        i0 = grid.index_of(0.0)
        i1 = grid.index_of(body)
        if (i1 - i0) % 2:
            raise DomainError("endpoint does not sit on a full solver step")
    first = fields[0]
    layout = (first.grid, first.row_split, first.col_split)
    if any((f.grid, f.row_split, f.col_split) != layout for f in fields):
        raise DimensionError("batched fields must share the grid and the block splits")

    n = first.n
    rows = split_parities(first.row_split)
    r = first.a.shape[2]
    h = 2.0 * grid.h * (1 if i1 >= i0 else -1)
    direction = 2 if i1 >= i0 else -2
    soul = end.t.soul().comps
    maps = np.empty((1 << n, len(fields), r, r))
    for blk in node_blocks(n, len(fields), r * r):
        a = np.stack([f.a for f in fields[blk]], axis=2)
        b = np.stack([f.b for f in fields[blk]], axis=2)
        M = _reduced_matrix_stacks(n, a, b, first.row_split, variant)
        X = np.zeros((1 << n,) + M.shape[2:])
        X[0] = np.eye(r)
        for idx in range(i0, i1, direction):
            M0 = M[idx]
            Mh = M[idx + direction // 2]
            M1 = M[idx + direction]
            k1 = graded_mul_stacks(n, M0, X, rows, rows)
            k2 = graded_mul_stacks(n, Mh, X + (h / 2.0) * k1, rows, rows)
            k3 = graded_mul_stacks(n, Mh, X + (h / 2.0) * k2, rows, rows)
            k4 = graded_mul_stacks(n, M1, X + h * k3, rows, rows)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        X = X + _taylor_endpoint(n, grid, M, X, body, soul, rows)

        C_end = taylor_stack_at(grid, fd4_chain(a, grid.h), end.t)
        B_stack = -graded_mul_stacks(n, C_end, X, rows, rows)
        maps[:, blk] = X + scale_stack(n, end.theta.comps, B_stack, side="left")
    return [GradedMatrix(n, maps[:, k], first.row_split, first.col_split,
                         stack_parity(n, maps[:, k], first.row_split, first.col_split),
                         check=False)
            for k in range(len(fields))]


def _taylor_endpoint(n: int, grid: Grid, M: np.ndarray, X: np.ndarray, body: float,
                     soul: np.ndarray, rows: np.ndarray):
    """Soul tail of the fundamental solution's terminating Taylor series.

    Derivatives of the solution are generated from the equation
    X' = M X by the Leibniz recursion X^(k+1) = sum_j C(k,j) M^(j) X^(k-j);
    derivatives of M come from grid stencils.
    """
    m_derivative = fd4_chain(M, grid.h)
    x_derivs = [X]

    def x_derivative(k: int) -> np.ndarray:
        # X^(k) = sum_{j=0}^{k-1} binom(k-1, j) M^(j)(t) X^(k-1-j)
        acc = np.zeros_like(X)
        for j in range(k):
            Mj = interpolate_stack(grid, m_derivative(j), body)
            acc = acc + math.comb(k - 1, j) * graded_mul_stacks(n, Mj, x_derivs[k - 1 - j], rows, rows)
        x_derivs.append(acc)
        return acc

    return soul_series(n, soul, x_derivative)


# ---------------------------------------------------------------------------
# Transport maps
# ---------------------------------------------------------------------------


def _solve_grid(path: SuperPath, end: SuperPoint, steps: int) -> Grid:
    body = end.t.body
    if body == 0.0:
        # degenerate window: a small symmetric grid so stencils exist
        h = 1e-3
        return Grid(-4 * h, h, 9)
    if not path.contains_time(body):
        raise DomainError(f"endpoint time {body} outside the path window [0, {path.t_end}]")
    lo, hi = (0.0, body) if body > 0 else (body, 0.0)
    return Grid.over(lo, hi, 2 * steps + 1)


@dataclass(frozen=True)
class TransportData:
    """Solver-level transport data on an R^{p|q} target: a connection plus
    an optional odd endomorphism-valued function (entering the parallel
    equation with a minus sign in the D variant, plus in the Q variant)."""

    connection: Connection
    endomorphism: GrassmannPoly | None = None

    @property
    def rank(self) -> tuple[int, int]:
        return self.connection.rank


def _coefficient_field(path: SuperPath, data, grid: Grid, variant: str) -> SuperField:
    sign = -1.0 if variant == "D" else 1.0
    if isinstance(data, Connection):
        return connection_coefficient(path, data, grid, variant)
    if isinstance(data, TransportData):
        field = connection_coefficient(path, data.connection, grid, variant)
        if data.endomorphism is not None:
            field = field + endomorphism_term(path, data.endomorphism, grid,
                                              data.rank).scaled(sign)
        return field
    if isinstance(data, Superconnection):
        return superconnection_coefficient(path, data, grid, variant)
    raise TypeError(f"unsupported transport data {type(data).__name__}")


def sp(path: SuperPath, sc, end: SuperPoint, steps: int = DEFAULT_STEPS) -> TransportMap:
    """Super parallel transport along the path up to the endpoint.

    ``sc`` may be a plain Connection (supermanifold targets allowed), a
    Superconnection over an ordinary target, or solver-level TransportData.
    """
    grid = _solve_grid(path, end, steps)
    field = _coefficient_field(path, sc, grid, "D")
    matrix = solve_parallel(field, end, "D")
    return TransportMap(matrix, end)


def ps(path: SuperPath, sc, end: SuperPoint, steps: int = DEFAULT_STEPS) -> TransportMap:
    """Q-variant transport along the given path.

    Accepts a Connection or TransportData; applied to the reversal of a path
    it produces the inverse of the forward transport.  For Quillen data use
    :func:`reverse_transport`, which moves to the odd tangent bundle where
    the form part becomes an endomorphism.
    """
    if isinstance(sc, Superconnection):
        raise TypeError("Q transport of Quillen data runs on the odd tangent "
                        "bundle; use reverse_transport")
    grid = _solve_grid(path, end, steps)
    field = _coefficient_field(path, sc, grid, "Q")
    matrix = solve_parallel(field, end, "Q")
    return TransportMap(matrix, end)


def lift_problem(path: SuperPath, sc: Superconnection) -> tuple[SuperPath, TransportData]:
    """The odd-tangent-bundle version of a Quillen transport problem.

    Returns the lifted path into R^{p|p} together with the pulled-back
    connection and the form part packaged as an odd endomorphism.  Transport
    along the lift coincides with the direct transport; path operations that
    substitute the R^{1|1} argument (gluing, reversal) are performed on the
    lift, where the composition theorems apply exactly.
    """
    return odd_tangent_lift(path), TransportData(*odd_tangent_data(sc))


def reverse_transport(path: SuperPath, sc, end: SuperPoint,
                      steps: int = DEFAULT_STEPS) -> TransportMap:
    """Q-transport along the reversed path; inverts sp(path, sc, end).

    Plain connections reverse at the path level.  Quillen data is moved to
    the odd tangent bundle first (connection + odd endomorphism), where the
    reversal argument applies verbatim; the lifted path is reversed there.
    """
    if isinstance(sc, Superconnection):
        lifted = odd_tangent_lift(path)
        conn, endo = odd_tangent_data(sc)
        data: object = TransportData(conn, endo)
        rev = lifted.reversed_through(end)
    else:
        data = sc
        rev = path.reversed_through(end)
    return ps(rev, data, end, steps)


# ---------------------------------------------------------------------------
# Path operations
# ---------------------------------------------------------------------------


def glue(path: SuperPath, path2: SuperPath, joint: SuperPoint,
         eps_overlap: float | None = None, samples: int = 16,
         tol: float = 1e-9) -> SuperPath:
    """Concatenate two paths whose germs match across the joint.

    ``path2`` must agree with ``path`` right-translated by the joint on an
    overlap around time 0; the returned path follows ``path`` below the
    joint time and the shifted ``path2`` above it, on the window
    [0, body(joint) + path2.t_end].
    """
    if (path.p, path.q, path.n) != (path2.p, path2.q, path2.n):
        raise DimensionError("glued paths have different targets")
    t_joint = joint.t.body
    eps = eps_overlap if eps_overlap is not None else 1e-2 * max(abs(t_joint) + abs(path2.t_end), 1.0)
    translated = path.translated(joint)
    us = np.linspace(-eps / 2, eps / 2, samples)
    worst = 0.0
    for c1, c2 in zip(translated.a + translated.b, path2.a + path2.b):
        worst = max(worst, float(np.max(np.abs(c1.sample(us) - c2.sample(us)))))
    if worst > tol:
        raise CompatibilityError(f"paths differ by {worst} on the overlap")
    branch2 = path2.shifted_by_inverse(joint, t_joint + path2.t_end)
    return SuperPath.piecewise(path, branch2, t_joint, t_joint + path2.t_end)


def glued_endpoint(joint: SuperPoint, end2: SuperPoint) -> SuperPoint:
    """Endpoint of the glued path: the group product end2 * joint."""
    return end2.compose(joint)


def reverse(path: SuperPath, end: SuperPoint) -> SuperPath:
    """The reversed path u -> c((u, eta)^{-1} (t0, th0))."""
    return path.reversed_through(end)


def reparametrize(path: SuperPath, r: Curve, new_t_end: float,
                  samples: int = 33) -> SuperPath:
    """Precompose with the distribution-preserving family (r(u), sqrt(r'(u)) eta).

    ``r`` must be strictly increasing on [0, new_t_end] (checked on samples)
    and is expected to fix 0.
    """
    us = np.linspace(0.0, new_t_end, samples)
    v = r.derivative().sample(us)
    if np.any(v[1:]):
        raise OrientationError("reparametrization must be real-valued")
    if np.any(v[0] <= 0.0):
        k = int(np.argmax(v[0] <= 0.0))
        raise OrientationError(f"reparametrization has r'({us[k]}) = {v[0, k]} <= 0")
    return path.reparametrized(r, new_t_end)


@dataclass(frozen=True)
class SweepEntry:
    lam: float
    map: TransportMap
    distance_to_limit: float


def adiabatic_sweep(path: SuperPath, sc: Superconnection, lambdas: Sequence[float],
                    end: SuperPoint, steps: int = DEFAULT_STEPS) -> tuple[list[SweepEntry], TransportMap]:
    """Transport with the form part scaled by sqrt(lambda), for each lambda.

    Returns the sweep entries (in the given order) and the plain-connection
    limit map the distances refer to.
    """
    for lam in lambdas:
        if not 0.0 < lam < math.inf:
            raise DomainError("sweep parameters must be positive and finite")
    grid = _solve_grid(path, end, steps)
    conn_field = connection_coefficient(path, sc.connection, grid, "D")
    lift_fields = [lift_pullback(path, w, grid) for w in sc.forms]
    fields = [conn_field]
    for lam in lambdas:
        field = conn_field
        for lf in lift_fields:
            field = field + lf.scaled(-math.sqrt(lam))
        fields.append(field)
    limit_matrix, *matrices = _march(fields, end, "D")
    limit = TransportMap(limit_matrix, end)
    entries = []
    for lam, matrix in zip(lambdas, matrices):
        entry = TransportMap(matrix, end)
        entries.append(SweepEntry(lam, entry, entry.distance(limit)))
    return entries, limit


# ---------------------------------------------------------------------------
# Recovery of the superconnection from a transport oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveredSuperconnection:
    """Point values recovered from transport: connection coefficients a_i(x0),
    the 0-form part, and the 2-form components indexed by (i, j)."""

    connection: list[np.ndarray]
    form0: np.ndarray | None
    form2: dict[tuple[int, int], np.ndarray]


def _coefficient_at_zero(oracle: Callable[[SuperPath, SuperPoint], TransportMap],
                         probe: SuperPath, n: int,
                         fd_step: float) -> tuple[GradedMatrix, GradedMatrix]:
    """Recover C(0) and Dm(0) of the parallel equation along a probe path.

    C(0) is the left theta-coefficient of the zero-length transport with a
    theta displacement along the highest generator e_n; Dm(0) follows from
    the reduced equation with the time derivative of the theta^0 block
    estimated by a central difference.  The probe is free of e_n, so both
    live over the n - 1 generators below it.
    """
    theta = GrassmannElement.generator(n, n)
    at_theta = oracle(probe, SuperPoint(GrassmannElement.zero(n), theta))
    splits = at_theta.matrix.row_split, at_theta.matrix.col_split
    C0m = GradedMatrix(n - 1, -split_theta(n - 1, at_theta.matrix.comps)[1], *splits,
                       None, check=False)
    plus = oracle(probe, SuperPoint.at(n, fd_step))
    minus = oracle(probe, SuperPoint.at(n, -fd_step))
    adot = (plus.matrix.comps - minus.matrix.comps) / (2.0 * fd_step)
    adot_m = GradedMatrix(n - 1, split_theta(n - 1, adot)[0], *splits, None, check=False)
    # a' = (eps(C) C - Dm) a with a(0) = 1, so Dm(0) = eps(C0) C0 - a'(0)
    Dm = C0m.parity_involution() @ C0m - adot_m
    return C0m, Dm


def recover(oracle: Callable[[SuperPath, SuperPoint], TransportMap],
            x0: Sequence[float], p: int, rank: tuple[int, int], n: int,
            degrees: Sequence[int] = (1, 0, 2), fd_step: float = 1e-4,
            margin_steps: int = 4) -> RecoveredSuperconnection:
    """Recover (connection, 0-form, 2-form) point values from transport.

    Probes are short straight paths through x0.  Connection coefficients are
    read from the theta-part of the coefficient with unit velocities; the
    0-form from the theta^0 block with vanishing odd data; 2-form components
    from coefficients of generator pairs placed on distinct coordinates.
    Needs one spare generator for the theta slot (n >= 3 for 2-forms).
    """
    x0 = [float(v) for v in x0]
    if len(x0) != p:
        raise DimensionError("base point dimension does not match p")
    want2 = 2 in degrees
    if want2 and n < 3:
        raise UnderdeterminedError("2-form recovery needs at least 3 generators")
    if n < 1:
        raise UnderdeterminedError("recovery needs at least one generator for the theta slot")
    zero = GrassmannElement.zero(n)

    def line_probe(velocity: Sequence[float], eta: Sequence[GrassmannElement]) -> SuperPath:
        pb = SuperPath.line(n, x0, velocity, eta, 4 * fd_step)
        pb.margin = 8 * fd_step
        return pb

    # base probe: eta = 0, v = 0 -> C(0) = -(0-form)
    base_probe = line_probe([0.0] * p, [zero] * p)
    C_base, _ = _coefficient_at_zero(oracle, base_probe, n, fd_step)
    form0 = -C_base.comps[0] if 0 in degrees else None

    connection: list[np.ndarray] = []
    if 1 in degrees:
        for i in range(p):
            v = [0.0] * p
            v[i] = 1.0
            probe = line_probe(v, [zero] * p)
            _, Dm = _coefficient_at_zero(oracle, probe, n, fd_step)
            # Dm(0) = a_i(x0) for a unit-velocity probe with no odd data
            connection.append(Dm.comps[0].copy())

    form2: dict[tuple[int, int], np.ndarray] = {}
    if want2:
        g1 = GrassmannElement.generator(n, 1)
        g2 = GrassmannElement.generator(n, 2)
        pair_key = (g1 * g2).comps.nonzero()[0][0]
        for i in range(p):
            for j in range(i + 1, p):
                eta = [zero] * p
                eta[i] = g1
                eta[j] = g2
                probe = line_probe([0.0] * p, eta)
                C0, _ = _coefficient_at_zero(oracle, probe, n, fd_step)
                form2[(i + 1, j + 1)] = -C0.comps[pair_key].copy()
    return RecoveredSuperconnection(connection, form0, form2)
