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
half-step resolution so every stage value is exact.  Each step is then a
linear map P_k fixed by the samples, X_{k+1} = P_k X_k, so the march builds
all step maps at once and multiplies P_{m-1} ... P_0 pairwise in
ceil(log2 m) levels; the product is checked once for overflow.  Endpoints
whose time coordinate carries a soul are reached by the terminating Taylor
series around the endpoint's grid node, with derivatives generated from the
right-hand side and read at that node.  The march runs in the sign twist T
of graded_mul_stacks, where the sign (-1)**(|J| (p_i + p_j)) of a key pair
splits per factor: a' = M a has M, a on one block split, so
T(M o a) = T(M) . T(a) is one plain ring product.

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
    SuperPath,
    Superconnection,
    TransportData,
    connection_coefficient,
    endomorphism_term,
    odd_tangent_lift,
)
from .grassmann import (
    GradedMatrix,
    GrassmannElement,
    graded_mul_stacks,
    mul_stacks,
    node_blocks,
    scale_stack,
    sign_twist,
    soul_series,
    split_parities,
    split_theta,
    total_parities,
)
from .superfield import Grid, SuperField, SuperPoint, node_jets, taylor_stack_at

DEFAULT_STEPS = 400
_OVERLAP_SAMPLES, _OVERLAP_WIDTH, _OVERLAP_TOL = 16, 1e-2, 1e-9
_MONOTONE_SAMPLES = 33


@dataclass(frozen=True)
class TransportMap:
    """A fiber identification along a superpath: a graded matrix over the
    scalar algebra together with the endpoint it transports to."""

    matrix: GradedMatrix
    end: SuperPoint

    def __post_init__(self):
        if not np.isfinite(self.matrix.comps).all():
            raise DomainError("transport map is not finite")
        if not self.matrix.body_invertible():
            raise DomainError("transport map has a singular body")

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
    """Node stack of eps(C) C - Dm (D variant) or Dm - eps(C) C (Q variant)
    in the sign twist T of the rows.

    ``a`` and ``b`` hold C and Dm of a batch of problems as
    (nodes, 2**n, problems, r, r) stacks.  eps(C) C is a graded operator
    product and eps the total-parity involution; rows and columns share one
    split, so T(eps(C) C) = eps(T(C)) . T(C) is one plain product.
    """
    rows = split_parities(row_split)
    eps_sign = (1.0 - 2.0 * total_parities(n, row_split, row_split))[:, None, None]
    C, Dm = (sign_twist(n, s.swapaxes(0, 1), rows) for s in (a, b))
    epsC_C = mul_stacks(n, C * eps_sign, C)
    out = epsC_C - Dm if variant == "D" else Dm - epsC_C
    return np.ascontiguousarray(out.swapaxes(0, 1))


def solve_parallel(field: SuperField, end: SuperPoint, variant: str = "D") -> GradedMatrix:
    """Fundamental map of the parallel-section equation at an endpoint.

    The march runs from time 0 to body(end.t) on the field's grid, stepping
    two grid nodes at a time so that stage values are exact node samples;
    both times must therefore sit on even node offsets.  Returns a
    GradedMatrix mapping initial values to values at the endpoint; its
    ``apply`` transports a vector.

    The field must be odd, read from its data: no nonzero (or NaN) entry of
    C in an even total-parity slot, none of Dm in an odd one (ParityError).
    Fields assembled by the library are exact in this sense, so the batched
    march of :func:`adiabatic_sweep` skips this check.
    """
    odd = total_parities(field.n, field.row_split, field.col_split) == 1
    # each slot's entry of the half that must vanish there: Dm if odd, C if even
    if np.any(np.where(odd, field.b, field.a)):
        raise ParityError("coefficient field must be odd (theta part even) "
                          "for the parallel equation to be parity consistent")
    return _march([field], end, variant)[0]


def _march(fields: Sequence[SuperField], end: SuperPoint, variant: str) -> list[GradedMatrix]:
    """Fundamental maps at one endpoint for a batch of coefficient fields.

    Every field is checked as :func:`solve_parallel` checks one, parity
    aside, and the batch must share the grid, the algebra and the block
    splits.  The fields' stacks gain a problem axis right after the key
    axis and march in blocks of problems from :func:`node_blocks`, an item
    being one problem's (nodes, r, r) coefficient stack, which bound the dense
    temporaries of a block's march: its RK4 step maps (:func:`_step_maps`)
    and their product (:func:`_ordered_product`), whose ring products take
    all steps at once.  A non-finite product raises DomainError.
    """
    if variant not in ("D", "Q"):
        raise ValueError("variant must be 'D' or 'Q'")
    body = end.t.body
    for field in fields:
        if end.n != field.n:
            raise DimensionError("endpoint lives over a different algebra")
        grid = field.grid
        if not (grid.contains(0.0) and grid.contains(body)):
            raise DomainError(f"endpoint time {body} outside the coefficient grid")
        i0, i1 = grid.index_of(0.0), grid.index_of(body)
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
    starts = np.arange(i0, i1, direction)
    maps = np.empty((1 << n, len(fields), r, r))
    for blk in node_blocks(n, len(fields), r * r * grid.nodes):
        a = np.stack([f.a for f in fields[blk]], axis=2)
        b = np.stack([f.b for f in fields[blk]], axis=2)
        M = _reduced_matrix_stacks(n, a, b, first.row_split, variant)
        with np.errstate(over="ignore", invalid="ignore"):
            X = _ordered_product(n, _step_maps(n, M, starts, direction // 2, h))
            if not np.isfinite(X).all():
                raise DomainError("transport map is not finite")
        X = sign_twist(n, X + _taylor_endpoint(n, grid, M, X, i1, soul), rows)
        C_end = taylor_stack_at(grid, a, end.t)
        B_stack = -graded_mul_stacks(n, C_end, X, rows, rows)
        maps[:, blk] = X + scale_stack(n, end.theta.comps, B_stack, side="left")
    return [GradedMatrix(n, maps[:, k], first.row_split, first.col_split)
            for k in range(len(fields))]


def _plus_unit(r: int, stack: np.ndarray) -> np.ndarray:
    """stack + 1 for a stack of r x r matrices, in place: the unit matrix
    goes to the body key."""
    stack[0] += np.eye(r)
    return stack


def _step_maps(n: int, M: np.ndarray, starts: np.ndarray, half: int, h: float) -> np.ndarray:
    """The RK4 step maps P_k, X_{k+1} = P_k X_k, of X' = M X.

    ``M`` is the (nodes, 2**n, problems, r, r) node stack and step k runs
    from node starts[k] over starts[k] + half to starts[k] + 2 * half.  The
    stages k_i = A_i X give A_1 = M0, A_2 = Mh (1 + h/2 A_1),
    A_3 = Mh (1 + h/2 A_2), A_4 = M1 (1 + h A_3), and
    P = 1 + h/6 (A_1 + 2 A_2 + 2 A_3 + A_4), as (2**n, steps, problems, r, r).
    """
    r = M.shape[-1]
    M0, Mh, M1 = (M[starts + k * half].swapaxes(0, 1) for k in range(3))
    A2 = mul_stacks(n, Mh, _plus_unit(r, (h / 2.0) * M0))
    A3 = mul_stacks(n, Mh, _plus_unit(r, (h / 2.0) * A2))
    A4 = mul_stacks(n, M1, _plus_unit(r, h * A3))
    return _plus_unit(r, (h / 6.0) * (M0 + 2.0 * A2 + 2.0 * A3 + A4))


def _ordered_product(n: int, P: np.ndarray) -> np.ndarray:
    """P_{m-1} ... P_0 of a (2**n, m, problems, r, r) stack, the unit for m = 0.

    Neighbours multiply pairwise, the later factor on the left, one level
    per call of :func:`mul_stacks`; an odd last factor waits for the next
    level.  So m factors take ceil(log2 m) levels.
    """
    if not P.shape[1]:
        return _plus_unit(P.shape[-1], np.zeros(P.shape[:1] + P.shape[2:]))
    while P.shape[1] > 1:
        pairs = P.shape[1] // 2
        paired = mul_stacks(n, P[:, 1:2 * pairs:2], P[:, 0:2 * pairs:2])
        P = np.concatenate([paired, P[:, 2 * pairs:]], axis=1)
    return P[:, 0]


def _taylor_endpoint(n: int, grid: Grid, M: np.ndarray, X: np.ndarray, node: int,
                     soul: np.ndarray):
    """Soul tail of the fundamental solution's terminating Taylor series.

    Derivatives of the twisted solution come from X' = M X by the Leibniz
    recursion X^(k+1) = sum_j C(k,j) M^(j) X^(k-j) of plain products; those
    of M are read at the endpoint's node (:func:`node_jets`).  The soul is
    even, so it commutes with the twist.
    """
    x_derivs = [X]
    m_jets = node_jets(grid, M, node)
    m_at = []  # M^(j) at the node, each read once, when first needed

    def x_derivative(k: int) -> np.ndarray:
        # X^(k) = sum_{j=0}^{k-1} binom(k-1, j) M^(j)(t) X^(k-1-j); soul_series
        # asks for k = 1, 2, ... in turn, so M^(k-1) is the one new jet
        m_at.append(next(m_jets))
        acc = np.zeros_like(X)
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * mul_stacks(n, m_at[j], x_derivs[k - 1 - j])
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


def _transport(path: SuperPath, data, end: SuperPoint, steps: int, variant: str) -> TransportMap:
    """Transport from one `connection_coefficient` pass; Quillen data on its lift."""
    if isinstance(data, Superconnection):
        path, data = lift_problem(path, data)
    elif isinstance(data, Connection):
        data = TransportData(data)
    elif not isinstance(data, TransportData):
        raise TypeError(f"unsupported transport data {type(data).__name__}")
    grid = _solve_grid(path, end, steps)
    field = connection_coefficient(path, data.connection, grid, variant, data.endomorphism)
    return TransportMap(solve_parallel(field, end, variant), end)


def sp(path: SuperPath, sc, end: SuperPoint, steps: int = DEFAULT_STEPS) -> TransportMap:
    """Super parallel transport along the path up to the endpoint.

    ``sc`` may be a plain Connection (supermanifold targets allowed), a
    Superconnection over an ordinary target, or solver-level TransportData.
    Quillen data runs along the odd-tangent lift (:func:`lift_problem`).
    """
    return _transport(path, sc, end, steps, "D")


def ps(path: SuperPath, sc, end: SuperPoint, steps: int = DEFAULT_STEPS) -> TransportMap:
    """Q-variant transport along the given path.

    Accepts a Connection or TransportData; applied to the reversal of a path
    it produces the inverse of the forward transport.  For Quillen data use
    :func:`reverse_transport`, which runs on the odd-tangent lift.
    """
    if isinstance(sc, Superconnection):
        raise TypeError("Q transport of Quillen data runs on the odd tangent "
                        "bundle; use reverse_transport")
    return _transport(path, sc, end, steps, "Q")


def lift_problem(path: SuperPath, sc: Superconnection) -> tuple[SuperPath, TransportData]:
    """The odd-tangent-bundle version of a Quillen transport problem.

    Returns the lifted path into R^{p|p} with the pulled-back connection and
    the form part as an odd endomorphism: ``sc.odd_tangent``, built and
    checked with the superconnection and returned as it is.  Quillen data
    is transported on the lift, and substitutions of the R^{1|1} argument
    (gluing, reversal) act there, where the composition theorems apply exactly.
    """
    if not isinstance(sc, Superconnection):
        raise TypeError(f"only Quillen data lifts, not {type(sc).__name__}")
    return odd_tangent_lift(path), sc.odd_tangent


def reverse_transport(path: SuperPath, sc, end: SuperPoint,
                      steps: int = DEFAULT_STEPS) -> TransportMap:
    """Q-transport along the reversed path; inverts sp(path, sc, end).

    Plain connections reverse at the path level.  Quillen data is moved to
    the odd tangent bundle first (connection + odd endomorphism), where the
    reversal argument applies verbatim; the lifted path is reversed there.
    """
    if isinstance(sc, Superconnection):
        path, sc = lift_problem(path, sc)
    return ps(path.reversed_through(end), sc, end, steps)


# ---------------------------------------------------------------------------
# Path operations
# ---------------------------------------------------------------------------


def glue(path: SuperPath, path2: SuperPath, joint: SuperPoint) -> SuperPath:
    """Concatenate two paths whose germs match across the joint.

    ``path2`` must agree with ``path`` right-translated by the joint on an
    overlap around time 0; the returned path follows ``path`` below the
    joint time and the shifted ``path2`` above it, on the window
    [0, body(joint) + path2.t_end].
    """
    if (path.p, path.q, path.n) != (path2.p, path2.q, path2.n):
        raise DimensionError("glued paths have different targets")
    t_joint = joint.t.body
    eps = _OVERLAP_WIDTH * max(abs(t_joint) + abs(path2.t_end), 1.0)
    translated = path.translated(joint)
    us = np.linspace(-eps / 2, eps / 2, _OVERLAP_SAMPLES)
    worst = 0.0
    for c1, c2 in zip(translated.a + translated.b, path2.a + path2.b):
        worst = max(worst, float(np.max(np.abs(c1.sample(us) - c2.sample(us)))))
    if worst > _OVERLAP_TOL:
        raise CompatibilityError(f"paths differ by {worst} on the overlap")
    branch2 = path2.shifted_by_inverse(joint, t_joint + path2.t_end)
    return SuperPath.piecewise(path, branch2, t_joint, t_joint + path2.t_end)


def glued_endpoint(joint: SuperPoint, end2: SuperPoint) -> SuperPoint:
    """Endpoint of the glued path: the group product end2 * joint."""
    return end2.compose(joint)


def reparametrize(path: SuperPath, r: Curve, new_t_end: float) -> SuperPath:
    """Precompose with the distribution-preserving family (r(u), sqrt(r'(u)) eta).

    ``r`` must be strictly increasing on [0, new_t_end] (checked on samples)
    and is expected to fix 0.
    """
    us = np.linspace(0.0, new_t_end, _MONOTONE_SAMPLES)
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

    Each lambda marches conn - sqrt(lambda) endo, both fields assembled once
    on the lift; returns the entries (in order) and the limit map of conn.
    """
    for lam in lambdas:
        if not 0.0 < lam < math.inf:
            raise DomainError("sweep parameters must be positive and finite")
    lifted, data = lift_problem(path, sc)
    grid = _solve_grid(path, end, steps)
    conn_field = connection_coefficient(lifted, data.connection, grid, "D")
    endo_field = endomorphism_term(lifted, data.endomorphism, grid, data.rank)
    fields = [conn_field] + [conn_field + endo_field.scaled(-math.sqrt(lam)) for lam in lambdas]
    limit, *maps = (TransportMap(matrix, end) for matrix in _march(fields, end, "D"))
    return [SweepEntry(lam, m, m.distance(limit)) for lam, m in zip(lambdas, maps)], limit


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
    C0m = GradedMatrix(n - 1, -split_theta(n - 1, at_theta.matrix.comps)[1], *splits)
    plus = oracle(probe, SuperPoint.at(n, fd_step))
    minus = oracle(probe, SuperPoint.at(n, -fd_step))
    adot = (plus.matrix.comps - minus.matrix.comps) / (2.0 * fd_step)
    adot_m = GradedMatrix(n - 1, split_theta(n - 1, adot)[0], *splits)
    # a' = (eps(C) C - Dm) a with a(0) = 1, so Dm(0) = eps(C0) C0 - a'(0)
    Dm = C0m.parity_involution() @ C0m - adot_m
    return C0m, Dm


def recover(oracle: Callable[[SuperPath, SuperPoint], TransportMap],
            x0: Sequence[float], p: int, rank: tuple[int, int], n: int,
            degrees: Sequence[int] = (1, 0, 2), fd_step: float = 1e-4) -> RecoveredSuperconnection:
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
        return SuperPath(pb.p, pb.q, n, pb.a, pb.b, pb.t_end, 8 * fd_step)

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
