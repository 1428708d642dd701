"""Integration of even and odd vector fields on R^{p|q}.

Even fields integrate with a classical fixed-step fourth-order scheme run
directly in Grassmann arithmetic.  Odd fields reduce to an even problem: if
the flow is written G(t) + theta*H(t), the constraint fixes H = a(G) and the
time derivative of G is the theta-component of a(G + theta*H), which the
integrator extracts by adjoining theta as one extra Grassmann generator at
every stage.  Restricted to theta = 0 this reproduces the flow of the even
field X^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParityError, ResolutionError
from .geometry import SuperVectorField
from .grassmann import (
    GrassmannElement,
    Parity,
    adjoin_theta,
    node_blocks,
    soul_series,
    split_theta,
)
from .superfield import SuperPoint

_BLOWUP = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Sampled integral curve: times[k] and one Grassmann value per coordinate."""

    times: np.ndarray
    states: np.ndarray  # shape (nodes, ncoords, 2**n)
    n: int

    def state(self, k: int) -> list[GrassmannElement]:
        return [GrassmannElement(self.n, self.states[k, i].copy())
                for i in range(self.states.shape[1])]

    def final(self) -> list[GrassmannElement]:
        return self.state(len(self.times) - 1)

    def to_csv(self, path: str):
        """One column per (coordinate, Grassmann key), keys as index strings."""
        from .grassmann import indices_from_key

        ncoords = self.states.shape[1]
        dim = self.states.shape[2]
        header = ["t"]
        for i in range(ncoords):
            for key in range(dim):
                idx = "|".join(str(j) for j in indices_from_key(key))
                header.append(f"x{i + 1}[{idx}]")
        rows = np.column_stack([self.times, self.states.reshape(len(self.times), -1)])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _check_init(field: SuperVectorField, init: list[GrassmannElement], n: int):
    if len(init) != field.p + field.q:
        raise ParityError(f"initial point needs {field.p + field.q} coordinates")
    for i, x in enumerate(init):
        if x.n != n:
            raise ParityError("initial coordinates live over different algebras")
        if i < field.p and not x.is_even():
            raise ParityError(f"even coordinate {i} has an odd initial value")
        if i >= field.p and not x.is_odd():
            raise ParityError(f"odd coordinate {i} has an even initial value")


def _rhs_even(field: SuperVectorField, state: np.ndarray, n: int) -> np.ndarray:
    out = field.coefficient_stack(state[:, :, None])[:, :, 0]
    if float(np.max(np.abs(out))) > _BLOWUP or not np.all(np.isfinite(out)):
        raise DomainError("flow blew up or left the admissible domain")
    return out


def _integrate(rhs, state0: np.ndarray, t_end: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    if steps < 2:
        raise ResolutionError("flow integration needs at least 2 steps")
    h = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    out = np.empty((steps + 1,) + state0.shape)
    out[0] = state0
    y = state0
    for k in range(steps):
        t = times[k]
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return times, out


def flow_even(field: SuperVectorField, init: list[GrassmannElement], t_end: float,
              steps: int) -> Trajectory:
    """Integral curve of an even vector field from a graded initial point."""
    if field.parity is not Parity.EVEN:
        raise ParityError("flow_even integrates even vector fields")
    n = init[0].n if init else 0
    _check_init(field, init, n)
    state0 = np.stack([x.comps for x in init])
    times, states = _integrate(lambda t, y: _rhs_even(field, y, n), state0, t_end, steps)
    return Trajectory(times, states, n)


def _adjoined(n: int, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    # the coordinates G^i + theta*H^i, theta adjoined as generator n+1;
    # (ncoords, 2**n, nodes) columns in, (ncoords, 2**(n+1), nodes) out
    return np.stack([adjoin_theta(n, g, h) for g, h in zip(G, H)])


def _odd_rhs(field: SuperVectorField, state: np.ndarray, n: int) -> np.ndarray:
    """theta-component of a(G + theta*a(G)), theta adjoined as generator n+1."""
    coords = state[:, :, None]
    coords_hat = _adjoined(n, coords, field.coefficient_stack(coords))
    # the theta-free part of each value is a_i(G) = H^i by construction
    out = np.stack([split_theta(n, v[:, 0])[1] for v in field.coefficient_stack(coords_hat)])
    if float(np.max(np.abs(out))) > _BLOWUP or not np.all(np.isfinite(out)):
        raise DomainError("flow blew up or left the admissible domain")
    return out


def flow_odd(field: SuperVectorField, init: list[GrassmannElement], end: SuperPoint,
             steps: int) -> list[GrassmannElement]:
    """Flow of an odd vector field evaluated at an S-point (t, theta).

    Returns G(t) + theta*a(G(t)) with G the solution of the induced even
    system; a soul in the time coordinate is handled by the terminating
    Taylor series, whose k-th derivative is (Y^k x)(G) with Y = X^2.
    """
    if field.parity is not Parity.ODD:
        raise ParityError("flow_odd integrates odd vector fields")
    n = init[0].n if init else end.n
    _check_init(field, init, n)
    if end.n != n:
        raise ParityError("endpoint lives over a different algebra")
    state0 = np.stack([x.comps for x in init])
    body = end.t.body

    rhs = lambda t, y: _odd_rhs(field, y, n)
    if body == 0.0:
        G_end = state0
    else:
        _, states = _integrate(rhs, state0, body, steps)
        G_end = states[-1]

    soul = end.t.soul().comps
    if np.any(soul):
        # G' = (Y x)(G) for the even field Y = X^2, so the k-th derivative
        # at the body time is (Y^k x)(G).  The first is the right-hand side
        # itself, which also takes family-valued coefficients; Y is built
        # only when a higher one is asked for.
        G_body = G_end[:, :, None]

        def higher_jets():
            Y = field.squared()
            fs = Y.coeffs
            while True:
                fs = [Y.apply(f) for f in fs]
                yield fs

        jets = higher_jets()

        def derivative(k: int) -> np.ndarray:
            if k == 1:
                return rhs(body, G_end).T[:, :, None]
            return np.stack([f.value_stack(G_body)[:, 0] for f in next(jets)], axis=1)[:, :, None]

        G_end = G_end + soul_series(n, soul, derivative)[:, :, 0].T

    G = [GrassmannElement(n, G_end[i]) for i in range(G_end.shape[0])]
    H = field.coefficient_values(G)
    return [g + end.theta * h for g, h in zip(G, H)]


def flow_odd_residual(field: SuperVectorField, init: list[GrassmannElement],
                      t_end: float, steps: int) -> float:
    """Residual of the defining equation of the odd flow along the solution.

    Samples the flow alpha = G + theta*H on its grid, applies the odd
    derivation to the coordinates, and compares with the field coefficients
    evaluated along alpha (theta adjoined as a generator).  Time derivatives
    of G use the same fourth-order stencils as the field calculus.
    """
    from .superfield import fd4_stack

    if field.parity is not Parity.ODD:
        raise ParityError("residual check applies to odd vector fields")
    n = init[0].n
    _check_init(field, init, n)
    state0 = np.stack([x.comps for x in init])
    times, G_states = _integrate(lambda t, y: _odd_rhs(field, y, n), state0, t_end, steps)
    G = np.moveaxis(G_states, 0, 2)
    Gdot = np.moveaxis(fd4_stack(G_states, times[1] - times[0]), 0, 2)

    res = 0.0
    for blk in node_blocks(n + 1, len(times)):
        H = field.coefficient_stack(G[:, :, blk])
        for i, value in enumerate(field.coefficient_stack(_adjoined(n, G[:, :, blk], H))):
            a_part, b_part = split_theta(n, value)
            # D(alpha^i) = H^i + theta * dG^i/dt must equal a_i(alpha)
            res = max(res, float(np.max(np.abs(a_part - H[i]))),
                      float(np.max(np.abs(b_part - Gdot[i, :, blk]))))
    return res
