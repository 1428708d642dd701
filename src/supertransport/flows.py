"""Integration of even and odd vector fields on R^{p|q}.

Even fields integrate with a classical fixed-step fourth-order scheme run
directly in Grassmann arithmetic.  Odd fields reduce to an even problem: if
the flow of X is written G(t) + theta*H(t), the constraint fixes H = a(G),
and G is the flow of the even field Y = X^2 = (1/2)[X, X], integrated by the
same scheme.  Theta is adjoined as an extra Grassmann generator only in the
residual check, which compares the defining equation of the odd flow along
G + theta*a(G) independently of Y.
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


def _integrate(field: SuperVectorField, state0: np.ndarray, t_end: float,
               steps: int) -> tuple[np.ndarray, np.ndarray]:
    # unchecked stages: they keep the parities _check_init found on entry
    if steps < 2:
        raise ResolutionError("flow integration needs at least 2 steps")

    def rhs(y: np.ndarray) -> np.ndarray:
        out = np.stack([c._values(y[:, :, None])[:, 0] for c in field.coeffs])
        if float(np.max(np.abs(out))) > _BLOWUP or not np.all(np.isfinite(out)):
            raise DomainError("flow blew up or left the admissible domain")
        return out

    h = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    out = np.empty((steps + 1,) + state0.shape)
    out[0] = state0
    y = state0
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + (h / 2) * k1)
        k3 = rhs(y + (h / 2) * k2)
        k4 = rhs(y + h * k3)
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
    times, states = _integrate(field, state0, t_end, steps)
    return Trajectory(times, states, n)


def flow_odd(field: SuperVectorField, init: list[GrassmannElement], end: SuperPoint,
             steps: int) -> list[GrassmannElement]:
    """Flow of an odd vector field evaluated at an S-point (t, theta).

    Returns G(t) + theta*a(G(t)) with G the flow of the even field
    Y = X^2; a soul in the time coordinate is handled by the terminating
    Taylor series, whose k-th derivative is (Y^k x)(G).
    """
    if field.parity is not Parity.ODD:
        raise ParityError("flow_odd integrates odd vector fields")
    n = init[0].n if init else end.n
    _check_init(field, init, n)
    if end.n != n:
        raise ParityError("endpoint lives over a different algebra")
    state0 = np.stack([x.comps for x in init])
    body = end.t.body

    Y = field.squared()
    if body == 0.0:
        G_end = state0
    else:
        _, states = _integrate(Y, state0, body, steps)
        G_end = states[-1]

    soul = end.t.soul().comps
    if np.any(soul):
        # G' = (Y x)(G), so the k-th derivative at the body time is (Y^k x)(G)
        jets = [Y.coeffs]

        def derivative(k: int) -> np.ndarray:
            if k > 1:
                jets.append([Y.apply(f) for f in jets[-1]])
            return np.stack([f.value_stack(G_end[:, :, None])[:, 0] for f in jets[-1]],
                            axis=1)[:, :, None]

        G_end = G_end + soul_series(n, soul, derivative)[:, :, 0].T

    G = [GrassmannElement(n, G_end[i]) for i in range(G_end.shape[0])]
    H = field.coefficient_values(G)
    return [g + end.theta * h for g, h in zip(G, H)]


def flow_odd_residual(field: SuperVectorField, init: list[GrassmannElement],
                      t_end: float, steps: int) -> float:
    """Residual of the defining equation of the odd flow along the solution.

    Samples the flow alpha = G + theta*H on its grid (G the flow of X^2),
    applies the odd derivation to the coordinates, and compares with the
    coefficients of X itself evaluated along alpha (theta adjoined as a
    generator).  Time derivatives of G use the same fourth-order stencils as
    the field calculus.
    """
    from .superfield import fd4_stack

    if field.parity is not Parity.ODD:
        raise ParityError("residual check applies to odd vector fields")
    n = init[0].n
    _check_init(field, init, n)
    state0 = np.stack([x.comps for x in init])
    Y = field.squared()
    times, G_states = _integrate(Y, state0, t_end, steps)
    G = np.moveaxis(G_states, 0, 2)
    Gdot = np.moveaxis(fd4_stack(G_states, times[1] - times[0]), 0, 2)

    H = field.coefficient_stack(G).swapaxes(0, 1)
    alpha = adjoin_theta(n, G.swapaxes(0, 1), H).swapaxes(0, 1)
    a_part, b_part = split_theta(n, field.coefficient_stack(alpha).swapaxes(0, 1))
    # D(alpha^i) = H^i + theta * dG^i/dt must equal a_i(alpha)
    return max(float(np.max(np.abs(a_part - H))),
               float(np.max(np.abs(b_part - Gdot.swapaxes(0, 1)))))
