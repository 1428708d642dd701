"""Built-in identity suite: each check computes both sides of a structural
identity on seeded random instances and reports the residual.

Used by the command-line ``verify`` subcommand.  All randomness flows from
one seed so reports are reproducible; the seed is echoed in every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    SuperVectorField,
    Superconnection,
    chart_claim_residual,
    lift_pullback,
)
from .flows import flow_odd
from .grassmann import (
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    graded_expm,
    taylor_eval,
)
from .superfield import Grid, SuperField, SuperPoint
from .transport import (
    adiabatic_sweep,
    glue,
    glued_endpoint,
    lift_problem,
    reverse_transport,
    sp,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<34} residual={self.residual:.3e}  "
                f"tol={self.tolerance:.1e}  seed={self.seed}")

    def as_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "passed": self.passed, "seed": self.seed}


# -- random instance builders -------------------------------------------------


def random_element(rng, n: int, parity=None, scale: float = 1.0) -> GrassmannElement:
    comps = rng.uniform(-scale, scale, 1 << n)
    u = GrassmannElement(n, comps)
    if parity is Parity.EVEN:
        return u.even_part()
    if parity is Parity.ODD:
        return u.odd_part()
    return u


def random_block_matrix(rng, rank, parity: Parity, scale: float = 0.5) -> np.ndarray:
    re, ro = rank
    r = re + ro
    m = np.zeros((r, r))
    if parity is Parity.EVEN:
        m[:re, :re] = rng.uniform(-scale, scale, (re, re))
        m[re:, re:] = rng.uniform(-scale, scale, (ro, ro))
    else:
        m[:re, re:] = rng.uniform(-scale, scale, (re, ro))
        m[re:, :re] = rng.uniform(-scale, scale, (ro, re))
    return m


def random_connection(rng, p: int, rank, scale: float = 0.4) -> Connection:
    polys = []
    for _ in range(p):
        terms = {(0,) * p: random_block_matrix(rng, rank, Parity.EVEN, scale)}
        for i in range(p):
            expo = [0] * p
            expo[i] = 1
            terms[tuple(expo)] = random_block_matrix(rng, rank, Parity.EVEN, scale / 2)
        polys.append(PolyMap(p, terms))
    return Connection.from_matrix_polys(p, rank, polys)


def random_superconnection(rng, p: int, rank, scale: float = 0.4) -> Superconnection:
    conn = random_connection(rng, p, rank, scale)
    forms = [DifferentialForm(0, p, rank, Parity.ODD, {
        (): PolyMap(p, {(0,) * p: random_block_matrix(rng, rank, Parity.ODD, scale),
                        tuple(1 if i == 0 else 0 for i in range(p)):
                            random_block_matrix(rng, rank, Parity.ODD, scale / 2)})})]
    if p >= 2:
        comps = {}
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                comps[(i, j)] = PolyMap(p, {(0,) * p: random_block_matrix(rng, rank, Parity.ODD, scale)})
        forms.append(DifferentialForm(2, p, rank, Parity.ODD, comps))
    return Superconnection(conn, tuple(forms))


def random_path(rng, n: int, p: int, t_end: float = 1.0, scale: float = 0.5) -> SuperPath:
    even_coeffs = []
    theta_coeffs = []
    gens = [GrassmannElement.generator(n, i + 1) for i in range(n)]
    for i in range(p):
        soul = gens[0] * gens[1] * rng.uniform(-0.2, 0.2) if n >= 2 else GrassmannElement.zero(n)
        even_coeffs.append([
            GrassmannElement.scalar(n, rng.uniform(-scale, scale)),
            GrassmannElement.scalar(n, rng.uniform(-scale, scale)),
            GrassmannElement.scalar(n, rng.uniform(-scale / 2, scale / 2)) + soul,
        ])
        theta = gens[i % n] * rng.uniform(-scale, scale)
        if n >= 2:
            theta = theta + gens[(i + 1) % n] * rng.uniform(-scale / 2, scale / 2)
        theta_coeffs.append([theta, gens[(i + 1) % n] * rng.uniform(-scale / 2, scale / 2)])
    return SuperPath.from_polynomials(n, even_coeffs, theta_coeffs, t_end)


def random_polynomial_field(rng, n: int, rank=(1, 1), degree: int = 3,
                            grid: Grid | None = None) -> tuple[SuperField, SuperField]:
    """A polynomial-in-t superfield together with its exact time derivative."""
    grid = grid or Grid(0.0, 1e-2, 101)
    r = rank[0] + rank[1]
    ts = grid.times()
    dim = 1 << n
    coeff_a = rng.uniform(-1, 1, (degree + 1, dim, r, r))
    coeff_b = rng.uniform(-1, 1, (degree + 1, dim, r, r))
    powers = np.stack([ts ** k for k in range(degree + 1)])
    dpowers = np.stack([k * ts ** max(k - 1, 0) for k in range(degree + 1)])
    a = np.einsum("kt,kdrc->tdrc", powers, coeff_a)
    b = np.einsum("kt,kdrc->tdrc", powers, coeff_b)
    da = np.einsum("kt,kdrc->tdrc", dpowers, coeff_a)
    db = np.einsum("kt,kdrc->tdrc", dpowers, coeff_b)
    field = SuperField(grid, n, a, b, rank, rank)
    dfield = SuperField(grid, n, da, db, rank, rank)
    return field, dfield


def random_point(rng, n: int, body_range=(0.2, 1.0)) -> SuperPoint:
    t = GrassmannElement.scalar(n, rng.uniform(*body_range))
    if n >= 2:
        t = t + GrassmannElement.monomial(n, (1, 2), rng.uniform(-0.3, 0.3))
    theta = GrassmannElement.generator(n, 1) * rng.uniform(-0.8, 0.8)
    if n >= 2:
        theta = theta + GrassmannElement.generator(n, 2) * rng.uniform(-0.5, 0.5)
    return SuperPoint(t, theta)


# -- the checks ----------------------------------------------------------------


def run_suite(seed: int = 0, steps: int = 200, n: int = 2) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def add(name, residual, tol):
        results.append(CheckResult(name, float(residual), tol, seed))

    # 1/2: the odd derivations square to +/- d/dt on polynomial fields
    res_d = res_q = 0.0
    for _ in range(5):
        field, dfield = random_polynomial_field(rng, n)
        rd, rq = field.dd_identity_check(dt_reference=dfield)
        res_d = max(res_d, rd)
        res_q = max(res_q, rq)
    add("derivation_square_plus_dt", res_d, 1e-8)
    add("derivation_square_minus_dt", res_q, 1e-8)

    # 3: group associativity (dyadic coefficients, exact)
    res = 0.0
    for _ in range(100):
        pts = []
        for _ in range(3):
            t = GrassmannElement.scalar(n, rng.integers(-8, 8) / 4.0)
            if n >= 2:
                t = t + GrassmannElement.monomial(n, (1, 2), rng.integers(-8, 8) / 8.0)
            th = GrassmannElement.generator(n, 1) * (rng.integers(-8, 8) / 8.0)
            if n >= 2:
                th = th + GrassmannElement.generator(n, 2) * (rng.integers(-8, 8) / 8.0)
            pts.append(SuperPoint(t, th))
        lhs = (pts[0] * pts[1]) * pts[2]
        rhs = pts[0] * (pts[1] * pts[2])
        res = max(res, (lhs.t - rhs.t).norm(), (lhs.theta - rhs.theta).norm())
    add("group_associativity", res, 0.0)

    # 4: left and right inverses
    res = 0.0
    for _ in range(20):
        pt = random_point(rng, n)
        for q in (pt * pt.inverse(), pt.inverse() * pt):
            res = max(res, q.t.norm(), q.theta.norm())
    add("group_inverse", res, 1e-15)

    # 5: right translation commutes with the right-invariant derivation
    field, _ = random_polynomial_field(rng, n, grid=Grid(-0.5, 1e-2, 201))
    shift = SuperPoint(GrassmannElement.scalar(n, 0.3),
                       GrassmannElement.generator(n, 1) * 0.4)
    new_grid = Grid(0.0, 1e-2, 101)
    lhs = field.apply_derivation("D").right_translated(shift, new_grid)
    rhs = field.right_translated(shift, new_grid).apply_derivation("D")
    add("right_translation_invariance", lhs.distance(rhs), 1e-8)

    # 6: the inversion map intertwines the two derivations
    field2, _ = random_polynomial_field(rng, n, grid=Grid(-1.0, 1e-2, 201))
    inv_grid = Grid(-0.9, 1e-2, 181)
    lhs = field2.inverted(inv_grid).apply_derivation("D")
    rhs = field2.apply_derivation("Q").inverted(inv_grid).scaled(-1.0)
    add("inversion_intertwines_derivations", lhs.distance(rhs), 1e-8)

    # 7: chart claim: lifted 0-form pullback equals the direct pullback
    p = 2
    path = random_path(rng, n, p)
    fns = [PolyMap(p, {(1, 0): 1.0}), PolyMap(p, {(2, 1): 0.7, (0, 1): -0.4}),
           PolyMap(p, {(3, 0): rng.uniform(-1, 1), (1, 2): rng.uniform(-1, 1)})]
    add("chart_claim_zero_forms", chart_claim_residual(path, fns, [0.1, 0.45, 0.8]), 1e-12)

    # 8: the lift is an algebra map on a (1,1) pair of scalar forms
    grid = Grid(0.0, 5e-3, 201)
    w1 = DifferentialForm(1, p, (1, 0), Parity.EVEN,
                          {(1,): PolyMap(p, {(0, 0): np.eye(1), (1, 0): 0.5 * np.eye(1)}),
                           (2,): PolyMap(p, {(0, 1): 0.8 * np.eye(1)})})
    w2 = DifferentialForm(1, p, (1, 0), Parity.EVEN,
                          {(1,): PolyMap(p, {(0, 1): -0.6 * np.eye(1)}),
                           (2,): PolyMap(p, {(0, 0): np.eye(1)})})
    lhs = lift_pullback(path, w1.wedge(w2), grid)
    rhs = lift_pullback(path, w1, grid).matmul(lift_pullback(path, w2, grid))
    add("lift_is_algebra_map", lhs.distance(rhs), 1e-12)

    # 9: one-parameter family of exponentials is a homomorphism
    res = 0.0
    rank = (1, 1)
    for _ in range(5):
        A0 = random_block_matrix(rng, rank, Parity.ODD, 0.8)
        p1, p2 = random_point(rng, n), random_point(rng, n)
        lhs = _exp_point(n, rank, A0, p1) @ _exp_point(n, rank, A0, p2)
        rhs = _exp_point(n, rank, A0, p1 * p2)
        res = max(res, lhs.distance(rhs))
    add("exponential_family_homomorphism", res, 1e-12)

    # 10: graded exponential inverse
    res = 0.0
    for _ in range(5):
        M = GradedMatrix.from_real(n, random_block_matrix(rng, rank, Parity.EVEN, 1.0),
                                   rank, rank, Parity.EVEN)
        M = M + GradedMatrix.from_real(n, random_block_matrix(rng, rank, Parity.ODD, 1.0),
                                       rank, rank, Parity.ODD).scale_left(
            GrassmannElement.generator(n, 1))
        E = graded_expm(M)
        res = max(res, (E @ graded_expm(-M)).distance(GradedMatrix.identity(n, rank)))
    add("graded_exp_inverse", res, 1e-12)

    # 11: taylor evaluation is multiplicative
    res = 0.0
    for _ in range(5):
        f = PolyMap(1, {(k,): rng.uniform(-1, 1) for k in range(3)})
        g = PolyMap(1, {(k,): rng.uniform(-1, 1) for k in range(3)})
        x = random_element(rng, n, Parity.EVEN)
        lhs = taylor_eval(f * g, [x])
        rhs = taylor_eval(f, [x]) * taylor_eval(g, [x])
        res = max(res, (lhs - rhs).norm())
    add("taylor_multiplicative", res, 1e-12)

    # 12: point-case solver against the closed form
    conn0 = Connection.zero(0, 0, rank)
    A0 = random_block_matrix(rng, rank, Parity.ODD, 0.9)
    sc0 = Superconnection(conn0, (DifferentialForm.constant_form(0, 0, rank, Parity.ODD, {(): A0}),))
    pt_path = SuperPath(0, 0, n, [], [], 1.0)
    end = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 1))
    tm = sp(pt_path, sc0, end, steps=max(steps, 200))
    add("point_case_closed_form", tm.matrix.distance(_exp_point(n, rank, A0, end)), 1e-8)

    # 13: gluing (on the odd tangent bundle for Quillen data)
    sc = random_superconnection(rng, p, rank)
    base = random_path(rng, n, p, t_end=2.0)
    lifted, data = lift_problem(base, sc)
    joint = random_point(rng, n, body_range=(0.7, 1.1))
    seg2 = lifted.translated(joint, t_end=2.0 - joint.t.body)
    end2 = random_point(rng, n, body_range=(0.5, 2.0 - joint.t.body))
    glued = glue(lifted, seg2, joint)
    lhs = sp(glued, data, glued_endpoint(joint, end2), steps=2 * steps)
    rhs = sp(seg2, data, end2, steps=steps).compose(sp(lifted, data, joint, steps=steps))
    add("transport_gluing", lhs.distance(rhs), 1e-7)

    # 14: reversal inverts transport
    fwd = sp(base, sc, joint, steps=steps)
    back = reverse_transport(base, sc, joint, steps=steps)
    add("transport_reversal",
        back.compose(fwd).matrix.distance(GradedMatrix.identity(n, rank)), 1e-7)

    # 15: reparametrization invariance for plain connections
    conn = random_connection(rng, p, rank)
    endT = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 1) * 0.6)
    base1 = random_path(rng, n, p, t_end=1.0)
    m0 = sp(base1, conn, endT, steps=steps)
    rcurve = Curve.polynomial(n, [0.0, 0.5, 0.25, 0.25])
    theta_scaled = endT.theta * (1.0 / math.sqrt(1.75))
    m1 = sp(base1.reparametrized(rcurve, 1.0), conn,
            SuperPoint(endT.t, theta_scaled), steps=steps)
    add("reparametrization_invariance", m0.distance(m1), 1e-7)

    # 16: adiabatic convergence to the plain connection
    sweep_path = random_path(rng, n, p)
    entries, _ = adiabatic_sweep(sweep_path, sc, [1.0, 0.5, 0.25, 0.125], endT, steps=steps)
    dists = [e.distance_to_limit for e in entries]
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    ratios = [dists[k] / dists[k + 1] for k in range(len(dists) - 1)]
    ratio_ok = all(1.2 <= q <= 1.7 for q in ratios)
    add("adiabatic_limit", 0.0 if (monotone and ratio_ok) else max(ratios, default=1.0), 1e-12)

    # 17: odd flow of the right-invariant derivation analog is the group law
    a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)})
    a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
    D_field = SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])
    res = 0.0
    for _ in range(5):
        x0 = GrassmannElement.scalar(n, rng.integers(-8, 8) / 8.0)
        z0 = GrassmannElement.generator(n, 1) * (rng.integers(-8, 8) / 8.0)
        endf = SuperPoint(GrassmannElement.scalar(n, 1.0),
                          GrassmannElement.generator(n, 2) * (rng.integers(-8, 8) / 8.0))
        out = flow_odd(D_field, [x0, z0], endf, steps=128)
        exp_x = endf.t + x0 + endf.theta * z0
        exp_z = endf.theta + z0
        res = max(res, (out[0] - exp_x).norm(), (out[1] - exp_z).norm())
    add("odd_flow_group_law", res, 1e-12)

    return results


def _exp_point(n: int, rank, A0: np.ndarray, pt: SuperPoint) -> GradedMatrix:
    """exp(-t A^2 + theta A) over the scalar algebra."""
    A = GradedMatrix.from_real(n, A0, rank, rank, Parity.ODD)
    A2 = GradedMatrix.from_real(n, A0 @ A0, rank, rank, Parity.EVEN)
    M = A2.scale_left(-pt.t) + A.scale_left(pt.theta)
    return graded_expm(M)
