"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Everything is seeded and runs at desk scale.
"""

import math

import numpy as np
import pytest

from supertransport.flows import flow_even, flow_odd
from supertransport.geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    SuperVectorField,
    Superconnection,
    superconnection_coefficient,
)
from supertransport.grassmann import (
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    graded_expm,
)
from supertransport.superfield import Grid, SuperPoint
from supertransport.transport import (
    adiabatic_sweep,
    glue,
    glued_endpoint,
    lift_problem,
    recover,
    reparametrize,
    reverse_transport,
    solve_parallel,
    sp,
)
from supertransport.verify import (
    random_connection,
    random_path,
    random_point,
    random_polynomial_field,
    random_superconnection,
)

from reference import flow_oracle, solution_matrix_to_stack, transport_oracle

G = GrassmannElement


def report(num, name, value, tol, kind="residual"):
    print(f"ACCEPTANCE {num:02d} {name}: {kind}={value:.3e} (tol {tol:.1e}) PASS")


def rand_odd_matrix(rng, rank, scale=0.8):
    re, ro = rank
    m = np.zeros((re + ro, re + ro))
    m[:re, re:] = rng.uniform(-scale, scale, (re, ro))
    m[re:, :re] = rng.uniform(-scale, scale, (ro, re))
    # normalize so truncation errors sit well above the rounding floor
    return m * (rng.uniform(0.7, 1.1) / np.linalg.norm(m, 2))


def exp_closed_form(n, rank, A0, end):
    A = GradedMatrix.from_real(n, A0, rank, rank, Parity.ODD)
    A2 = GradedMatrix.from_real(n, A0 @ A0, rank, rank, Parity.EVEN)
    return graded_expm(A2.scale_left(-end.t) + A.scale_left(end.theta))


def point_problem(n, rank, A0):
    conn = Connection.zero(0, 0, rank)
    form = DifferentialForm.constant_form(0, 0, rank, Parity.ODD, {(): A0})
    return SuperPath(0, 0, n, [], [], 1.0), Superconnection(conn, (form,))


CRIT1_INSTANCES = []


def test_criterion_01_closed_form_reproduction():
    """Solver endpoint vs exp(-t A^2 + theta A) for random odd A, h = 1e-3."""
    rng = np.random.default_rng(1)
    n = 2
    end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
    worst = 0.0
    for k in range(10):
        rank = (1, 1) if k % 2 == 0 else (2, 2)
        A0 = rand_odd_matrix(rng, rank)
        path, sc = point_problem(n, rank, A0)
        tm = sp(path, sc, end, steps=1000)  # h = 1e-3
        closed = exp_closed_form(n, rank, A0, end)
        worst = max(worst, tm.matrix.distance(closed))
        CRIT1_INSTANCES.append((rank, A0))
    assert worst <= 1e-8
    report(1, "closed-form reproduction", worst, 1e-8)


def test_criterion_02_supergroup_homomorphism():
    """exp(-tA^2+thA) exp(-t'A^2+th'A) = exp at the group product, 1e-12."""
    rng = np.random.default_rng(2)
    n = 2
    rank = (1, 1)
    worst = 0.0
    for _ in range(10):
        A0 = rand_odd_matrix(rng, rank)
        p1 = random_point(rng, n, body_range=(0.1, 0.9))
        p2 = random_point(rng, n, body_range=(0.1, 0.9))
        lhs = exp_closed_form(n, rank, A0, p1) @ exp_closed_form(n, rank, A0, p2)
        rhs = exp_closed_form(n, rank, A0, p1 * p2)
        worst = max(worst, lhs.distance(rhs))
    assert worst <= 1e-12
    report(2, "supergroup homomorphism", worst, 1e-12)


def test_criterion_03_derivation_identities():
    """DD = dt and QQ = -dt on 20 random polynomial fields, 1e-8."""
    rng = np.random.default_rng(3)
    n = 2
    worst = 0.0
    for _ in range(20):
        field, dfield = random_polynomial_field(rng, n, grid=Grid(0.0, 1e-2, 101))
        rd, rq = field.dd_identity_check(dt_reference=dfield)
        worst = max(worst, rd, rq)
    assert worst <= 1e-8
    report(3, "derivation identities", worst, 1e-8)


def test_criterion_04_flow_correctness():
    """Odd flow of the analog field is the group law (exact); the theta = 0
    restriction follows the flow of the squared field to 1e-7."""
    rng = np.random.default_rng(4)
    n = 3
    a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)})
    a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
    D_field = SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])
    worst_exact = 0.0
    for _ in range(10):
        x0 = G.scalar(n, rng.integers(-8, 8) / 8.0)
        z0 = (G.generator(n, 1) * (rng.integers(-8, 8) / 8.0)
              + G.generator(n, 3) * (rng.integers(-8, 8) / 8.0))
        t = G.scalar(n, 1.0) + G.monomial(n, (1, 3), rng.integers(-4, 4) / 8.0)
        end = SuperPoint(t, G.generator(n, 2) * (rng.integers(-8, 8) / 8.0))
        out = flow_odd(D_field, [x0, z0], end, steps=128)
        want_x = end.t + x0 + end.theta * z0
        want_z = end.theta + z0
        worst_exact = max(worst_exact, (out[0] - want_x).norm(), (out[1] - want_z).norm())
    assert worst_exact == 0.0

    worst_sq = 0.0
    for _ in range(5):
        g = PolyMap(1, {(0,): rng.uniform(-0.5, 0.5), (1,): rng.uniform(-0.5, 0.5),
                        (2,): rng.uniform(-0.3, 0.3)})
        X = SuperVectorField(1, 1, Parity.ODD,
                             [GrassmannPoly(1, 1, {(0,): g}),
                              GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})])
        init = [G.from_terms(n, {(): rng.uniform(-0.5, 0.5), (1, 2): rng.uniform(-0.2, 0.2)}),
                G.generator(n, 1) * rng.uniform(-0.7, 0.7)]
        out0 = flow_odd(X, init, SuperPoint.at(n, 1.0), steps=256)
        ref = flow_even(X.squared(), init, 1.0, 256).state(-1)
        worst_sq = max(worst_sq, max((u - v).norm() for u, v in zip(out0, ref)))
    assert worst_sq <= 1e-7
    report(4, "flow correctness (group law exact; square)", worst_sq, 1e-7)


def test_criterion_05_oracle_equivalence():
    """Graded-arithmetic solves vs full real-component expansion, 1e-9."""
    rng = np.random.default_rng(5)
    worst_solve = 0.0
    for k in range(5):
        n = 2 if k % 2 == 0 else 3
        rank = (1, 1) if k < 3 else (2, 2)
        sc = random_superconnection(rng, 2, rank)
        path = random_path(rng, n, 2)
        grid = Grid(0.0, 2.5e-3, 401)
        field = superconnection_coefficient(path, sc, grid, "D")
        got = solve_parallel(field, SuperPoint.at(n, 1.0))
        flat = transport_oracle(field, 1.0)
        want = solution_matrix_to_stack(flat, n, sum(rank))
        worst_solve = max(worst_solve, float(np.max(np.abs(got.comps - want))))
    assert worst_solve <= 1e-9

    worst_flow = 0.0
    for k in range(5):
        n = 3
        X = SuperVectorField(2, 1, Parity.EVEN, [
            GrassmannPoly(2, 1, {(): PolyMap(2, {(0, 0): rng.uniform(-0.4, 0.4),
                                                 (1, 0): rng.uniform(-0.4, 0.4),
                                                 (0, 1): rng.uniform(-0.4, 0.4)})}),
            GrassmannPoly(2, 1, {(): PolyMap(2, {(0, 0): rng.uniform(-0.4, 0.4),
                                                 (0, 1): rng.uniform(-0.4, 0.4)})}),
            GrassmannPoly(2, 1, {(0,): PolyMap(2, {(1, 0): rng.uniform(-0.6, 0.6)})}),
        ])
        init = [G.from_terms(n, {(): rng.uniform(-0.5, 0.5), (1, 2): rng.uniform(-0.3, 0.3)}),
                G.from_terms(n, {(): rng.uniform(-0.5, 0.5), (2, 3): rng.uniform(-0.3, 0.3)}),
                G.generator(n, 1) * rng.uniform(-0.8, 0.8)]
        got = np.stack([v.comps for v in flow_even(X, init, 1.0, 400).state(-1)])
        want = flow_oracle(X, np.stack([v.comps for v in init]), 1.0, n)
        worst_flow = max(worst_flow, float(np.max(np.abs(got - want))))
    assert worst_flow <= 1e-9
    report(5, "oracle equivalence (solve, flow)", max(worst_solve, worst_flow), 1e-9)


def test_criterion_06_gluing():
    """Composite vs product transport on 10 random split paths, 1e-7."""
    rng = np.random.default_rng(6)
    n = 2
    worst = 0.0
    for _ in range(10):
        sc = random_superconnection(rng, 2, (1, 1))
        base = random_path(rng, n, 2, t_end=2.0)
        lifted, data = lift_problem(base, sc)
        joint = random_point(rng, n, body_range=(0.6, 1.2))
        seg2 = lifted.translated(joint, t_end=2.0 - joint.t.body)
        glued = glue(lifted, seg2, joint)
        end2 = random_point(rng, n, body_range=(0.3, 0.75))
        lhs = sp(glued, data, glued_endpoint(joint, end2), steps=200)
        rhs = sp(seg2, data, end2, steps=100).compose(sp(lifted, data, joint, steps=100))
        worst = max(worst, lhs.distance(rhs))
    assert worst <= 1e-7
    report(6, "gluing", worst, 1e-7)


def test_criterion_07_inverse():
    """Reversed transport inverts the forward one on 10 random instances."""
    rng = np.random.default_rng(7)
    n = 2
    I = GradedMatrix.identity(n, (1, 1))
    worst = 0.0
    for k in range(10):
        if k % 2 == 0:
            data = random_superconnection(rng, 2, (1, 1))
        else:
            data = random_connection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = random_point(rng, n)
        fwd = sp(path, data, end, steps=150)
        back = reverse_transport(path, data, end, steps=150)
        worst = max(worst, back.compose(fwd).matrix.distance(I))
    assert worst <= 1e-7
    report(7, "inverse", worst, 1e-7)


def test_criterion_08_reparametrization():
    """Plain-connection transport invariant under reparametrizations, 1e-7."""
    rng = np.random.default_rng(8)
    n = 2
    worst = 0.0
    for k in range(5):
        conn = random_connection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * rng.uniform(-0.8, 0.8))
        base = sp(path, conn, end, steps=200)
        # random increasing cubic fixing 0 and 1
        c2 = rng.uniform(-0.3, 0.3)
        c3 = rng.uniform(0.0, 0.3)
        c1 = 1.0 - c2 - c3
        r = Curve.polynomial(n, [0.0, c1, c2, c3])
        newp = reparametrize(path, r, 1.0)
        rp1 = c1 + 2 * c2 + 3 * c3
        end_r = SuperPoint(end.t, end.theta * (1.0 / math.sqrt(rp1)))
        m1 = sp(newp, conn, end_r, steps=200)
        worst = max(worst, base.distance(m1))
        # rescaling family
        lam = float(rng.uniform(0.5, 4.0))
        scaled = reparametrize(path, Curve.polynomial(n, [0.0, 1.0 / lam]), lam)
        end_l = SuperPoint(end.t * lam, end.theta * math.sqrt(lam))
        m2 = sp(scaled, conn, end_l, steps=200)
        worst = max(worst, base.distance(m2))
    assert worst <= 1e-7
    report(8, "reparametrization", worst, 1e-7)


def test_criterion_09_adiabatic_limit():
    """Distance to the plain-connection transport decays like sqrt(lambda)."""
    rng = np.random.default_rng(9)
    n = 2
    lambdas = [2.0 ** -k for k in range(7)]  # 1 .. 1/64
    worst_ratio_lo, worst_ratio_hi = math.inf, 0.0
    for _ in range(5):
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.5)
        entries, _ = adiabatic_sweep(path, sc, lambdas, end, steps=150)
        dists = [e.distance_to_limit for e in entries]
        assert all(a > b for a, b in zip(dists, dists[1:])), "not monotone"
        ratios = [dists[k] / dists[k + 1] for k in range(len(dists) - 1)]
        worst_ratio_lo = min(worst_ratio_lo, min(ratios))
        worst_ratio_hi = max(worst_ratio_hi, max(ratios))
    assert 1.2 <= worst_ratio_lo and worst_ratio_hi <= 1.7
    print(f"ACCEPTANCE 09 adiabatic limit: ratios in [{worst_ratio_lo:.3f}, "
          f"{worst_ratio_hi:.3f}] within [1.2, 1.7], monotone PASS")


def test_criterion_10_recovery():
    """Round-trip recovery of (a, A0, A2) to 1e-4; distinct data separates."""
    rng = np.random.default_rng(10)
    n = 3
    p = 3
    worst = 0.0
    for _ in range(5):
        sc = random_superconnection(rng, p, (1, 1))
        x0 = list(rng.uniform(-0.5, 0.5, p))

        def oracle(path, end, sc=sc):
            return sp(path, sc, end, steps=8)

        rec = recover(oracle, x0, p, (1, 1), n)
        for i in range(p):
            want = sc.connection.coeffs[i].terms[()].value(x0)
            worst = max(worst, float(np.abs(rec.connection[i] - want).max()))
        worst = max(worst, float(np.abs(rec.form0 - sc.forms[0].components[()].value(x0)).max()))
        for key, got in rec.form2.items():
            want2 = (sc.forms[1].components[key].value(x0)
                     if key in sc.forms[1].components else np.zeros((2, 2)))
            worst = max(worst, float(np.abs(got - want2).max()))
    assert worst <= 1e-4

    # injectivity probe: one coefficient perturbed by >= 1e-2 separates
    separated = 0
    for _ in range(20):
        sc = random_superconnection(rng, 2, (1, 1))
        delta = np.zeros((2, 2))
        which = rng.integers(0, 2)
        if which == 0:
            delta[0, 1] = 1e-2 * rng.choice([-1.5, 1.5])
        else:
            delta[1, 0] = 1e-2 * rng.choice([-2.0, 2.0])
        comp = dict(sc.forms[0].components)
        comp[()] = comp[()] + PolyMap.constant(2, delta)
        other = Superconnection(sc.connection,
                                (DifferentialForm(0, 2, (1, 1), Parity.ODD, comp),)
                                + sc.forms[1:])
        x0 = [0.1, -0.1]

        def o1(path, end, sc=sc):
            return sp(path, sc, end, steps=8)

        def o2(path, end, sc=other):
            return sp(path, sc, end, steps=8)

        r1 = recover(o1, x0, 2, (1, 1), n)
        r2 = recover(o2, x0, 2, (1, 1), n)
        if float(np.abs(r1.form0 - r2.form0).max()) > 5e-3:
            separated += 1
    assert separated == 20
    report(10, "recovery round-trip + injectivity", worst, 1e-4)


def test_criterion_11_solver_order():
    """Fourth-order convergence: halving h cuts the error by 16 +- 3."""
    if not CRIT1_INSTANCES:
        test_criterion_01_closed_form_reproduction()
    n = 2
    end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
    ratios = []
    for rank, A0 in CRIT1_INSTANCES:
        path, sc = point_problem(n, rank, A0)
        closed = exp_closed_form(n, rank, A0, end)
        errs = [sp(path, sc, end, steps=s).matrix.distance(closed) for s in (10, 20)]
        if errs[0] < 1e-11:
            continue  # truncation already at the rounding floor; unmeasurable
        ratios.append(errs[0] / errs[1])
    assert len(ratios) >= 3
    assert all(13.0 <= q <= 19.0 for q in ratios), ratios
    print(f"ACCEPTANCE 11 solver order: h-halving ratios "
          f"{[f'{q:.1f}' for q in ratios]} within 16 +- 3 PASS")
