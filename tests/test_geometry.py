"""Curves, superpaths, pullback assembly, forms, vector fields."""

import numpy as np
import pytest

from supertransport.errors import CapabilityError, DegreeError, DimensionError, ParityError
from supertransport.geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    SuperVectorField,
    Superconnection,
    chart_claim_residual,
    connection_coefficient,
    endomorphism_term,
    lift_pullback,
    odd_tangent_data,
    odd_tangent_lift,
    superconnection_coefficient,
)
from supertransport.grassmann import AlgebraMap, GrassmannElement, Parity, PolyMap, SmoothMap
from supertransport.superfield import Grid, SuperPoint

from reference import (
    SymbolicFieldEvaluator,
    from_element,
    gadd,
    gmul,
    substituted_oracle,
    to_components,
)


G = GrassmannElement


class TestCurve:
    def test_polynomial_and_derivatives(self):
        c = Curve.polynomial(2, [1.0, 0.0, 1.0])
        assert c(2.0).body == 5.0
        assert c.derivative()(2.0).body == 4.0
        assert c.derivative().derivative()(2.0).body == 2.0

    def test_eval_grassmann(self):
        c = Curve.polynomial(2, [1.0, 0.0, 1.0])
        t = G.from_terms(2, {(): 2.0, (1, 2): 0.5})
        v = c.eval_grassmann(t)
        assert abs(v.body - 5.0) < 1e-14 and abs(v.comps[3] - 2.0) < 1e-12

    def test_harmonic_derivative_cycle(self):
        c = Curve.harmonic(2, 2.0, 3.0, 0.4, offset=1.0, kind="cos")
        d = c.derivative()
        t = 0.7
        assert abs(d(t).body + 2.0 * 3.0 * np.sin(3.0 * t + 0.4)) < 1e-12
        dd = d.derivative()
        assert abs(dd(t).body + 2.0 * 9.0 * np.cos(3.0 * t + 0.4)) < 1e-12

    def test_fd_fallback(self):
        c = Curve(2, lambda ts: np.outer(G.one(2).comps, np.exp(0.5 * ts)))
        d = c.derivative()
        assert abs(d(0.3).body - 0.5 * np.exp(0.15)) < 1e-10

    def test_compose_and_power(self):
        r = Curve.polynomial(2, [0.0, 0.5, 0.25, 0.25])
        base = Curve.polynomial(2, [0.0, 0.0, 1.0])
        comp = base.compose(r)
        u = 0.8
        ru = 0.5 * u + 0.25 * u ** 2 + 0.25 * u ** 3
        assert abs(comp(u).body - ru ** 2) < 1e-14
        # chain rule
        drdu = 0.5 + 0.5 * u + 0.75 * u ** 2
        assert abs(comp.derivative()(u).body - 2 * ru * drdu) < 1e-13
        sq = r.derivative().power(0.5)
        assert abs(sq(u).body - np.sqrt(drdu)) < 1e-14
        # d/du sqrt(r') = r'' / (2 sqrt(r'))
        d2 = 0.5 + 1.5 * u
        assert abs(sq.derivative()(u).body - d2 / (2 * np.sqrt(drdu))) < 1e-12

    def test_from_samples(self):
        grid = Grid(0.0, 0.05, 41)
        values = [G.scalar(2, t ** 3 - t) for t in grid.times()]
        c = Curve.from_samples(2, grid, values)
        assert abs(c(0.52).body - (0.52 ** 3 - 0.52)) < 1e-12
        assert abs(c.derivative()(0.52).body - (3 * 0.52 ** 2 - 1)) < 1e-9


    @pytest.mark.parametrize("count", [5, 20])
    def test_from_samples_needs_one_value_per_node(self, count):
        # a short list used to raise IndexError on sampling, a long one was
        # cut without a word
        grid = Grid(0.0, 0.1, 11)
        with pytest.raises(DimensionError, match=f"expected 11 sampled values, got {count}"):
            Curve.from_samples(2, grid, [G.scalar(2, 0.1 * k) for k in range(count)])


class TestSuperPathSubstitutions:
    def path(self, n=2):
        e1, e2 = G.generator(n, 1), G.generator(n, 2)
        return SuperPath.from_polynomials(
            n,
            [[G.scalar(n, 0.1), G.scalar(n, 1.0), G.scalar(n, 0.5) + (e1 * e2) * 0.2]],
            [[e1, e1 * 0.3]], 1.0)

    def test_reversal_endpoints(self):
        n = 2
        pth = self.path(n)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2))
        rev = pth.reversed_through(end)
        for x, y in zip(rev.value(SuperPoint.identity(n)), pth.value(end)):
            assert x.allclose(y, 1e-12)
        for x, y in zip(rev.value(end), pth.value(SuperPoint.identity(n))):
            assert x.allclose(y, 1e-12)

    def test_translation_matches_group_action(self):
        n = 2
        pth = self.path(n)
        joint = SuperPoint(G.scalar(n, 0.4), G.generator(n, 2) * 0.5)
        shifted = pth.translated(joint)
        probe = SuperPoint(G.scalar(n, 0.3), G.generator(n, 1) * 0.25)
        for x, y in zip(shifted.value(probe), pth.value(probe * joint)):
            assert x.allclose(y, 1e-12)

    def test_constant_path_reversal_fixed(self):
        n = 2
        pth = SuperPath.line(n, [0.7], [0.0], [G.zero(n)], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        rev = pth.reversed_through(end)
        for t in (0.0, 0.3, 0.9):
            assert rev.a[0](t).allclose(pth.a[0](t), 1e-14)
            assert rev.b[0](t).norm() < 1e-14

    def test_parity_validation(self):
        n = 2
        bad = SuperPath.line(n, [G.generator(n, 1)], [0.0], [G.zero(n)], 1.0)
        with pytest.raises(ParityError):
            bad.validate()

    @pytest.mark.parametrize("plane", [(0, 5), (0, 0), (1,), (-1, 0)])
    def test_circle_plane_names_two_coordinates(self, plane):
        with pytest.raises(DimensionError, match="circle plane"):
            SuperPath.circle(2, [0.0, 0.0], 0.5, 1.0, [G.zero(2)] * 2, 1.0, plane=plane)
        ok = SuperPath.circle(2, [0.0, 0.0], 0.5, 1.0, [G.zero(2)] * 2, 1.0, plane=(1, 0))
        assert ok.a[0](0.0).body == 0.0 and ok.a[1](0.0).body == 0.5


def _graded_path(n):
    """A path into R^{2|1} with soulful harmonic and polynomial curves."""
    e = [G.generator(n, i) for i in range(1, n + 1)]
    a = [Curve.harmonic(n, G.scalar(n, 1.0) + e[0] * e[1] * 0.3, 1.3, 0.2, 0.1),
         Curve.polynomial(n, [0.2, G.scalar(n, 0.5) + e[1] * e[2] * 0.2, 0.3]),
         Curve.polynomial(n, [e[0] * 0.4, e[2] * 0.7, e[3] * 0.2])]
    b = [Curve.harmonic(n, e[1] * 0.5, 0.9, 0.0, e[2] * 0.1, kind="sin"),
         Curve.polynomial(n, [e[0] * 0.3, e[3] * 0.2]),
         Curve.polynomial(n, [0.5, G.scalar(n, 0.1) + e[0] * e[3] * 0.2])]
    return SuperPath(2, 1, n, a, b, 1.0)


class TestSharedComposition:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("kind", ["translated", "reversed_through", "shifted_by_inverse",
                                      "reparametrized"])
    def test_substitutions_match_per_curve_oracle(self, n, kind):
        # soulful t0 with a nonzero soul square, theta0 != 0; the shared
        # table adds and multiplies in the order the per-curve composition
        # did, so values and two derivatives agree bit for bit
        path = _graded_path(n)
        e = [G.generator(n, i) for i in range(1, n + 1)]
        pt = SuperPoint(G.scalar(n, 0.6) + e[0] * e[1] * 0.3 + e[2] * e[3] * 0.2,
                        e[0] * 0.5 + e[3] * 0.25)
        zero = G.zero(n)
        r = Curve.polynomial(n, [0.0, 0.8, 0.3])
        got, want = {
            "translated": lambda: (path.translated(pt), substituted_oracle(
                path, Curve.polynomial(n, [pt.t, 1.0]), pt.theta, pt.theta, 1.0, 0.4)),
            "reversed_through": lambda: (path.reversed_through(pt), substituted_oracle(
                path, Curve.polynomial(n, [pt.t, -1.0]), -pt.theta, pt.theta, -1.0, 0.6)),
            "shifted_by_inverse": lambda: (path.shifted_by_inverse(pt, 1.0), substituted_oracle(
                path, Curve.polynomial(n, [-pt.t, 1.0]), -pt.theta, -pt.theta, 1.0, 1.0)),
            "reparametrized": lambda: (path.reparametrized(r, 1.0), substituted_oracle(
                path, r, zero, zero, r.derivative().power(0.5), 1.0)),
        }[kind]()
        us = np.linspace(0.05, 0.55, 7)
        for c_got, c_want in zip(got.a + got.b, want.a + want.b):
            for _ in range(3):  # values, first and second derivatives
                assert np.array_equal(c_got.sample(us), c_want.sample(us))
                c_got, c_want = c_got.derivative(), c_want.derivative()
        assert got.t_end == want.t_end

    def test_reversed_lift_composes_in_one_soul_series(self, monkeypatch, workloads):
        from supertransport import geometry
        from supertransport.grassmann import soul_series
        from supertransport.transport import lift_problem

        path, sc, end = workloads.chart_problem(np.random.default_rng(1))
        rev = lift_problem(path, sc)[0].reversed_through(end)
        times = Grid.over(0.0, end.t.body, 2 * workloads.CHART_STEPS + 1).times()
        assert len(times) == 13
        calls = []
        monkeypatch.setattr(geometry, "soul_series",
                            lambda *args: calls.append(args) or soul_series(*args))
        # what the connection and endomorphism assemblers sample: every
        # coordinate, twice, and the velocities of the even parts
        for _ in range(2):
            geometry._adjoined_coordinates(rev, times)
        for c in rev.a:
            c.derivative().sample(times)
        assert 1 <= len(calls) <= 2  # one series per curve pair made 40


class TestPullbacks:
    def test_straight_path_constant_form(self):
        # x(t) = t, eta = 0, a = K dx: the D-contraction is theta*K
        n = 2
        K = np.array([[2.0, 0.0], [0.0, 3.0]])
        path = SuperPath.line(n, [0.0], [1.0], [G.zero(n)], 1.0)
        conn = Connection.from_matrix_polys(1, (1, 1), [PolyMap.constant(1, K)])
        grid = Grid(0.0, 0.05, 21)
        fld = connection_coefficient(path, conn, grid)
        assert float(np.abs(fld.a).max()) < 1e-14
        assert np.allclose(fld.b[:, 0], K)

    def test_constant_path(self):
        n = 2
        K = np.array([[2.0, 0.0], [0.0, 3.0]])
        eta = G.generator(n, 1)
        path = SuperPath.line(n, [0.5], [0.0], [eta], 1.0)
        conn = Connection.from_matrix_polys(1, (1, 1), [PolyMap.constant(1, K)])
        fld = connection_coefficient(path, conn, Grid(0.0, 0.05, 21))
        assert np.allclose(fld.a[:, 1], K)  # K * eta on the e1 component
        assert float(np.abs(fld.b).max()) < 1e-14

    def test_quadratic_coefficient_against_expansion(self, rng):
        # a(x) = x^2 K along x = t, eta = e1: hand-expanded oracle
        n = 2
        K = rng.uniform(-1, 1, (2, 2))
        K[0, 1] = K[1, 0] = 0.0
        conn = Connection.from_matrix_polys(1, (1, 1), [PolyMap(1, {(2,): K})])
        eta = G.generator(n, 1)
        path = SuperPath.line(n, [0.0], [1.0], [eta], 1.0)
        grid = Grid(0.0, 0.1, 11)
        fld = connection_coefficient(path, conn, grid)
        ts = grid.times()
        # C = t^2 K eta;  Dm = t^2 K  (the 2t eta eta term dies)
        assert np.allclose(fld.a[:, 1], ts[:, None, None] ** 2 * K)
        assert np.allclose(fld.b[:, 0], ts[:, None, None] ** 2 * K)
        assert float(np.abs(fld.a[:, [0, 2, 3]]).max()) < 1e-14

    def test_lift_dx(self):
        # omega = dx^1: pullback is eta^1 with no theta part
        n = 2
        path = SuperPath.line(n, [0.0], [1.0], [G.generator(n, 1)], 1.0)
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        form = DifferentialForm(1, 1, (1, 1), Parity.ODD, {(1,): PolyMap.constant(1, K)})
        fld = lift_pullback(path, form, Grid(0.0, 0.05, 21))
        assert np.allclose(fld.a[:, 1], K)
        assert float(np.abs(fld.b).max()) < 1e-14

    def test_lift_zero_form(self):
        # f as 0-form: f(x) + theta * sum eta^j d_j f
        n = 2
        path = SuperPath.line(n, [0.2, -0.1], [1.0, 0.5],
                              [G.generator(n, 1), G.generator(n, 2)], 1.0)
        f = PolyMap(2, {(1, 0): 1.0, (0, 2): 0.5})
        form = DifferentialForm(0, 2, (1, 0), Parity.EVEN, {(): PolyMap(2, {(1, 0): np.eye(1), (0, 2): 0.5 * np.eye(1)})})
        grid = Grid(0.0, 0.1, 11)
        fld = lift_pullback(path, form, grid)
        for k, t in enumerate(grid.times()):
            x1, x2 = 0.2 + t, -0.1 + 0.5 * t
            assert abs(fld.a[k, 0, 0, 0] - (x1 + 0.5 * x2 ** 2)) < 1e-12
            # theta part: eta1 * 1 + eta2 * x2
            assert abs(fld.b[k, 1, 0, 0] - 1.0) < 1e-12
            assert abs(fld.b[k, 2, 0, 0] - x2) < 1e-12

    def test_lift_x1_dx2(self, rng):
        # omega = x^1 dx^2 -> x^1 eta^2 + theta eta^1 eta^2
        n = 2
        e1, e2 = G.generator(n, 1), G.generator(n, 2)
        path = SuperPath.line(n, [0.3, 0.1], [1.0, -0.5], [e1, e2], 1.0)
        form = DifferentialForm(1, 2, (1, 0), Parity.EVEN,
                                {(2,): PolyMap(2, {(1, 0): np.eye(1)})})
        grid = Grid(0.0, 0.1, 11)
        fld = lift_pullback(path, form, grid)
        for k, t in enumerate(grid.times()):
            x1 = 0.3 + t
            got_a = G(n, fld.a[k, :, 0, 0])
            want_a = (x1 * e2)
            assert got_a.allclose(want_a, 1e-12)
            got_b = G(n, fld.b[k, :, 0, 0])
            assert got_b.allclose(e1 * e2, 1e-12)

    def test_lift_pullback_against_explicit_expansion(self, rng):
        # theta^0 = sum_I f_I(x) eta^I and theta^1 = sum_j d_j f_I(x) eta_j eta^I,
        # with x and eta the path components and dictionary arithmetic only
        from supertransport.verify import random_path
        n, p, rank = 3, 2, (1, 1)
        path = random_path(rng, n, p)
        grid = Grid(0.0, 0.25, 5)
        off = np.array([[0.0, 1.0], [1.0, 0.0]])

        def poly(mask):
            return PolyMap(p, {e: mask * rng.uniform(-1, 1, (2, 2))
                               for e in [(0, 0), (1, 0), (0, 2), (2, 1)]})

        forms = [DifferentialForm(0, p, rank, Parity.ODD, {(): poly(off)}),
                 DifferentialForm(1, p, rank, Parity.EVEN,
                                  {(1,): poly(1 - off), (2,): poly(1 - off)}),
                 DifferentialForm(2, p, rank, Parity.ODD, {(1, 2): poly(off)})]

        def at(f, r, c, xs):
            out = {}
            for expo, coeff in f.terms.items():
                val = {(): float(coeff[r, c])}
                for x, e in zip(xs, expo):
                    for _ in range(e):
                        val = gmul(val, x)
                out = gadd(out, val)
            return out

        for form in forms:
            fld = lift_pullback(path, form, grid)
            for k, t in enumerate(grid.times()):
                xs = [from_element(path.a[i](t)) for i in range(p)]
                etas = [from_element(path.b[i](t)) for i in range(p)]
                for r, c in np.ndindex(2, 2):
                    want_a, want_b = {}, {}
                    for I, f in form.components.items():
                        eta_I = {(): 1.0}
                        for i in I:
                            eta_I = gmul(eta_I, etas[i - 1])
                        want_a = gadd(want_a, gmul(at(f, r, c, xs), eta_I))
                        for j in range(p):
                            dj = gmul(at(f.partial(j), r, c, xs), etas[j])
                            want_b = gadd(want_b, gmul(dj, eta_I))
                    assert np.max(np.abs(to_components(want_a, n) - fld.a[k, :, r, c])) < 1e-12
                    assert np.max(np.abs(to_components(want_b, n) - fld.b[k, :, r, c])) < 1e-12

    def test_degree_error(self):
        n = 2
        path = SuperPath.line(n, [0.0], [1.0], [G.zero(n)], 1.0)
        form = DifferentialForm(2, 2, (1, 0), Parity.EVEN,
                                {(1, 2): PolyMap(2, {(0, 0): np.eye(1)})})
        with pytest.raises(DegreeError):
            lift_pullback(path, form, Grid(0.0, 0.1, 11))

    def test_superconnection_zero_form_only(self):
        # sc with a = 0, A = constant odd A0: coefficient is -A0
        n = 2
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        conn = Connection.zero(1, 0, (1, 1))
        form = DifferentialForm.constant_form(0, 1, (1, 1), Parity.ODD, {(): A0})
        sc = Superconnection(conn, (form,))
        path = SuperPath.line(n, [0.0], [1.0], [G.zero(n)], 1.0)
        fld = superconnection_coefficient(path, sc, Grid(0.0, 0.05, 21))
        assert np.allclose(fld.a[:, 0], -A0)
        assert float(np.abs(fld.b).max()) < 1e-14

    def test_superconnection_without_forms_equals_connection(self, rng):
        n = 2
        from supertransport.verify import random_connection, random_path
        conn = random_connection(rng, 2, (1, 1))
        sc = Superconnection(conn, ())
        path = random_path(rng, n, 2)
        grid = Grid(0.0, 0.05, 21)
        direct = connection_coefficient(path, conn, grid)
        via_sc = superconnection_coefficient(path, sc, grid)
        assert direct.distance(via_sc) == 0.0

    def test_chart_claim(self, rng):
        n = 2
        path = SuperPath.line(n, [0.2, -0.3], [1.0, 0.7],
                              [G.generator(n, 1), G.generator(n, 2)], 1.0)
        fns = [PolyMap(2, {(1, 0): 1.0}),
               PolyMap(2, {(2, 0): 1.0}),
               PolyMap(2, {(3, 0): float(rng.uniform(-1, 1)), (1, 2): float(rng.uniform(-1, 1))})]
        assert chart_claim_residual(path, fns, [0.1, 0.5, 0.9]) < 1e-12

    def test_lift_algebra_map_on_forms(self, rng):
        n = 2
        path = SuperPath.line(n, [0.2, -0.3], [1.0, 0.7],
                              [G.generator(n, 1), G.generator(n, 2)], 1.0)
        w1 = DifferentialForm(1, 2, (1, 0), Parity.EVEN,
                              {(1,): PolyMap(2, {(0, 0): np.eye(1), (1, 0): 0.3 * np.eye(1)}),
                               (2,): PolyMap(2, {(0, 1): 0.7 * np.eye(1)})})
        w2 = DifferentialForm(1, 2, (1, 0), Parity.EVEN,
                              {(1,): PolyMap(2, {(0, 1): -0.4 * np.eye(1)}),
                               (2,): PolyMap(2, {(0, 0): np.eye(1)})})
        grid = Grid(0.0, 0.01, 101)
        lhs = lift_pullback(path, w1.wedge(w2), grid)
        rhs = lift_pullback(path, w1, grid).matmul(lift_pullback(path, w2, grid))
        assert lhs.distance(rhs) < 1e-12

    def test_naturality_in_the_parameter_algebra(self, rng):
        # substituting the scalar algebra before or after assembly agrees
        n = 2
        conn = Connection.from_matrix_polys(
            2, (1, 1), [PolyMap(2, {(0, 0): np.diag([0.4, -0.2]), (1, 0): np.diag([0.1, 0.3])}),
                        PolyMap(2, {(0, 1): np.diag([-0.3, 0.2])})])
        path = SuperPath.from_polynomials(
            n, [[G.scalar(n, 0.1), G.scalar(n, 0.9)], [G.scalar(n, -0.2), G.scalar(n, 0.4)]],
            [[G.generator(n, 1) * 0.5], [G.generator(n, 2) * 0.7]], 1.0)
        hom = AlgebraMap(n, n, [G.generator(n, 1) * 0.5 + G.generator(n, 2) * 0.25,
                                G.generator(n, 2) * -1.0])
        grid = Grid(0.0, 0.05, 21)
        before = connection_coefficient(path.mapped(hom), conn, grid)
        after = connection_coefficient(path, conn, grid)
        for k in range(grid.nodes):
            lhs = hom.apply_matrix(after.a_matrix(k))
            assert lhs.distance(before.a_matrix(k)) < 1e-13
            lhs_b = hom.apply_matrix(after.b_matrix(k))
            assert lhs_b.distance(before.b_matrix(k)) < 1e-13

    def test_parity_audit(self, rng):
        from supertransport.verify import random_path, random_superconnection
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        fld = superconnection_coefficient(path, sc, Grid(0.0, 0.05, 21))
        assert fld.parity_residual() == 0.0
        assert fld.a_parity is Parity.ODD and fld.b_parity is Parity.EVEN


class TestOddTangent:
    def test_lift_coordinates(self):
        n = 2
        e1 = G.generator(n, 1)
        path = SuperPath.line(n, [0.3], [1.0], [e1 * 0.5], 1.0)
        lifted = odd_tangent_lift(path)
        assert (lifted.p, lifted.q) == (1, 1)
        assert lifted.a[1](0.7).allclose(e1 * 0.5, 1e-14)
        assert lifted.b[1](0.7).norm() == 0.0
        lifted.validate()

    def test_data_round_trip(self, rng):
        from supertransport.verify import random_superconnection
        sc = random_superconnection(rng, 2, (1, 1))
        conn, endo = odd_tangent_data(sc)
        assert conn.p == 2 and conn.q == 2
        # the form part reappears as the odd-coordinate monomial terms
        assert set(endo.terms) >= {()}


class TestVectorFields:
    def test_leibniz_rule_on_monomials(self):
        # X(fg) = X(f) g + (-1)^{p(X)p(f)} f X(g) for the odd analog field
        a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)})
        a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
        X = SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])
        f = GrassmannPoly(1, 1, {(0,): PolyMap(1, {(1,): 1.0})})     # x zeta (odd)
        g = GrassmannPoly(1, 1, {(): PolyMap(1, {(2,): 1.0})})       # x^2 (even)
        n = 3
        coords = [G.from_terms(n, {(): 0.4, (1, 2): 0.3}), G.generator(n, 1) * 0.7]
        lhs = X.apply(f * g).value(coords)
        rhs = (X.apply(f) * g).value(coords) + ((f * X.apply(g)).value(coords) * (-1.0))
        assert lhs.allclose(rhs, 1e-13)

    def test_squared_of_analog_field(self):
        a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)})
        a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
        X = SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])
        Y = X.squared()
        coords = [G.scalar(2, 0.3), G.generator(2, 1)]
        vals = Y.coefficient_values(coords)
        assert vals[0].terms() == {(): 1.0}
        assert vals[1].norm() == 0.0

    def test_parity_validation(self):
        bad = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})  # even term
        with pytest.raises(ParityError):
            SuperVectorField(1, 1, Parity.ODD, [bad, bad])

    def test_coordinates_checked_once_per_coefficient_stack(self, monkeypatch):
        from supertransport import geometry
        from supertransport.flows import flow_even

        a_x = GrassmannPoly(1, 1, {(): PolyMap(1, {(1,): 1.0})})             # x
        a_z = GrassmannPoly(1, 1, {(0,): PolyMap(1, {(0,): 1.0, (2,): 0.5})})  # (1 + x^2/2) zeta
        Y = SuperVectorField(1, 1, Parity.EVEN, [a_x, a_z])
        n = 3
        good = np.stack([G.from_terms(n, {(): 0.4, (1, 2): 0.3}).comps,
                         G.generator(n, 3).comps])[:, :, None]
        checked = []
        present = geometry.parities_present
        monkeypatch.setattr(geometry, "parities_present",
                            lambda *args: checked.append(1) or present(*args))
        values = Y.coefficient_stack(good)
        assert len(checked) == 2  # one per coordinate, not per coefficient as well
        for got, c in zip(values, Y.coeffs):
            assert np.array_equal(got, c.value_stack(good))
        for i, swapped in enumerate([G.generator(n, 1), G.scalar(n, 0.5)]):
            bad = good.copy()
            bad[i, :, 0] = swapped.comps
            with pytest.raises(ParityError, match=f"coordinate {i} has a value of the wrong parity"):
                Y.coefficient_stack(bad)
            with pytest.raises(ParityError):
                flow_even(Y, [GrassmannElement(n, x[:, 0]) for x in bad], 0.5, 4)

    def test_family_valued_products_are_multiplicative(self):
        # (f g)(c) = f(c) g(c) for family payloads of mixed parity passing
        # odd monomials, and for a plain factor on either side
        lam, n = 3, 5
        f = GrassmannPoly(1, 2, {
            (0,): PolyMap(1, {(0,): G.from_terms(lam, {(): 1.0, (1,): 0.5, (1, 2): -0.25}).comps,
                              (1,): G.from_terms(lam, {(3,): 0.75}).comps}),
            (): PolyMap(1, {(2,): G.from_terms(lam, {(2,): 1.0, (): 0.5}).comps})}, lambda_n=lam)
        g = GrassmannPoly(1, 2, {
            (1,): PolyMap(1, {(1,): G.from_terms(lam, {(2,): -1.0, (1, 3): 0.5}).comps}),
            (0, 1): PolyMap(1, {(0,): G.from_terms(lam, {(): 2.0, (3,): 1.0}).comps})},
            lambda_n=lam)
        h = GrassmannPoly(1, 2, {(1,): PolyMap(1, {(1,): 0.7}), (): PolyMap(1, {(0,): -1.5})})
        coords = [G.from_terms(n, {(): 0.3, (4, 5): 0.2, (1, 4): -0.5}),
                  G.from_terms(n, {(4,): 1.0, (1, 2, 5): 0.3}),
                  G.from_terms(n, {(5,): 0.5, (2,): 0.25})]
        for a, b in ((f, g), (g, f), (f, h), (h, g), (f, f)):
            got = (a * b).value(coords)
            assert got.allclose(a.value(coords) * b.value(coords), 1e-14)
        assert (f + h).value(coords).allclose(f.value(coords) + h.value(coords), 1e-14)


# -- the batched assembler, node by node against dictionary arithmetic -----------


def _eta_split(u, n):
    """u = u0 + eta*u1 over n + 1 generators, eta = e_{n+1} on the left."""
    u0, u1 = {}, {}
    for key, c in u.items():
        if key and key[-1] == n + 1:
            u1 = gadd(u1, {key[:-1]: (-1) ** (len(key) - 1) * c})
        else:
            u0 = gadd(u0, {key: c})
    return u0, u1


def _poly_at(coeffs, s):
    """sum_k coeffs[k] s^k for dictionary coefficients and argument."""
    out, power = {}, {(): 1.0}
    for c in coeffs:
        out = gadd(out, gmul(c, power))
        power = gmul(power, s)
    return out


def _gpoly_at(gp, r, c, coords):
    """Entry (r, c) of sum_J f_J(x) z^J at dictionary coordinates."""
    out = {}
    for J, f in gp.terms.items():
        val = {}
        for expo, coeff in f.terms.items():
            term = {(): float(np.asarray(coeff)[r, c])}
            for x, e in zip(coords[:gp.p], expo):
                for _ in range(e):
                    term = gmul(term, x)
            val = gadd(val, term)
        for j in J:
            val = gmul(val, coords[gp.p + j])
        out = gadd(out, val)
    return out


def _check_against_dictionaries(path, conn, endo, grid, nodes, n):
    """``nodes[k]`` holds the theta-adjoined coordinates and the velocities
    a_i' at grid node k, as dictionaries; eta = e_{n+1} is the theta slot."""
    eta = {(n + 1,): 1.0}
    fields = {v: connection_coefficient(path, conn, grid, v) for v in ("D", "Q")}
    fields["endo"] = endomorphism_term(path, endo, grid, conn.rank)
    for k, (coords, adots) in enumerate(nodes):
        for r, c in np.ndindex(2, 2):
            want = {"endo": _gpoly_at(endo, r, c, coords)}
            for v, sign in (("D", 1.0), ("Q", -1.0)):
                want[v] = {}
                for coeff, x, adot in zip(conn.coeffs, coords, adots):
                    factor = gadd(_eta_split(x, n)[1], gmul(eta, {key: sign * cf for key, cf in adot.items()}))
                    want[v] = gadd(want[v], gmul(_gpoly_at(coeff, r, c, coords), factor))
            for key, fld in fields.items():
                w0, w1 = _eta_split(want[key], n)
                assert np.max(np.abs(to_components(w0, n) - fld.a[k, :, r, c])) < 1e-12
                assert np.max(np.abs(to_components(w1, n) - fld.b[k, :, r, c])) < 1e-12


class TestBatchedAssembly:
    def test_lifted_reversal_against_dictionaries(self, rng):
        # coordinates of the reversed lift at (u, eta): the base path at
        # (u, eta)^{-1} (t0, th0) = (t0 - u - eta th0, th0 - eta), expanded in
        # dictionary arithmetic with eta = e4; the time shift has a soul
        from supertransport.verify import random_superconnection
        n, p = 3, 2
        eta = {(n + 1,): 1.0}
        a_coeffs = [[{(): 0.1}, {(): 0.8}, {(): -0.3, (1, 2): 0.2}],
                    [{(): -0.2, (2, 3): 0.1}, {(): 0.5}, {(): 0.25}]]
        b_coeffs = [[{(1,): 0.5, (3,): 0.3}, {(2,): -0.2}],
                    [{(2,): 0.4}, {(1,): 0.1, (1, 2, 3): 0.3}]]
        t0, th0 = {(): 0.8, (1, 3): 0.3}, {(2,): 0.5, (3,): 0.2}
        base = SuperPath.from_polynomials(
            n, [[G.from_terms(n, c) for c in cs] for cs in a_coeffs],
            [[G.from_terms(n, c) for c in cs] for cs in b_coeffs], 1.0)
        end = SuperPoint(G.from_terms(n, t0), G.from_terms(n, th0))
        path = odd_tangent_lift(base).reversed_through(end)
        conn, endo = odd_tangent_data(random_superconnection(rng, p, (1, 1)))
        grid = Grid(0.0, 0.1, 9)

        def deriv(cs):
            return [{key: k * cf for key, cf in c.items()} for k, c in enumerate(cs)][1:]

        def minus(u):
            return {key: -cf for key, cf in u.items()}

        nodes = []
        for u in grid.times():
            s = gadd(gadd(t0, {(): -u}), minus(gmul(eta, th0)))
            sigma = gadd(th0, minus(eta))
            s0 = gadd(t0, {(): -u})
            coords = [gadd(_poly_at(a, s), gmul(sigma, _poly_at(b, s)))
                      for a, b in zip(a_coeffs, b_coeffs)]
            coords += [_poly_at(b, s) for b in b_coeffs]
            adots = [minus(gadd(_poly_at(deriv(a), s0), gmul(th0, _poly_at(deriv(b), s0))))
                     for a, b in zip(a_coeffs, b_coeffs)]
            adots += [minus(_poly_at(deriv(b), s0)) for b in b_coeffs]
            nodes.append((coords, adots))
        _check_against_dictionaries(path, conn, endo, grid, nodes, n)

    def test_glued_sampled_pieces_against_dictionaries(self, rng):
        # two paths given by samples (quartic interpolation reproduces their
        # cubic components), glued at a joint; the second piece is sampled
        # on [-0.1, 0.6] only, so it must not be asked for times below the
        # joint.  Coordinates per node come from one-time curve calls.
        from supertransport.transport import glue
        from supertransport.verify import random_superconnection
        n, p = 3, 2
        poly = SuperPath.from_polynomials(
            n, [[G.scalar(n, 0.1), G.scalar(n, 0.8), G.monomial(n, (1, 2), 0.2)],
                [G.scalar(n, -0.2), G.scalar(n, 0.5), G.scalar(n, 0.3)]],
            [[G.generator(n, 1) * 0.5, G.generator(n, 3) * 0.2], [G.generator(n, 2) * 0.4]], 1.2)
        joint = SuperPoint(G.scalar(n, 0.5), G.generator(n, 2) * 0.5)

        def sampled(src, grid, t_end):
            return SuperPath(p, 0, n, [Curve.from_samples(n, grid, [c(t) for t in grid.times()])
                                       for c in src.a],
                             [Curve.from_samples(n, grid, [c(t) for t in grid.times()])
                              for c in src.b], t_end)

        first = sampled(poly, Grid(0.0, 0.05, 25), 1.2)
        second = sampled(poly.translated(joint), Grid(-0.1, 0.05, 15), 0.6)
        glued = odd_tangent_lift(glue(first, second, joint))
        conn, endo = odd_tangent_data(random_superconnection(rng, p, (1, 1)))
        grid = Grid(0.0, 0.1, 11)
        eta = {(n + 1,): 1.0}
        nodes = []
        for t in grid.times():
            coords = [gadd(from_element(a(t)), gmul(eta, from_element(b(t))))
                      for a, b in zip(glued.a, glued.b)]
            nodes.append((coords, [from_element(a.derivative()(t)) for a in glued.a]))
        _check_against_dictionaries(glued, conn, endo, grid, nodes, n)

    def test_value_hat_runs_once_per_node_block(self, rng, monkeypatch):
        from supertransport import geometry, grassmann
        from supertransport.verify import random_path
        n = 3
        path = random_path(rng, n, 2)
        conn = Connection.from_matrix_polys(2, (1, 1), [
            PolyMap(2, {(1, 0): np.diag([0.3, -0.2]), (0, 2): np.diag([0.1, 0.4])}),
            PolyMap(2, {(0, 0): np.diag([-0.5, 0.2])})])
        grid = Grid(0.0, 0.05, 21)
        blocks = []

        def value_hat(times, coords):
            blocks.append(len(times))
            return np.zeros((2 << n, len(times), 2, 2))

        geometry._assemble(path, grid, (1, 1), (Parity.ODD, Parity.EVEN), value_hat)
        assert blocks == [21]
        whole = connection_coefficient(path, conn, grid)
        # a cap of five nodes' gathers: blocks of 5, and the same field
        monkeypatch.setattr(grassmann, "_GATHER_CAP", 5 * 3 ** (n + 1) * 4)
        blocks.clear()
        geometry._assemble(path, grid, (1, 1), (Parity.ODD, Parity.EVEN), value_hat)
        assert blocks == [5, 5, 5, 5, 1]
        sampled = []
        adjoined = geometry._adjoined_coordinates
        monkeypatch.setattr(geometry, "_adjoined_coordinates",
                            lambda pth, times: sampled.append(len(times)) or adjoined(pth, times))
        assert connection_coefficient(path, conn, grid).distance(whole) == 0.0
        assert sampled == [5, 5, 5, 5, 1]


# -- polynomial data evaluated in the ring -----------------------------------------


def _graded_coords(rng, n, p, q, nodes):
    """(p + q, 2**n, nodes) columns: p even coordinates with soulful values,
    then q odd ones."""
    odd = np.array([bin(k).count("1") % 2 for k in range(1 << n)], dtype=bool)
    coords = rng.uniform(-0.6, 0.6, (p + q, 1 << n, nodes))
    coords[:p, odd] = 0.0
    coords[p:, ~odd] = 0.0
    return coords


class TestRingEvaluation:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_value_stack_against_taylor_oracle(self, rng, n):
        # scalar, matrix and family-valued polynomials on R^{2|2}, against
        # the multinomial Taylor series with sympy partials at two nodes
        p, q, lam = 2, 2, 2

        def mat():
            return rng.uniform(-1, 1, (2, 2))

        def pay():
            return rng.uniform(-1, 1, 1 << lam)

        polys = [
            GrassmannPoly(p, q, {(): PolyMap(p, {(0, 0): 0.5, (2, 1): -1.25, (0, 3): 0.75}),
                                 (0,): PolyMap(p, {(1, 0): 2.0}),
                                 (0, 1): PolyMap(p, {(1, 1): -0.5, (0, 0): 1.5})}),
            GrassmannPoly(p, q, {(): PolyMap(p, {(1, 2): mat(), (0, 0): mat()}),
                                 (1,): PolyMap(p, {(3, 0): mat(), (0, 1): mat()})}),
            GrassmannPoly(p, q, {(): PolyMap(p, {(2, 0): pay(), (0, 0): pay(), (1, 1): pay()}),
                                 (1,): PolyMap(p, {(0, 2): pay()})}, lambda_n=lam),
        ]
        coords = _graded_coords(rng, n, p, q, 2)
        oracle = SymbolicFieldEvaluator(polys[0], n)
        for gp in polys:
            got = gp.value_stack(coords)
            for k in range(2):
                want = oracle.poly_value(gp, coords[:, :, k])
                assert np.max(np.abs(got[:, k] - want)) < 1e-13

    def test_smooth_coefficients_match_polynomial_twins(self, rng):
        # an endomorphism whose coefficients are derivative oracles of its
        # polynomial coefficients gives the same field along a lifted path
        from supertransport.verify import random_path, random_superconnection
        n = 3
        path = odd_tangent_lift(random_path(rng, n, 2))
        _, endo = odd_tangent_data(random_superconnection(rng, 2, (1, 1)))

        def twin(f):
            def partial(alpha, x):
                g = f
                for i, a in enumerate(alpha):
                    for _ in range(a):
                        g = g.partial(i)
                return g.value(x)
            return SmoothMap(f.nvars, partial, max_order=n + 1, coeff_shape=f.coeff_shape)

        smooth = GrassmannPoly(2, 2, {J: twin(f) for J, f in endo.terms.items()}, rank=(1, 1))
        grid = Grid(0.0, 0.1, 11)
        want = endomorphism_term(path, endo, grid, (1, 1))
        got = endomorphism_term(path, smooth, grid, (1, 1))
        assert np.max(np.abs(got.a - want.a)) < 1e-13
        assert np.max(np.abs(got.b - want.b)) < 1e-13
        assert np.any(want.b)
        # family payloads multiply into the monomial table, so they need one
        with pytest.raises(CapabilityError):
            GrassmannPoly(1, 0, {(): twin(PolyMap(1, {(1,): np.ones(4)}))}, lambda_n=2)

    def test_gathers_stay_under_the_cap_from_n9(self, rng, monkeypatch):
        # at n = 9 the evaluator's products pass the gather cap whole, so the
        # kernel gathers them in chunks of (term, node) items that fit, and
        # the values do not depend on the chunks
        from supertransport import grassmann
        n, p, lam, nodes = 9, 2, 2, 3
        coords = _graded_coords(rng, n, p, 0, nodes)
        family = GrassmannPoly(p, 0, {(): PolyMap(p, {
            (3, 0): rng.uniform(-1, 1, 1 << lam), (1, 2): rng.uniform(-1, 1, 1 << lam),
            (0, 0): rng.uniform(-1, 1, 1 << lam)})}, lambda_n=lam)
        matrix = PolyMap(p, {(2, 1): np.eye(2), (0, 3): np.ones((2, 2))})
        pair_sums, cap = grassmann._pair_sums, grassmann._GATHER_CAP
        gathers = []

        def recorded(a, b, op, I, *rest):
            gathers.append((len(I) * (max(a.size, b.size) >> n), max(a.shape[1], b.shape[1])))
            return pair_sums(a, b, op, I, *rest)

        monkeypatch.setattr(grassmann, "_pair_sums", recorded)
        got = family.value_stack(coords), matrix.eval_stack(coords[:p])
        assert gathers and all(size <= cap or items == 1 for size, items in gathers)
        chunks = len(gathers)
        monkeypatch.setattr(grassmann, "_GATHER_CAP", 1 << 30)
        gathers.clear()
        whole = family.value_stack(coords), matrix.eval_stack(coords[:p])
        assert len(gathers) < chunks and max(size for size, _ in gathers) > cap
        for g, w in zip(got, whole):
            assert np.array_equal(g, w)
