"""Integration of even and odd vector fields."""

import math

import numpy as np
import pytest

from supertransport.errors import DimensionError, DomainError, ParityError, ResolutionError
from supertransport.flows import flow_even, flow_odd, flow_odd_residual
from supertransport.geometry import GrassmannPoly, SuperVectorField
from supertransport.grassmann import GrassmannElement, Parity, PolyMap
from supertransport.superfield import SuperPoint

from reference import flow_oracle, gadd, gmul, gscale, odd_flow_oracle, to_components

G = GrassmannElement


def d_analog_field():
    """zeta d/dx + d/dzeta on R^{1|1}."""
    a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)})
    a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
    return SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])


def generic_odd_field(g_coeffs):
    """zeta g(x) d/dx + d/dzeta."""
    a_x = GrassmannPoly(1, 1, {(0,): PolyMap(1, g_coeffs)})
    a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
    return SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])


class TestFlowEven:
    def test_translation_field(self):
        X = SuperVectorField(1, 0, Parity.EVEN, [GrassmannPoly.constant(1, 0, 1.0)])
        tr = flow_even(X, [G.scalar(3, 0.25)], 1.0, 16)
        assert abs(tr.final()[0].body - 1.25) < 1e-14

    def test_linear_field_exponential(self):
        X = SuperVectorField(1, 0, Parity.EVEN,
                             [GrassmannPoly.from_even(1, 0, PolyMap(1, {(1,): 1.0}))])
        tr = flow_even(X, [G.one(3)], 1.0, 1000)
        assert abs(tr.final()[0].body - np.e) < 1e-8

    def test_nilpotent_constant_field(self):
        lam = G.monomial(3, (1, 2))
        X = SuperVectorField(1, 0, Parity.EVEN, [GrassmannPoly.lambda_constant(1, 0, lam)])
        tr = flow_even(X, [G.scalar(3, 2.0)], 1.0, 16)
        assert tr.final()[0] == G.from_terms(3, {(): 2.0, (1, 2): 1.0})

    def test_semigroup_property(self, rng):
        X = SuperVectorField(1, 1, Parity.EVEN, [
            GrassmannPoly(1, 1, {(): PolyMap(1, {(0,): 0.2, (1,): 0.5})}),
            GrassmannPoly(1, 1, {(0,): PolyMap(1, {(1,): -0.4})}),
        ])
        n = 3
        init = [G.from_terms(n, {(): 0.5, (1, 2): 0.2}), G.generator(n, 1) * 0.6]
        whole = flow_even(X, init, 1.0, 512).final()
        half = flow_even(X, init, 0.5, 256).final()
        rest = flow_even(X, half, 0.5, 256).final()
        for u, v in zip(whole, rest):
            assert u.allclose(v, 1e-9)

    def test_step_count_guard(self):
        X = SuperVectorField(1, 0, Parity.EVEN, [GrassmannPoly.constant(1, 0, 1.0)])
        with pytest.raises(ResolutionError):
            flow_even(X, [G.scalar(2, 0.0)], 1.0, 1)

    def test_parity_guards(self):
        X = d_analog_field()
        with pytest.raises(ParityError):
            flow_even(X, [G.scalar(2, 0.0), G.generator(2, 1)], 1.0, 16)
        Y = SuperVectorField(1, 0, Parity.EVEN, [GrassmannPoly.constant(1, 0, 1.0)])
        with pytest.raises(ParityError):
            flow_even(Y, [G.generator(2, 1)], 1.0, 16)
        # the initial point is checked on entry only, never at the RK stages
        for init in ([G.generator(2, 1), G.generator(2, 2)], [G.scalar(2, 0.5), G.scalar(2, 1.0)]):
            with pytest.raises(ParityError, match="wrong parity"):
                flow_odd(X, init, SuperPoint.at(2, 1.0), 16)

    def test_malformed_initial_points_are_dimension_errors(self):
        # a count or algebra mismatch is a shape fault, not a parity fault
        X = d_analog_field()
        good = [G.scalar(2, 0.5), G.generator(2, 1)]
        for init in ([G.scalar(2, 0.5)], good + [G.generator(2, 2)],
                     [G.scalar(2, 0.5), G.generator(3, 1)]):
            with pytest.raises(DimensionError):
                flow_even(X.squared(), init, 1.0, 16)
            with pytest.raises(DimensionError):
                flow_odd(X, init, SuperPoint.at(2, 1.0), 16)
            with pytest.raises(DimensionError):
                flow_odd_residual(X, init, 1.0, 16)
        with pytest.raises(DimensionError):
            flow_odd(X, good, SuperPoint.at(3, 1.0), 16)

    def test_blow_up_raises(self):
        X = SuperVectorField(1, 0, Parity.EVEN,
                             [GrassmannPoly.from_even(1, 0, PolyMap(1, {(2,): 1.0}))])
        with pytest.raises(DomainError):
            flow_even(X, [G.scalar(2, 2.0)], 5.0, 2000)

    def test_csv_dump(self, tmp_path):
        X = SuperVectorField(1, 0, Parity.EVEN, [GrassmannPoly.constant(1, 0, 1.0)])
        tr = flow_even(X, [G.scalar(2, 0.0)], 1.0, 8)
        out = tmp_path / "traj.csv"
        tr.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,x1[]")
        assert len(lines) == 10

    def test_against_component_oracle(self, rng):
        # Grassmann-arithmetic integration vs the expanded real system
        X = SuperVectorField(2, 1, Parity.EVEN, [
            GrassmannPoly(2, 1, {(): PolyMap(2, {(0, 0): 0.3, (1, 0): 0.4, (0, 1): -0.2})}),
            GrassmannPoly(2, 1, {(): PolyMap(2, {(0, 0): -0.1, (0, 1): 0.5})}),
            GrassmannPoly(2, 1, {(0,): PolyMap(2, {(1, 0): 0.7})}),
        ])
        n = 3
        init = [G.from_terms(n, {(): 0.5, (1, 2): 0.2}),
                G.from_terms(n, {(): -0.3, (2, 3): -0.4}),
                G.generator(n, 1) * 0.8]
        tr = flow_even(X, init, 1.0, 400)
        got = np.stack([v.comps for v in tr.final()])
        want = flow_oracle(X, np.stack([v.comps for v in init]), 1.0, n)
        assert float(np.max(np.abs(got - want))) < 1e-9


class TestFlowOdd:
    def test_shift_field(self):
        # X = d/dzeta: alpha(t, theta, (x0, z0)) = (x0, z0 + theta)
        a_x = GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 0.0)})
        a_z = GrassmannPoly(1, 1, {(): PolyMap.constant(1, 1.0)})
        X = SuperVectorField(1, 1, Parity.ODD, [a_x, a_z])
        n = 2
        x0, z0 = G.scalar(n, 0.4), G.generator(n, 1) * 0.5
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2))
        out = flow_odd(X, [x0, z0], end, 64)
        assert out[0] == x0
        assert out[1] == z0 + end.theta

    def test_analog_flow_is_left_translation(self):
        X = d_analog_field()
        n = 3
        x0 = G.scalar(n, 0.5)
        z0 = G.generator(n, 1) * 0.5
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2))
        out = flow_odd(X, [x0, z0], end, 512)
        assert out[0] == end.t + x0 + end.theta * z0
        assert out[1] == end.theta + z0

    def test_defining_equation_residual(self):
        X = generic_odd_field({(0,): 0.3, (1,): 0.7})
        n = 3
        init = [G.scalar(n, 0.5), G.generator(n, 1) * 0.5]
        assert flow_odd_residual(X, init, 1.0, 128) < 1e-7

    def test_restriction_is_flow_of_square(self):
        X = generic_odd_field({(0,): 0.3, (1,): 0.7, (2,): -0.2})
        n = 3
        init = [G.from_terms(n, {(): 0.5, (1, 2): 0.1}), G.generator(n, 1) * 0.5]
        Y = X.squared()
        out0 = flow_odd(X, init, SuperPoint.at(n, 1.0), 256)
        final = flow_even(Y, init, 1.0, 256).final()
        for u, v in zip(out0, final):
            assert u.allclose(v, 1e-9)

    def test_soulful_endpoint(self):
        X = d_analog_field()
        n = 3
        x0, z0 = G.scalar(n, 0.25), G.generator(n, 1) * 0.5
        t = G.scalar(n, 1.0) + G.monomial(n, (1, 2), 0.25)
        end = SuperPoint(t, G.generator(n, 3) * 0.5)
        out = flow_odd(X, [x0, z0], end, 256)
        assert out[0] == end.t + x0 + end.theta * z0
        assert out[1] == end.theta + z0

    def test_soul_series_to_all_orders(self):
        # X = z d/dx + x d/dz squares to x d/dx + z d/dz, so from (0.5, 0) the
        # flow is G(t) = 0.5 e^t; at t = 1 + e12 + e34 + e56 every soul power
        # up to the cube counts, and the e123456 coefficient is 0.5 e
        X = SuperVectorField(1, 1, Parity.ODD, [
            GrassmannPoly(1, 1, {(0,): PolyMap.constant(1, 1.0)}),
            GrassmannPoly(1, 1, {(): PolyMap(1, {(1,): 1.0})}),
        ])
        n = 6
        soul = {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}
        exp_soul, power = {(): 1.0}, {(): 1.0}
        for k in range(1, 4):
            power = gmul(power, soul)
            exp_soul = gadd(exp_soul, gscale(1.0 / math.factorial(k), power))
        want = to_components(gscale(0.5 * math.e, exp_soul), n)
        end = SuperPoint(G.from_terms(n, {(): 1.0, **soul}), G.zero(n))
        errs = []
        for steps in (100, 400):
            x, z = flow_odd(X, [G.scalar(n, 0.5), G.zero(n)], end, steps)
            assert z.norm() == 0.0
            errs.append(float(np.max(np.abs(x.comps - want))))
        assert errs[1] < 1e-10 and errs[1] <= errs[0]

    def test_family_valued_field_at_soulful_time(self):
        # X = c z d/dx + d/dz with the family payload c = 1 + e12/2 squares to
        # c d/dx, so from (0.5, 0) the flow is (0.5 + c t, 0); the soul e34/4
        # squares to zero, so only the first derivative enters the series
        n = 4
        c = G.from_terms(n, {(): 1.0, (1, 2): 0.5})
        X = SuperVectorField(1, 1, Parity.ODD, [
            GrassmannPoly.lambda_constant(1, 1, c, odd_indices=(0,)),
            GrassmannPoly.lambda_constant(1, 1, G.one(n)),
        ])
        end = SuperPoint(G.from_terms(n, {(): 1.0, (3, 4): 0.25}), G.zero(n))
        x, z = flow_odd(X, [G.scalar(n, 0.5), G.zero(n)], end, 16)
        assert x.allclose(G.scalar(n, 0.5) + c * end.t, 1e-14)
        assert z.norm() == 0.0

    def test_family_valued_field_squaring_to_zero(self):
        # X = e1 d/dx + d/dz over Lambda_4 has X^2 = 0, so the flow from
        # (0.5, 0) stays put; the soul e23/2 + e14 has a nonzero square, so
        # the series asks for the second derivative, built from X^2
        n = 4
        X = SuperVectorField(1, 1, Parity.ODD, [
            GrassmannPoly.lambda_constant(1, 1, G.generator(n, 1)),
            GrassmannPoly.lambda_constant(1, 1, G.one(n)),
        ])
        end = SuperPoint(G.from_terms(n, {(): 1.0, (2, 3): 0.5, (1, 4): 1.0}), G.zero(n))
        x, z = flow_odd(X, [G.scalar(n, 0.5), G.zero(n)], end, 16)
        assert x == G.scalar(n, 0.5)
        assert z.norm() == 0.0

    def test_family_valued_field_at_soul_with_nonzero_square(self):
        # the field of test_family_valued_field_at_soulful_time at
        # t = 1 + e13 + e24, whose soul squares to 2 e1324: the series
        # reaches k = 2, and the flow is still x = 0.5 + c t
        n = 4
        c = G.from_terms(n, {(): 1.0, (1, 2): 0.5})
        X = SuperVectorField(1, 1, Parity.ODD, [
            GrassmannPoly.lambda_constant(1, 1, c, odd_indices=(0,)),
            GrassmannPoly.lambda_constant(1, 1, G.one(n)),
        ])
        end = SuperPoint(G.from_terms(n, {(): 1.0, (1, 3): 1.0, (2, 4): 1.0}), G.zero(n))
        x, z = flow_odd(X, [G.scalar(n, 0.5), G.zero(n)], end, 16)
        assert x.allclose(G.scalar(n, 0.5) + c * end.t, 1e-14)
        assert z.norm() == 0.0


def generic_field_r12():
    """A polynomial odd field on R^{1|2} with every coefficient x-dependent."""
    return SuperVectorField(1, 2, Parity.ODD, [
        GrassmannPoly(1, 2, {(0,): PolyMap(1, {(0,): 0.3, (1,): 0.5}),
                             (1,): PolyMap(1, {(0,): -0.2, (2,): 0.4})}),
        GrassmannPoly(1, 2, {(): PolyMap(1, {(0,): 1.0, (1,): -0.3}),
                             (0, 1): PolyMap(1, {(1,): 0.6})}),
        GrassmannPoly(1, 2, {(): PolyMap(1, {(0,): 0.4, (2,): 0.2}),
                             (0, 1): PolyMap(1, {(0,): -0.5})}),
    ])


def family_field_r11(n):
    """c z d/dx + (1 + 0.3 x) d/dz with the family payload c = 1 + e12/2."""
    c = G.from_terms(n, {(): 1.0, (1, 2): 0.5})
    return SuperVectorField(1, 1, Parity.ODD, [
        GrassmannPoly.lambda_constant(1, 1, c, odd_indices=(0,)),
        GrassmannPoly(1, 1, {(): PolyMap(1, {(0,): 1.0, (1,): 0.3})}),
    ])


class TestFlowOddAgainstThetaRoute:
    """flow_odd integrates X^2; the oracle marches the theta-component of
    a(G + theta*a(G)) and takes the soul's jets in Taylor mode, never
    building X^2.  Both soulful times below have a nonzero square, so the
    series reaches the second jet."""

    n = 4

    def cases(self):
        n = self.n
        generic = (generic_field_r12(),
                   [G.from_terms(n, {(): 0.4, (1, 2): 0.3, (3, 4): -0.2}),
                    G.from_terms(n, {(1,): 0.5, (2, 3, 4): 0.1}),
                    G.from_terms(n, {(2,): -0.3, (4,): 0.2})],
                   SuperPoint(G.from_terms(n, {(): 0.8, (1, 3): 0.5, (2, 4): -0.4, (1, 2): 0.3}),
                              G.from_terms(n, {(1,): 0.6, (3,): -0.5, (1, 2, 4): 0.2})))
        family = (family_field_r11(n),
                  [G.from_terms(n, {(): 0.5, (1, 3): 0.2}), G.generator(n, 2) * 0.3],
                  SuperPoint(G.from_terms(n, {(): 1.0, (1, 3): 1.0, (2, 4): 1.0}),
                             G.generator(n, 1) * 0.5))
        return {"generic-R12": generic, "family": family}

    @pytest.mark.parametrize("case", ["generic-R12", "family"])
    def test_matches_oracle(self, case):
        X, init, end = self.cases()[case]
        got = np.stack([v.comps for v in flow_odd(X, init, end, 16)])
        want = odd_flow_oracle(X, np.stack([v.comps for v in init]), end.t.terms(),
                               end.theta.terms(), self.n, 16)
        assert float(np.max(np.abs(got - want))) <= 1e-14
        # the value has soul components, from the jets and from theta
        assert float(np.max(np.abs(got[:, 1:]))) > 0.1

    @pytest.mark.parametrize("case", ["generic-R12", "family"])
    def test_defining_equation_residual(self, case):
        X, init, end = self.cases()[case]
        assert flow_odd_residual(X, init, end.t.body, 128) < 1e-7
