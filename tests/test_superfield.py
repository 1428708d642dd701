"""Theta-expansions, odd derivations, and the group structure of R^{1|1}."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supertransport.errors import ParityError, ResolutionError
from supertransport.grassmann import GrassmannElement, Parity, scale_stack, total_parities
from supertransport.superfield import (
    Grid,
    SuperField,
    SuperPoint,
    fd4_stack,
    interpolate_stack,
)

from reference import taylor_at, value_at


def scalar_field(n, grid, a_of_t, b_of_t):
    ts = grid.times()
    dim = 1 << n
    a = np.zeros((grid.nodes, dim, 1, 1))
    b = np.zeros((grid.nodes, dim, 1, 1))
    for k, t in enumerate(ts):
        a[k, :, 0, 0] = a_of_t(t)
        b[k, :, 0, 0] = b_of_t(t)
    return SuperField(grid, n, a, b, (1, 0), (1, 0), None, None)


def dyadic_points(n):
    coeff = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8.0)
    def build(args):
        body, soul, th1, th2 = args
        t = GrassmannElement.scalar(n, body) + GrassmannElement.monomial(n, (1, 2), soul)
        theta = (GrassmannElement.generator(n, 1) * th1
                 + GrassmannElement.generator(n, 2) * th2)
        return SuperPoint(t, theta)
    return st.tuples(coeff, coeff, coeff, coeff).map(build)


class TestSuperPoint:
    def test_group_law_example(self):
        n = 2
        p = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 1))
        q = SuperPoint(GrassmannElement.scalar(n, 2.0), GrassmannElement.generator(n, 2))
        pq = p.compose(q)
        assert pq.t.terms() == {(): 3.0, (1, 2): 1.0}
        assert pq.theta.terms() == {(1,): 1.0, (2,): 1.0}

    def test_identity_and_inverse(self):
        n = 2
        p = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 1))
        e = SuperPoint.identity(n)
        assert p.compose(e).allclose(p) and e.compose(p).allclose(p)
        assert p.inverse().t.body == -1.0
        assert p.compose(p.inverse()).allclose(e)
        assert p.inverse().compose(p).allclose(e)

    @settings(max_examples=100, deadline=None)
    @given(dyadic_points(2), dyadic_points(2), dyadic_points(2))
    def test_associativity_exact(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.t == rhs.t and lhs.theta == rhs.theta

    @settings(max_examples=60, deadline=None)
    @given(dyadic_points(2))
    def test_inverse_exact(self, p):
        for q in (p * p.inverse(), p.inverse() * p):
            assert q.t.norm() == 0.0 and q.theta.norm() == 0.0

    def test_order(self):
        n = 2
        assert SuperPoint.at(n, 0.0) < SuperPoint.at(n, 1.0)
        p = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 1))
        q = SuperPoint(GrassmannElement.scalar(n, 1.0), GrassmannElement.generator(n, 2))
        assert not p < q  # body difference is zero
        t = GrassmannElement.scalar(n, 1.0) + GrassmannElement.monomial(n, (1, 2))
        r = SuperPoint(t, GrassmannElement.generator(n, 2))
        s = SuperPoint(GrassmannElement.zero(n), GrassmannElement.generator(n, 1))
        assert s < r

    def test_parity_validation(self):
        n = 2
        with pytest.raises(ParityError):
            SuperPoint(GrassmannElement.generator(n, 1), GrassmannElement.zero(n))
        with pytest.raises(ParityError):
            SuperPoint(GrassmannElement.zero(n), GrassmannElement.one(n))

    def test_json_round_trip(self):
        n = 2
        p = SuperPoint(GrassmannElement.scalar(n, 0.75) + GrassmannElement.monomial(n, (1, 2), 0.5),
                       GrassmannElement.generator(n, 1) * 0.25)
        back = SuperPoint.from_json_dict(n, p.to_json_dict())
        assert back.t == p.t and back.theta == p.theta


class TestDerivations:
    def test_field_t(self):
        # psi = t: D psi = theta, Q psi = -theta (the a-part vanishes)
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [t, 0, 0, 0], lambda t: [0, 0, 0, 0])
        D = psi.apply_derivation("D")
        assert float(np.abs(D.a).max()) < 1e-12
        assert np.allclose(D.b[:, 0, 0, 0], 1.0, atol=1e-11)
        Q = psi.apply_derivation("Q")
        assert np.allclose(Q.b[:, 0, 0, 0], -1.0, atol=1e-11)

    def test_field_theta(self):
        # psi = theta: Q psi = 1 (and D psi = 1)
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [0, 0, 0, 0], lambda t: [1, 0, 0, 0])
        Q = psi.apply_derivation("Q")
        assert np.allclose(Q.a[:, 0, 0, 0], 1.0)
        assert float(np.abs(Q.b).max()) == 0.0

    def test_dd_identities_constant_and_theta(self):
        grid = Grid(0.0, 0.01, 101)
        const = scalar_field(2, grid, lambda t: [3.0, 0, 0, 0], lambda t: [0, 0, 0, 0])
        assert const.dd_identity_check() == (0.0, 0.0)
        theta = scalar_field(2, grid, lambda t: [0, 0, 0, 0], lambda t: [1, 0, 0, 0])
        assert theta.dd_identity_check() == (0.0, 0.0)

    def test_dd_identities_against_symbolic_derivative(self):
        # psi = t^2 + theta t, exact dt psi = 2t + theta
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [t * t, 0, 0, 0], lambda t: [t, 0, 0, 0])
        dt = scalar_field(2, grid, lambda t: [2 * t, 0, 0, 0], lambda t: [1.0, 0, 0, 0])
        res_d, res_q = psi.dd_identity_check(dt_reference=dt)
        assert res_d < 1e-10 and res_q < 1e-10

    def test_resolution_error(self):
        grid = Grid(0.0, 0.25, 4)
        psi = scalar_field(2, grid, lambda t: [t, 0, 0, 0], lambda t: [0, 0, 0, 0])
        with pytest.raises(ResolutionError):
            psi.apply_derivation("D")

    def test_fd4_stack_exact_on_quartics_in_any_layout(self, rng):
        # the stencils are exact on quartics; a view in another memory layout
        # (strided, transposed, read-only) gives the result of its C copy
        h = 0.125
        ts = np.arange(11) * h
        coeffs = rng.normal(size=(5, 3, 4))
        values = np.einsum("kij,tk->tij", coeffs, ts[:, None] ** np.arange(5))
        slopes = np.einsum("kij,tk->tij", coeffs[1:] * np.arange(1, 5)[:, None, None],
                           ts[:, None] ** np.arange(4))
        got = fd4_stack(values, h)
        assert np.max(np.abs(got - slopes)) < 1e-11
        frozen = values.copy()
        frozen.setflags(write=False)
        for view in (values[:, :, ::2], values.swapaxes(1, 2), np.asfortranarray(values), frozen):
            assert np.array_equal(fd4_stack(view, h), fd4_stack(view.copy(), h))

    def test_unknown_derivation(self):
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [t, 0, 0, 0], lambda t: [0, 0, 0, 0])
        with pytest.raises(ValueError):
            psi.apply_derivation("X")


class TestEvaluation:
    def test_taylor_at_soulful_time(self):
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [t * t, 0, 0, 0], lambda t: [0, 0, 0, 0])
        t = GrassmannElement.from_terms(2, {(): 0.5, (1, 2): 0.3})
        val = taylor_at(psi, "a", t)
        assert abs(val.comps[0, 0, 0] - 0.25) < 1e-10
        assert abs(val.comps[3, 0, 0] - 0.3) < 1e-9  # 2 t soul = 0.3

    def test_value_at_point(self):
        grid = Grid(0.0, 0.01, 101)
        psi = scalar_field(2, grid, lambda t: [t, 0, 0, 0], lambda t: [1.0, 0, 0, 0])
        pt = SuperPoint(GrassmannElement.scalar(2, 0.5), GrassmannElement.generator(2, 1))
        val = value_at(psi, pt)
        # t + theta evaluated: 0.5 + e1
        assert abs(val.comps[0, 0, 0] - 0.5) < 1e-12
        assert abs(val.comps[1, 0, 0] - 1.0) < 1e-12


class TestSubstitution:
    def test_right_translation_commutes_with_D(self, rng):
        from supertransport.verify import random_polynomial_field
        n = 2
        field, _ = random_polynomial_field(rng, n, grid=Grid(-0.5, 1e-2, 201))
        shift = SuperPoint(GrassmannElement.scalar(n, 0.3),
                           GrassmannElement.generator(n, 1) * 0.4)
        new_grid = Grid(0.0, 1e-2, 101)
        lhs = field.apply_derivation("D").right_translated(shift, new_grid)
        rhs = field.right_translated(shift, new_grid).apply_derivation("D")
        assert lhs.distance(rhs) < 1e-8

    def test_inversion_intertwines(self, rng):
        from supertransport.verify import random_polynomial_field
        n = 2
        field, _ = random_polynomial_field(rng, n, grid=Grid(-1.0, 1e-2, 201))
        inv_grid = Grid(-0.9, 1e-2, 181)
        lhs = field.inverted(inv_grid).apply_derivation("D")
        rhs = field.apply_derivation("Q").inverted(inv_grid).scaled(-1.0)
        assert lhs.distance(rhs) < 1e-8


def graded_field(rng, n, grid, rows, cols, a_parity, b_parity):
    total = total_parities(n, rows, cols)
    shape = (grid.nodes, 1 << n, sum(rows), sum(cols))
    a = rng.uniform(-1, 1, shape) * (total == a_parity)
    b = rng.uniform(-1, 1, shape) * (total == b_parity)
    return SuperField(grid, n, a, b, rows, cols, a_parity, b_parity)


class TestBatchedFieldOps:
    """The whole-grid field operations against their node-by-node formulas."""

    @pytest.mark.parametrize("rhs_parities", [(Parity.EVEN, Parity.ODD), (Parity.EVEN, Parity.EVEN)])
    def test_matmul_equals_node_by_node(self, rng, rhs_parities):
        n, grid = 3, Grid(0.0, 1e-2, 21)
        f = graded_field(rng, n, grid, (1, 1), (2, 1), Parity.ODD, Parity.EVEN)
        g = graded_field(rng, n, grid, (2, 1), (1, 0), *rhs_parities)
        prod = f.matmul(g)
        for k in range(grid.nodes):
            a, b, a2, b2 = f.a_matrix(k), f.b_matrix(k), g.a_matrix(k), g.b_matrix(k)
            want_a = a @ a2
            want_b = b @ a2 + a.parity_involution() @ b2
            assert np.array_equal(prod.a[k], want_a.comps)
            assert np.array_equal(prod.b[k], want_b.comps)
        assert (prod.a_parity, prod.b_parity) == (want_a.parity, want_b.parity)
        assert (prod.row_split, prod.col_split) == ((1, 1), (1, 0))
        assert prod.parity_residual() == 0.0

    def test_substitute_equals_node_by_node(self, rng):
        n, grid = 3, Grid(-1.0, 1e-2, 201)
        field = graded_field(rng, n, grid, (1, 1), (1, 1), Parity.ODD, Parity.EVEN)
        G = GrassmannElement
        shift = SuperPoint(G.scalar(n, 0.3), G.generator(n, 1) * 0.4 + G.generator(n, 3) * 0.2)
        da, db = (fd4_stack(s, grid.h) for s in (field.a, field.b))
        # batched and scalar interpolation sum the same five terms in another order
        tol = 8 * np.finfo(float).eps * max(np.abs(st).max() for st in (field.a, field.b, da, db))
        cases = [(field.right_translated(shift, Grid(0.0, 1e-2, 61)), 1.0, shift.t.body,
                  shift.theta, shift.theta, 1.0),
                 (field.inverted(Grid(-0.9, 1e-2, 181)), -1.0, 0.0, G.zero(n), G.zero(n), -1.0)]
        for got, sign, shift_body, rho, tau, e in cases:
            for k, u in enumerate(got.grid.times()):
                s = sign * u + shift_body
                a_s, b_s, da_s, db_s = (interpolate_stack(grid, st, s)
                                        for st in (field.a, field.b, da, db))
                want_a = a_s + scale_stack(n, tau.comps, b_s)
                want_b = (scale_stack(n, rho.comps, da_s) + e * b_s
                          - scale_stack(n, (tau * rho).comps, db_s))
                assert np.max(np.abs(got.a[k] - want_a)) <= tol
                assert np.max(np.abs(got.b[k] - want_b)) <= tol
            assert (got.a_parity, got.b_parity) == (Parity.ODD, Parity.EVEN)
