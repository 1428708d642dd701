"""The half-order solver and the transport-map operations."""

import math
import re
import time
import warnings

import numpy as np
import pytest

from supertransport.errors import (
    CompatibilityError,
    DomainError,
    OrientationError,
    UnderdeterminedError,
)
from supertransport.geometry import (
    Connection,
    Curve,
    DifferentialForm,
    GrassmannPoly,
    SuperPath,
    Superconnection,
    connection_coefficient,
    lift_pullback,
    superconnection_coefficient,
)
from supertransport import grassmann, transport
from supertransport.grassmann import (
    AlgebraMap,
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    graded_expm,
)
from supertransport.superfield import Grid, SuperPoint
from supertransport.transport import (
    TransportData,
    TransportMap,
    adiabatic_sweep,
    glue,
    glued_endpoint,
    lift_problem,
    ps,
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
    random_superconnection,
)

from reference import (
    endpoint_at_node,
    rk4_march_oracle,
    solution_matrix_to_stack,
    transport_oracle,
)

G = GrassmannElement


def closed_form_map(n, rank, A0, end):
    A = GradedMatrix.from_real(n, A0, rank, rank, Parity.ODD)
    A2 = GradedMatrix.from_real(n, A0 @ A0, rank, rank, Parity.EVEN)
    return graded_expm(A2.scale_left(-end.t) + A.scale_left(end.theta))


def point_case(n, A0, rank=(1, 1)):
    conn = Connection.zero(0, 0, rank)
    form = DifferentialForm.constant_form(0, 0, rank, Parity.ODD, {(): A0})
    return SuperPath(0, 0, n, [], [], 1.0), Superconnection(conn, (form,))


class TestSolver:
    def test_zero_coefficient_is_identity(self):
        n = 2
        grid = Grid(0.0, 2.5e-3, 401)
        dim = 1 << n
        zero = np.zeros((grid.nodes, dim, 2, 2))
        from supertransport.superfield import SuperField
        field = SuperField(grid, n, zero, zero, (1, 1), (1, 1), Parity.ODD, Parity.EVEN)
        for end in (SuperPoint.at(n, 1.0),
                    SuperPoint(G.scalar(n, 0.5), G.generator(n, 1)),
                    SuperPoint(G.scalar(n, 1.0) + G.monomial(n, (1, 2), 0.3), G.zero(n))):
            m = solve_parallel(field, end)
            assert m.distance(GradedMatrix.identity(n, (1, 1))) == 0.0

    def test_point_case_closed_form(self):
        n = 2
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        path, sc = point_case(n, A0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        tm = sp(path, sc, end, steps=1000)
        assert tm.matrix.distance(closed_form_map(n, (1, 1), A0, end)) < 1e-8

    def test_against_component_oracle(self, rng):
        # reduced system vs the flattened real linear system, N = 2, rank 1|1
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        grid = Grid(0.0, 1.25e-3, 801)
        field = superconnection_coefficient(path, sc, grid, "D")
        got = solve_parallel(field, SuperPoint.at(n, 1.0))
        flat = transport_oracle(field, 1.0)
        want = solution_matrix_to_stack(flat, n, 2)
        assert float(np.max(np.abs(got.comps - want))) < 1e-9

    def test_parity_inconsistent_field_rejected(self):
        from supertransport.errors import ParityError
        from supertransport.superfield import SuperField
        n = 2
        grid = Grid(0.0, 2.5e-3, 401)
        stacks = np.zeros((grid.nodes, 1 << n, 2, 2))
        field = SuperField(grid, n, stacks, stacks, (1, 1), (1, 1),
                           Parity.EVEN, Parity.ODD)  # wrong way around
        with pytest.raises(ParityError):
            solve_parallel(field, SuperPoint.at(n, 1.0))

    def test_wrong_parity_path_coordinate_rejected(self, workloads):
        # pullback assembly checks the path coordinates once per block of
        # nodes, no longer once per coefficient, and still rejects them
        from supertransport.errors import ParityError
        _, sc, end = workloads.chart_problem(np.random.default_rng(1))
        n = end.n
        for a in ([G.generator(n, 1), 0.0], [0.0, G.generator(n, 2) * 0.5]):
            bad = SuperPath.line(n, a, [0.0, 0.0], [G.zero(n), G.zero(n)], 1.0)
            with pytest.raises(ParityError, match="has a value of the wrong parity"):
                sp(bad, sc, end, steps=6)

    def test_endpoint_outside_grid(self):
        n = 2
        A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        path, sc = point_case(n, A0)
        with pytest.raises(DomainError):
            sp(path, sc, SuperPoint.at(n, 2.0))

    def test_lambda_linearity_exact(self):
        # dyadic data: transporting u*psi0 equals u times the transport
        n = 2
        A0 = np.array([[0.0, 0.5], [0.25, 0.0]])
        path, sc = point_case(n, A0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        tm = sp(path, sc, end, steps=64)
        u = G.from_terms(n, {(): 2.0, (1, 2): 0.5})  # even, dyadic
        psi0 = [G.one(n), G.from_terms(n, {(1,): 1.0})]
        lhs = tm.matrix.apply([u * v for v in psi0])
        rhs = [u * w for w in tm.matrix.apply(psi0)]
        for a, b in zip(lhs, rhs):
            assert a == b

    def test_fourth_order_convergence(self):
        n = 2
        A0 = np.array([[0.0, 0.9], [0.7, 0.0]])
        path, sc = point_case(n, A0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        exact = closed_form_map(n, (1, 1), A0, end)
        errors = [sp(path, sc, end, steps=s).matrix.distance(exact) for s in (10, 20, 40)]
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 13.0 <= r1 <= 19.0 and 13.0 <= r2 <= 19.0

    def test_overflowed_map_is_not_finite(self, monkeypatch):
        # an overflowed march is reported as such, not as a singular body; the
        # product of the step maps is checked before the endpoint series, and
        # NumPy does not warn
        n = 2
        path, sc = point_case(n, np.array([[0.0, 300.0], [300.0, 0.0]]))
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        stages = []
        mul_stacks = transport.mul_stacks

        def counted(*args):
            stages.append(1)
            return mul_stacks(*args)

        monkeypatch.setattr(transport, "mul_stacks", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="^transport map is not finite$"):
                sp(path, sc, end, steps=40)
        assert caught == [] and 0 < len(stages) < 4 * 40
        singular = GradedMatrix.from_real(n, np.zeros((2, 2)), (1, 1), (1, 1), Parity.EVEN)
        with pytest.raises(DomainError, match="singular body"):
            TransportMap(singular, end)

    def test_transport_map_json_round_trip(self, rng):
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = random_point(rng, n)
        tm = sp(path, sc, end, steps=50)
        back = TransportMap.from_json_dict(tm.to_json_dict())
        assert np.array_equal(back.matrix.comps, tm.matrix.comps)
        assert back.end.allclose(tm.end, 0.0)


POINT_A0 = np.array([[0.0, 0.0, 0.6, -0.3], [0.0, 0.0, 0.2, 0.5],
                     [0.4, 0.1, 0.0, 0.0], [-0.5, 0.3, 0.0, 0.0]])


def soulful_point_case(n):
    """Transport over a point, rank 2|2, to t = 1 + s with s on the generator
    pairs and theta on every generator."""
    path, sc = point_case(n, POINT_A0, rank=(2, 2))
    t = G.scalar(n, 1.0)
    for k in range(1, n // 2 + 1):
        t = t + G.monomial(n, (2 * k - 1, 2 * k), 0.3 * (-1) ** k)
    theta = G.zero(n)
    for k in range(1, n + 1):
        theta = theta + G.generator(n, k) * (0.5 / k)
    return path, sc, SuperPoint(t, theta)


def factorised_point_map(end):
    """exp(-tA^2 + theta A) at t = 1 + s as exp(-A^2) sum_k (-s)^k A^2k / k! (1 + theta A).

    The three exponents commute and (theta A)^2 = 0, and every matrix is real,
    so the components are sums of scalar components times real matrices.
    """
    n, theta = end.t.n, end.theta
    soul = end.t - G.scalar(n, 1.0)
    rank, A2 = (2, 2), POINT_A0 @ POINT_A0
    E = graded_expm(GradedMatrix.from_real(0, -A2, rank, rank, Parity.EVEN)).comps[0]
    comps = np.zeros((1 << n, 4, 4))
    power = G.one(n)
    for k in range(n // 2 + 1):
        B = E @ np.linalg.matrix_power(-A2, k) / math.factorial(k)
        comps += power.comps[:, None, None] * B + (theta * power).comps[:, None, None] * (B @ POINT_A0)
        power = power * soul
    return GradedMatrix(n, comps, rank, rank, Parity.EVEN)


class TestSoulFreeFactors:
    """Over a point the march multiplies soul-free matrices, which skip the
    ring kernel's pair table."""

    def test_table_gathered_only_for_two_soulful_factors(self, monkeypatch):
        path, sc, end = soulful_point_case(8)  # the benchmark's point problem
        sp(path, sc, end, steps=2)  # fills the parity caches, which read _tables too
        tables, ring_product = grassmann._tables, grassmann._ring_product
        gathers, soulful = [], []

        def counted_tables(n):
            gathers.append(n)
            return tables(n)

        def counted_product(n, a, b, op):
            if np.count_nonzero(a[1:]) and np.count_nonzero(b[1:]):
                soulful.append(n)
            return ring_product(n, a, b, op)

        monkeypatch.setattr(grassmann, "_tables", counted_tables)
        monkeypatch.setattr(grassmann, "_ring_product", counted_product)
        sp(path, sc, end, steps=2)
        assert gathers == soulful and 0 < len(gathers) <= 10

    def test_factorised_reference(self):
        path, sc, end = soulful_point_case(4)
        want = closed_form_map(4, (2, 2), POINT_A0, end)
        assert factorised_point_map(end).distance(want) < 1e-14

    def test_twelve_generators(self):
        path, sc, end = soulful_point_case(12)
        tm = sp(path, sc, end, steps=100)
        assert tm.matrix.distance(factorised_point_map(end)) < 1e-5


class TestLivePairs:
    """Products gather only the key pairs of nonzero components, so data on
    a few generators costs what it spans, whatever N."""

    @staticmethod
    def _assert_embedded(workloads, n, cpu_bound):
        # the benchmark's Quillen data, odd only on e1..e4: at N = n every
        # product lies in the span of those four and theta, and the maps
        # are the N = 4 ones embedded, bit for bit
        maps = {}
        for size in (4, n):
            path, sc, end = workloads.chart_problem(np.random.default_rng(1), size)
            start = time.process_time()
            maps[size] = [sp(path, sc, end, steps=20).matrix.comps,
                          reverse_transport(path, sc, end, steps=20).matrix.comps]
            cpu = time.process_time() - start
        assert cpu < cpu_bound
        for small, big in zip(maps[4], maps[n]):
            embedded = np.zeros_like(big)
            embedded[:len(small)] = small
            assert np.any(small[1:]) and np.array_equal(big, embedded)

    def test_chart_problem_at_eleven_generators(self, workloads):
        self._assert_embedded(workloads, 11, 5.0)  # on all 3**12 pairs per product it took 17 s

    def test_chart_problem_at_twelve_generators(self, workloads):
        # theta is generator 13 here, the slot the tables keep above the limit
        self._assert_embedded(workloads, 12, 8.0)


class TestThetaRoom:
    def test_thirteen_generators_rejected_while_the_data_is_built(
            self, workloads, monkeypatch):
        # the one generator limit is checked where elements are built, so
        # no path or endpoint past it reaches a transport
        from supertransport.errors import DimensionError
        calls = []
        ring_product = grassmann._ring_product

        def spy(n, a, b, op):
            calls.append(n)
            return ring_product(n, a, b, op)

        monkeypatch.setattr(grassmann, "_ring_product", spy)
        with pytest.raises(DimensionError, match=r"^generator count must be in \[0, 12\], got 13$"):
            workloads.chart_problem(np.random.default_rng(1), 13)
        assert calls == []


class TestDiagonalFlat:
    def test_diagonal_connection_supermanifold_base(self, rng):
        # diag(k1, k2) dx along a straight path vs the component oracle
        n = 2
        K = np.diag([0.8, -0.5])
        conn = Connection.from_matrix_polys(1, (1, 1), [PolyMap.constant(1, K)])
        path = SuperPath.line(n, [0.0], [1.0], [G.generator(n, 1) * 0.7], 1.0)
        grid = Grid(0.0, 1.25e-3, 801)
        field = connection_coefficient(path, conn, grid, "D")
        got = solve_parallel(field, SuperPoint.at(n, 1.0))
        flat = transport_oracle(field, 1.0)
        want = solution_matrix_to_stack(flat, n, 2)
        assert float(np.max(np.abs(got.comps - want))) < 1e-9


class TestGlue:
    def test_glue_recovers_global_path(self, rng):
        n = 2
        base = random_path(rng, n, 2, t_end=2.0)
        joint = random_point(rng, n, body_range=(0.7, 1.1))
        seg2 = base.translated(joint, t_end=2.0 - joint.t.body)
        glued = glue(base, seg2, joint)
        for t in np.linspace(0.05, 1.9, 9):
            for c1, c2 in zip(glued.a + glued.b, base.a + base.b):
                assert (c1(t) - c2(t)).norm() < 1e-12

    def test_incompatible_paths_rejected(self, rng):
        n = 2
        base = random_path(rng, n, 2, t_end=2.0)
        other = random_path(rng, n, 2, t_end=1.0)
        joint = SuperPoint.at(n, 0.8)
        with pytest.raises(CompatibilityError):
            glue(base, other, joint)

    def test_linear_segment_endpoint(self):
        n = 2
        j = SuperPoint(G.scalar(n, 0.5), G.generator(n, 1))
        e = SuperPoint(G.scalar(n, 0.7), G.generator(n, 2))
        total = glued_endpoint(j, e)
        # (t' + t + theta' theta, theta' + theta)
        assert total.t.allclose(e.t + j.t + e.theta * j.theta, 0.0)
        assert total.theta.allclose(j.theta + e.theta, 0.0)

    def test_transport_composition(self, rng):
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        base = random_path(rng, n, 2, t_end=2.0)
        lifted, data = lift_problem(base, sc)
        joint = random_point(rng, n, body_range=(0.7, 1.1))
        seg2 = lifted.translated(joint, t_end=2.0 - joint.t.body)
        glued = glue(lifted, seg2, joint)
        end2 = random_point(rng, n, body_range=(0.4, 0.8))
        lhs = sp(glued, data, glued_endpoint(joint, end2), steps=400)
        rhs = sp(seg2, data, end2, steps=200).compose(sp(lifted, data, joint, steps=200))
        assert lhs.distance(rhs) < 1e-7

    def test_gluing_associativity(self, rng):
        n = 2
        conn = random_connection(rng, 2, (1, 1))
        base = random_path(rng, n, 2, t_end=3.0)
        j1 = SuperPoint(G.scalar(n, 0.9), G.generator(n, 1) * 0.5)
        j2rel = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2) * 0.4)
        segB = base.translated(j1, t_end=3.0 - j1.t.body)
        j2abs = glued_endpoint(j1, j2rel)
        segC = base.translated(j2abs, t_end=3.0 - j2abs.t.body)
        g1 = glue(glue(base, segB, j1), segC, j2abs)
        g2 = glue(base, glue(segB, segC, j2rel), j1)
        end = SuperPoint(G.scalar(n, 2.5), G.generator(n, 1) * 0.3)
        m1 = sp(g1, conn, end, steps=300)
        m2 = sp(g2, conn, end, steps=300)
        assert m1.distance(m2) < 1e-7


class TestReverse:
    def test_constant_path_reversal(self):
        n = 2
        path = SuperPath.line(n, [0.7], [0.0], [G.zero(n)], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.5)
        rev = path.reversed_through(end)
        for t in (0.0, 0.5, 1.0):
            assert rev.a[0](t).allclose(path.a[0](t), 1e-13)

    def test_straight_path_zero_form(self, rng):
        n = 2
        conn = random_connection(rng, 1, (1, 1))
        path = SuperPath.line(n, [0.1], [0.9], [G.generator(n, 1) * 0.6], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2) * 0.4)
        fwd = sp(path, conn, end, steps=300)
        back = ps(path.reversed_through(end), conn, end, steps=300)
        assert back.compose(fwd).matrix.distance(GradedMatrix.identity(n, (1, 1))) < 1e-9

    def test_superconnection_reversal(self, rng):
        n = 2
        for _ in range(3):
            sc = random_superconnection(rng, 2, (1, 1))
            path = random_path(rng, n, 2)
            end = random_point(rng, n)
            fwd = sp(path, sc, end, steps=250)
            back = reverse_transport(path, sc, end, steps=250)
            dist = back.compose(fwd).matrix.distance(GradedMatrix.identity(n, (1, 1)))
            assert dist < 1e-7


class TestReparametrize:
    def test_identity_reparametrization(self, rng):
        n = 2
        path = random_path(rng, n, 2)
        r = Curve.identity_map(n)
        newp = reparametrize(path, r, 1.0)
        for t in np.linspace(0, 1, 5):
            for c1, c2 in zip(newp.a + newp.b, path.a + path.b):
                assert (c1(t) - c2(t)).norm() < 1e-12

    def test_rescaling_flat_connection(self):
        n = 2
        conn = Connection.zero(1, 0, (1, 1))
        path = SuperPath.line(n, [0.0], [1.0], [G.generator(n, 1)], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2) * 0.5)
        lam = 4.0
        m0 = sp(path, conn, end, steps=100)
        scaled = reparametrize(path, Curve.polynomial(n, [0.0, 1.0 / lam]), lam * 1.0)
        end_scaled = SuperPoint(end.t * lam, end.theta * math.sqrt(lam))
        m1 = sp(scaled, conn, end_scaled, steps=100)
        assert m0.distance(m1) < 1e-12

    def test_generic_reparametrization_invariance(self, rng):
        n = 2
        conn = random_connection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.6)
        m0 = sp(path, conn, end, steps=300)
        # strictly increasing quadratic-like map fixing 0 and 1
        r = Curve.polynomial(n, [0.0, 0.5, 0.5])
        newp = reparametrize(path, r, 1.0)
        end_r = SuperPoint(end.t, end.theta * (1.0 / math.sqrt(1.5)))
        m1 = sp(newp, conn, end_r, steps=300)
        assert m0.distance(m1) < 1e-7

    def test_orientation_error(self, rng):
        n = 2
        path = random_path(rng, n, 2)
        with pytest.raises(OrientationError):
            reparametrize(path, Curve.polynomial(n, [0.0, 0.0, 1.0]), 1.0)  # r' (0) = 0
        with pytest.raises(OrientationError):
            reparametrize(path, Curve.polynomial(n, [0.0, -1.0]), 1.0)


class TestAdiabatic:
    def test_limit_entry_matches_plain_connection(self, rng):
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.5)
        entries, limit = adiabatic_sweep(path, sc, [1.0, 0.5], end, steps=150)
        plain = sp(path, sc.connection, end, steps=150)
        assert limit.distance(plain) < 1e-12

    def test_point_case_closed_form(self, rng):
        n = 2
        A0 = np.array([[0.0, 0.8], [0.6, 0.0]])
        path, sc = point_case(n, A0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1))
        lambdas = [1.0, 0.25]
        entries, _ = adiabatic_sweep(path, sc, lambdas, end, steps=400)
        for lam, entry in zip(lambdas, entries):
            scaled = math.sqrt(lam) * A0
            want = closed_form_map(n, (1, 1), scaled, end)
            assert entry.map.matrix.distance(want) < 1e-8

    def test_monotone_sqrt_rate(self, rng):
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.5)
        lambdas = [2.0 ** -k for k in range(7)]
        entries, _ = adiabatic_sweep(path, sc, lambdas, end, steps=150)
        dists = [e.distance_to_limit for e in entries]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        ratios = [dists[k] / dists[k + 1] for k in range(len(dists) - 1)]
        assert all(1.2 <= q <= 1.7 for q in ratios)

    def test_rejects_nonpositive(self, rng):
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        with pytest.raises(DomainError):
            adiabatic_sweep(path, sc, [1.0, 0.0], SuperPoint.at(n, 1.0))

    @pytest.mark.parametrize("lambdas", [[1.0, math.nan], [math.inf]])
    def test_rejects_non_finite_before_assembly(self, rng, monkeypatch, lambdas):
        import supertransport.transport as transport

        def assemble(*args, **kwargs):
            raise AssertionError("a field was assembled")

        monkeypatch.setattr(transport, "connection_coefficient", assemble)
        monkeypatch.setattr(transport, "endomorphism_term", assemble)
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        with pytest.raises(DomainError, match="sweep parameters must be positive and finite"):
            adiabatic_sweep(path, sc, lambdas, SuperPoint.at(n, 1.0))


def soulful_end(n):
    t = G.scalar(n, 1.0) + G.monomial(n, (1, 2), 0.3) + G.monomial(n, (3, 4), -0.2)
    return SuperPoint(t, G.generator(n, 1) * 0.5 + G.generator(n, 4) * 0.25)


def sweep_fields(path, sc, lambdas, grid, variant):
    """The limit field and the sqrt(lambda)-scaled fields, built as the sweep does."""
    conn = connection_coefficient(path, sc.connection, grid, variant)
    lifts = [lift_pullback(path, w, grid) for w in sc.forms]
    fields = [conn]
    for lam in lambdas:
        field = conn
        for lf in lifts:
            field = field + lf.scaled(-math.sqrt(lam))
        fields.append(field)
    return fields


def same_map(got, want):
    return (np.array_equal(got.comps, want.comps) and got.parity == want.parity
            and (got.row_split, got.col_split) == (want.row_split, want.col_split))


class TestBatchedMarch:
    def test_sweep_equals_separate_solves(self, rng):
        n, steps, lambdas = 4, 20, [1.0, 0.5, 2.0 ** -6]
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = soulful_end(n)
        entries, limit = adiabatic_sweep(path, sc, lambdas, end, steps=steps)
        fields = sweep_fields(path, sc, lambdas, Grid.over(0.0, 1.0, 2 * steps + 1), "D")
        want = [solve_parallel(f, end) for f in fields]
        assert same_map(limit.matrix, want[0])
        for entry, lam, single in zip(entries, lambdas, want[1:]):
            assert entry.lam == lam and same_map(entry.map.matrix, single)
            assert entry.distance_to_limit == TransportMap(single, end).distance(limit)

    @pytest.mark.parametrize("variant", ["D", "Q"])
    def test_batch_equals_separate_solves(self, rng, variant):
        from supertransport.transport import _march
        n = 4
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = soulful_end(n)
        fields = sweep_fields(path, sc, [1.0, 0.25], Grid.over(0.0, 1.0, 41), variant)
        for got, field in zip(_march(fields, end, variant), fields):
            assert same_map(got, solve_parallel(field, end, variant))

    def test_mixed_batch_raises_like_a_single_solve(self):
        from supertransport.errors import DimensionError
        from supertransport.superfield import SuperField
        from supertransport.transport import _march

        def zero_field(grid, n=2, parities=(Parity.ODD, Parity.EVEN)):
            stacks = np.zeros((grid.nodes, 1 << n, 2, 2))
            return SuperField(grid, n, stacks, stacks, (1, 1), (1, 1), *parities)

        grid = Grid(0.0, 2.5e-3, 401)
        end = SuperPoint.at(2, 1.0)
        good = zero_field(grid)
        bad_fields = [
            zero_field(grid, parities=(Parity.EVEN, Parity.ODD)),  # wrong parity
            zero_field(Grid(0.0, 2.5e-3, 201)),  # endpoint outside the grid
            zero_field(Grid(0.0, 1.0 / 401, 402)),  # endpoint on an odd node offset
            zero_field(grid, n=3),  # another algebra
        ]
        for bad in bad_fields:
            with pytest.raises(Exception) as single:
                solve_parallel(bad, end)
            for batch in ([good, bad], [bad, good]):
                with pytest.raises(type(single.value), match=re.escape(str(single.value))):
                    _march(batch, end, "D")
        other_grid = zero_field(Grid(0.0, 1.25e-3, 801))
        assert same_map(solve_parallel(other_grid, end), solve_parallel(good, end))
        with pytest.raises(DimensionError):
            _march([good, other_grid], end, "D")

    def test_large_algebra_marches_one_problem_per_product(self, rng, monkeypatch):
        # one step of one problem at n = 9 already passes the gather cap, so
        # a batch of three must split into single problems, and the kernel
        # into single steps: no gathered operand holds more than one step of
        # one problem
        import supertransport.grassmann as grassmann
        from supertransport.superfield import SuperField
        from supertransport.transport import _march

        n, r = 9, 2
        grid = Grid.over(0.0, 1.0, 5)
        odd = grassmann.total_parities(n, (1, 1), (1, 1)).astype(bool)
        fields = []
        for _ in range(3):
            a = rng.uniform(-0.1, 0.1, (grid.nodes, 1 << n, r, r)) * odd
            b = rng.uniform(-0.1, 0.1, (grid.nodes, 1 << n, r, r)) * ~odd
            fields.append(SuperField(grid, n, a, b, (1, 1), (1, 1), Parity.ODD, Parity.EVEN))
        end = SuperPoint(G.scalar(n, 1.0) + G.monomial(n, (1, 2), 0.3), G.generator(n, 3))
        single = [solve_parallel(f, end) for f in fields]

        gathers = []
        pair_sums = grassmann._pair_sums

        def spy(a, b, op, I, *rest):
            gathers.append(len(I) * (max(a.size, b.size) >> n))
            return pair_sums(a, b, op, I, *rest)

        monkeypatch.setattr(grassmann, "_pair_sums", spy)
        batched = _march(fields, end, "D")
        assert 3 ** n * r * r > grassmann._GATHER_CAP
        assert max(gathers) == 3 ** n * r * r
        for got, want in zip(batched, single):
            assert same_map(got, want)


    def test_pipeline_peaks_stay_near_one_block_at_eight_generators(self, rng):
        # At N = 8 one problem's coefficient stack already passes the cap, so
        # a batch marches one problem at a time, and assembly holds a few
        # capped node blocks beyond the field it builds (whose a and b
        # stacks it copies once).
        import tracemalloc
        from supertransport.transport import _march

        n, steps = 8, 50
        sc = random_superconnection(rng, 2, (1, 1))
        end = soulful_end(n)
        lifted, data = lift_problem(random_path(rng, n, 2), sc)
        grid = Grid.over(0.0, 1.0, 2 * steps + 1)
        tracemalloc.start()
        try:
            field = connection_coefficient(lifted, data.connection, grid, "D", data.endomorphism)
            assemble_peak = tracemalloc.get_traced_memory()[1]
            fields = [field.scaled(s) for s in (1.0, 0.9, 0.8, 0.7)]
            peaks = []
            for batch in (fields[:1], fields):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                _march(batch, end, "D")
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        stack = field.a.nbytes
        cap = grassmann._GATHER_CAP * 8
        assert (1 << n) * field.a[0, 0].size * grid.nodes > grassmann._GATHER_CAP
        assert assemble_peak <= 4 * stack + 16 * cap
        assert peaks[1] <= peaks[0] + 2 * stack


def tree_and_oracle(fields, body, variant="D"):
    """The twisted march of a batch to the body time, as the product of its
    step maps and as the step-by-step oracle loop."""
    n, grid = fields[0].n, fields[0].grid
    i0, i1 = grid.index_of(0.0), grid.index_of(body)
    direction = 2 if i1 >= i0 else -2
    a, b = (np.stack([getattr(f, s) for f in fields], axis=2) for s in "ab")
    M = transport._reduced_matrix_stacks(n, a, b, fields[0].row_split, variant)
    P = transport._step_maps(n, M, np.arange(i0, i1, direction), direction // 2,
                             direction * grid.h)
    return transport._ordered_product(n, P), rk4_march_oracle(n, M, i0, i1, direction * grid.h)


class TestTreeMarch:
    """The pairwise product of the RK4 step maps is the step-by-step march."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 33])
    def test_matches_the_step_loop(self, rng, steps):
        n = 4
        sc = random_superconnection(rng, 2, (1, 1))
        field = superconnection_coefficient(random_path(rng, n, 2),
                                            sc, Grid.over(0.0, 1.0, 2 * steps + 1))
        tree, loop = tree_and_oracle([field], 1.0)
        assert np.any(loop[1:])
        assert np.abs(tree - loop).max() <= 1e-13 * np.abs(loop).max()

    def test_negative_direction(self, rng):
        # body < 0 inside the path margin, as recover's probes march
        n, steps = 3, 9
        path = SuperPath.line(n, [0.2, -0.1], [1.0, 0.5],
                              [G.generator(n, 1) * 0.4, G.generator(n, 2) * 0.3], 0.5)
        path.margin = 0.5
        sc = random_superconnection(rng, 2, (1, 1))
        field = superconnection_coefficient(path, sc, Grid.over(-0.3, 0.0, 2 * steps + 1))
        tree, loop = tree_and_oracle([field], -0.3)
        assert np.any(loop[1:])
        assert np.abs(tree - loop).max() <= 1e-13 * np.abs(loop).max()

    def test_sweep_batch_of_eight(self, rng):
        n, steps = 4, 12
        lambdas = [2.0 ** -k for k in range(7)]
        sc = random_superconnection(rng, 2, (1, 1))
        fields = sweep_fields(random_path(rng, n, 2), sc, lambdas,
                              Grid.over(0.0, 1.0, 2 * steps + 1), "D")
        assert len(fields) == 8
        tree, loop = tree_and_oracle(fields, 1.0)
        assert np.abs(tree - loop).max() <= 1e-13 * np.abs(loop).max()


class TestOneRingProductPerGradedProduct:
    """A graded product is one ring product, and the march's count grows
    with the depth of its product tree."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        ring_product = grassmann._ring_product

        def spy(n, a, b, op):
            calls.append(n)
            return ring_product(n, a, b, op)

        monkeypatch.setattr(grassmann, "_ring_product", spy)
        return calls

    def test_graded_product_with_odd_blocks(self, rng, kernel_calls):
        n, rows = 4, grassmann.split_parities((1, 1))
        a, b = rng.uniform(-1, 1, (2, 1 << n, 2, 2))
        assert np.count_nonzero(a[1:, 0, 1]) and np.count_nonzero(b[1:])
        grassmann.graded_mul_stacks(n, a, b, rows, rows)
        assert kernel_calls == [n]

    def test_march_products_grow_by_one_per_doubling(self, rng, kernel_calls):
        # the step maps take three products and their pairwise product one
        # per level, ceil(log2 m) for m steps: 20 -> 40 -> 80 adds one each
        from supertransport.transport import _march
        n = 2
        sc = random_superconnection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0) + G.monomial(n, (1, 2), 0.3), G.generator(n, 1) * 0.5)
        counts = []
        for steps in (20, 40, 80):
            field = superconnection_coefficient(path, sc, Grid.over(0.0, 1.0, 2 * steps + 1))
            kernel_calls.clear()
            _march([field], end, "D")
            counts.append(len(kernel_calls))
        assert np.diff(counts).tolist() == [1, 1]


class TestRecover:
    def oracle_for(self, sc, steps=8):
        def oracle(path, end):
            return sp(path, sc, end, steps=steps)
        return oracle

    def test_zero_superconnection(self):
        n = 3
        sc = Superconnection(Connection.zero(2, 0, (1, 1)), ())
        rec = recover(self.oracle_for(sc), [0.0, 0.0], 2, (1, 1), n)
        assert all(abs(a).max() < 1e-8 for a in rec.connection)
        assert abs(rec.form0).max() < 1e-10
        assert all(abs(m).max() < 1e-10 for m in rec.form2.values())

    def test_constant_zero_form_only(self):
        n = 3
        A0 = np.array([[0.0, 0.7], [0.4, 0.0]])
        conn = Connection.zero(2, 0, (1, 1))
        sc = Superconnection(conn, (DifferentialForm.constant_form(0, 2, (1, 1), Parity.ODD, {(): A0}),))
        rec = recover(self.oracle_for(sc), [0.3, -0.2], 2, (1, 1), n)
        assert abs(rec.form0 - A0).max() < 1e-8

    def test_round_trip(self, rng):
        n = 3
        p = 3
        sc = random_superconnection(rng, p, (1, 1))
        x0 = [0.2, -0.3, 0.4]
        rec = recover(self.oracle_for(sc), x0, p, (1, 1), n)
        for i in range(p):
            want = sc.connection.coeffs[i].terms[()].value(x0)
            assert abs(rec.connection[i] - want).max() < 1e-4
        want0 = sc.forms[0].components[()].value(x0)
        assert abs(rec.form0 - want0).max() < 1e-4
        comps2 = sc.forms[1].components
        for key, got in rec.form2.items():
            want2 = comps2[key].value(x0) if key in comps2 else np.zeros((2, 2))
            assert abs(got - want2).max() < 1e-4

    def test_distinct_inputs_recover_distinct(self, rng):
        n = 3
        p = 2
        base = random_superconnection(rng, p, (1, 1))
        # perturb one 0-form entry by at least 1e-2
        pert = np.zeros((2, 2))
        pert[0, 1] = 2e-2
        forms = list(base.forms)
        f0 = forms[0]
        comp = dict(f0.components)
        comp[()] = comp[()] + PolyMap.constant(p, pert)
        forms[0] = DifferentialForm(0, p, (1, 1), Parity.ODD, comp)
        other = Superconnection(base.connection, tuple(forms))
        x0 = [0.1, 0.2]
        rec1 = recover(self.oracle_for(base), x0, p, (1, 1), n)
        rec2 = recover(self.oracle_for(other), x0, p, (1, 1), n)
        assert abs(rec1.form0 - rec2.form0).max() > 5e-3

    def test_underdetermined(self):
        sc = Superconnection(Connection.zero(2, 0, (1, 1)), ())
        with pytest.raises(UnderdeterminedError):
            recover(self.oracle_for(sc), [0.0, 0.0], 2, (1, 1), n=2)


class TestNaturality:
    def test_transport_commutes_with_algebra_maps(self, rng):
        n = 2
        conn = random_connection(rng, 2, (1, 1))
        path = random_path(rng, n, 2)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 1) * 0.5)
        hom = AlgebraMap(n, n, [G.generator(n, 1) * 0.5 + G.generator(n, 2) * 0.25,
                                G.generator(n, 2) * -1.0])
        end_m = SuperPoint(hom.apply(end.t), hom.apply(end.theta))
        before = sp(path.mapped(hom), conn, end_m, steps=200)
        after = hom.apply_matrix(sp(path, conn, end, steps=200).matrix)
        assert before.matrix.distance(after) < 1e-10


def chart_or_random_problem(workloads, case):
    """chart_problem at seeds 1-4, or a random superconnection and path at n = 2-5."""
    kind, k = case
    if kind == "chart":
        return workloads.chart_problem(np.random.default_rng(k))[:2]
    rng = np.random.default_rng(100 + k)
    return random_path(rng, k, 2), random_superconnection(rng, 2, (1, 1))


class TestOneRoute:
    """Every transport of Quillen data runs on the odd-tangent lift, and every
    coefficient field is one assembly pass."""

    @staticmethod
    def assembly_spy(monkeypatch):
        from supertransport import geometry
        calls = []
        assemble = geometry._assemble
        monkeypatch.setattr(geometry, "_assemble",
                            lambda *args: calls.append(args[0]) or assemble(*args))
        return calls

    @pytest.mark.parametrize("kind", ["connection", "transport_data", "superconnection"])
    def test_one_assembly_per_transport(self, workloads, monkeypatch, kind):
        path, sc, end = workloads.chart_problem(np.random.default_rng(1))
        if kind == "connection":
            data = sc.connection
        elif kind == "transport_data":
            path, data = lift_problem(path, sc)
        else:
            data = sc
        calls = self.assembly_spy(monkeypatch)
        ops = [sp, reverse_transport] + ([ps] if kind != "superconnection" else [])
        for op in ops:
            del calls[:]
            op(path, data, end, steps=6)
            assert len(calls) == 1, op.__name__

    @pytest.mark.parametrize("forms", [1, 2])
    def test_two_assemblies_per_sweep(self, workloads, monkeypatch, forms):
        path, sc, end = workloads.chart_problem(np.random.default_rng(1))
        sc = Superconnection(sc.connection, sc.forms[:forms])
        calls = self.assembly_spy(monkeypatch)
        adiabatic_sweep(path, sc, [1.0, 0.5, 0.25], end, steps=6)
        assert len(calls) == 2 and all((c.p, c.q) == (2, 2) for c in calls)

    @pytest.mark.parametrize("case", [("chart", s) for s in range(1, 5)]
                             + [("random", n) for n in range(2, 6)], ids=str)
    def test_lifted_field_is_the_direct_formula(self, workloads, case):
        path, sc = chart_or_random_problem(workloads, case)
        lifted, data = lift_problem(path, sc)
        grid = Grid.over(0.0, 1.0, 13)
        got = connection_coefficient(lifted, data.connection, grid, "D", data.endomorphism)
        want = superconnection_coefficient(path, sc, grid, "D")
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
        assert (got.a_parity, got.b_parity) == (want.a_parity, want.b_parity)

    def test_only_quillen_data_lifts(self, workloads):
        path, sc, end = workloads.chart_problem(np.random.default_rng(1))
        with pytest.raises(TypeError):
            lift_problem(path, sc.connection)
        with pytest.raises(TypeError):
            adiabatic_sweep(path, sc.connection, [1.0], end, steps=6)


class TestTransportData:
    @staticmethod
    def endomorphism(q, J, matrix, p=1):
        return GrassmannPoly(p, q, {J: PolyMap.constant(p, np.asarray(matrix, dtype=float))},
                             rank=(1, 1))

    @pytest.mark.parametrize("q, J, odd_total, even_total", [
        (0, (), [[0.0, 0.4], [0.3, 0.0]], [[0.5, 0.0], [0.0, -0.2]]),
        (1, (0,), [[0.5, 0.0], [0.0, -0.2]], [[0.0, 0.4], [0.3, 0.0]]),
    ], ids=["z^()", "z^1"])
    def test_rejects_an_endomorphism_of_the_wrong_parity(self, q, J, odd_total, even_total):
        # the z^J coefficient has block parity (1 + |J|) mod 2, as for a connection
        from supertransport.errors import ParityError
        conn = Connection.zero(1, q, (1, 1))
        TransportData(conn, self.endomorphism(q, J, odd_total))
        with pytest.raises(ParityError):
            TransportData(conn, self.endomorphism(q, J, even_total))

    def test_even_endomorphism_never_reaches_the_march(self):
        # before the check, sp returned a map of no parity with body
        # diag(1.2840, 1.0408): the field's parity residual was 0.5
        from supertransport.errors import ParityError
        n = 2
        path = SuperPath.line(n, [0.0], [1.0], [G.generator(n, 1) * 0.3], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2) * 0.5)
        with pytest.raises(ParityError):
            sp(path, TransportData(Connection.zero(1, 0, (1, 1)),
                                   self.endomorphism(0, (), np.diag([0.5, -0.2]))), end, steps=20)

    def test_smooth_oracle_endomorphism_still_transports(self):
        # an oracle carries no coefficients to check, so it is taken as given
        from supertransport.grassmann import SmoothMap
        n, A = 2, np.array([[0.0, 0.4], [0.3, 0.0]])
        oracle = SmoothMap(1, lambda alpha, x: A if not any(alpha) else np.zeros((2, 2)),
                           max_order=2, coeff_shape=(2, 2))
        path = SuperPath.line(n, [0.0], [1.0], [G.generator(n, 1) * 0.3], 1.0)
        end = SuperPoint(G.scalar(n, 1.0), G.generator(n, 2) * 0.5)
        conn = Connection.zero(1, 0, (1, 1))
        got = sp(path, TransportData(conn, GrassmannPoly(1, 0, {(): oracle}, rank=(1, 1))), end,
                 steps=20)
        want = sp(path, TransportData(conn, self.endomorphism(0, (), A)), end, steps=20)
        assert got.distance(want) < 1e-14

    @pytest.mark.parametrize("p, q, size", [(2, 0, 2), (1, 1, 2), (1, 0, 3)])
    def test_rejects_an_endomorphism_on_another_chart_or_shape(self, p, q, size):
        from supertransport.errors import DimensionError
        matrix = np.zeros((size, size))
        matrix[0, 1] = matrix[1, 0] = 0.5
        endo = GrassmannPoly(p, q, {(): PolyMap.constant(p, matrix)})
        with pytest.raises(DimensionError):
            TransportData(Connection.zero(1, 0, (1, 1)), endo)


class TestSmoothOracleCoefficients:
    """A smooth oracle carries no coefficients whose block parity could be
    checked, so a connection or form built on one is taken as given and
    transports like its polynomial twin."""

    n, rank, steps = 4, (1, 1), 40
    DIAG0, DIAG1 = np.diag([0.25, -0.5]), np.diag([0.5, 0.75])      # even: a connection
    ODD0, ODD1 = np.array([[0.0, 0.5], [0.25, 0.0]]), np.array([[0.0, -0.25], [0.5, 0.0]])

    @staticmethod
    def linear(c0, c1, smooth):
        # c0 + c1 x, as a polynomial or as a derivative oracle; a linear map
        # keeps both evaluations to the same floating-point operations
        if not smooth:
            return PolyMap(1, {(0,): c0, (1,): c1})
        from supertransport.grassmann import SmoothMap

        def partial(alpha, x):
            return {0: c0 + c1 * x[0], 1: c1}.get(alpha[0], np.zeros((2, 2)))

        return SmoothMap(1, partial, 3, (2, 2))

    def problem(self):
        n = self.n
        start = G.scalar(n, 0.25) + G.monomial(n, (1, 2), 0.125)
        path = SuperPath.line(n, [start], [0.75], [G.generator(n, 1) * 0.5
                                                  + G.generator(n, 3) * 0.25], 1.0)
        end = SuperPoint(G.scalar(n, 1.0) + G.monomial(n, (3, 4), 0.25),
                         G.generator(n, 2) * 0.5 + G.generator(n, 4) * 0.25)
        return path, end

    def connection(self, smooth):
        return Connection(1, 0, self.rank, [
            GrassmannPoly(1, 0, {(): self.linear(self.DIAG0, self.DIAG1, smooth)})])

    def superconnection(self, smooth):
        form0 = DifferentialForm(0, 1, self.rank, Parity.ODD,
                                 {(): self.linear(self.ODD0, self.ODD1, smooth)})
        return Superconnection(self.connection(False), (form0,))

    def test_smooth_connection_coefficient(self):
        path, end = self.problem()
        got = sp(path, self.connection(True), end, steps=self.steps)
        want = sp(path, self.connection(False), end, steps=self.steps)
        assert np.any(want.matrix.comps[1:])
        assert np.array_equal(got.matrix.comps, want.matrix.comps)

    def test_smooth_zero_form(self):
        path, end = self.problem()
        for transport in (sp, reverse_transport):
            got = transport(path, self.superconnection(True), end, steps=self.steps)
            want = transport(path, self.superconnection(False), end, steps=self.steps)
            assert np.array_equal(got.matrix.comps, want.matrix.comps)

    def test_wrong_parity_polynomial_terms_still_raise(self):
        from supertransport.errors import ParityError
        with pytest.raises(ParityError):
            Connection(1, 0, self.rank, [GrassmannPoly(1, 0, {(): PolyMap.constant(1, self.ODD0)})])
        with pytest.raises(ParityError):
            DifferentialForm(0, 1, self.rank, Parity.ODD, {(): PolyMap.constant(1, self.DIAG0)})
        with pytest.raises(ParityError):
            TransportData(self.connection(True),
                          GrassmannPoly(1, 0, {(): PolyMap.constant(1, self.DIAG0)}, rank=self.rank))


class TestEndpointAtItsNode:
    """The endpoint's body is a grid node, and the endpoint is read there."""

    @pytest.fixture
    def interpolation_calls(self, monkeypatch):
        # every module binding of the interpolators, as the library's own
        # imports reach them
        import sys
        from supertransport import superfield
        calls = []
        for name in ("interpolate_stack", "lagrange_weights"):
            original = getattr(superfield, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("supertransport")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("problem", ["chart_problem", "point_problem"])
    def test_no_interpolation_on_the_solver_path(self, workloads, interpolation_calls, problem):
        path, sc, end = getattr(workloads, problem)(np.random.default_rng(1))[:3]
        assert np.any(end.t.soul().comps) and np.any(end.theta.comps)
        lifted, data = lift_problem(path, sc)
        sp(path, sc, end, steps=6)
        ps(lifted, data, end, steps=6)
        reverse_transport(path, sc, end, steps=6)
        adiabatic_sweep(path, sc, [1.0, 0.25], end, steps=6)
        assert interpolation_calls == []

    @pytest.mark.parametrize("variant", ["D", "Q"])
    def test_endpoint_is_the_fd_chain_at_its_node(self, workloads, variant):
        # 7 steps: h = 1/14 is not a dyadic fraction
        path, sc, end = workloads.chart_problem(np.random.default_rng(1))
        lifted, data = lift_problem(path, sc)
        grid = Grid.over(0.0, end.t.body, 15)
        if variant == "D":
            got = sp(path, sc, end, steps=7)
        else:
            lifted = lifted.reversed_through(end)
            got = reverse_transport(path, sc, end, steps=7)
        field = connection_coefficient(lifted, data.connection, grid, variant, data.endomorphism)
        assert np.any(got.matrix.comps[1:])
        assert np.array_equal(got.matrix.comps, endpoint_at_node(field, end, variant))
