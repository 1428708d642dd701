"""Independent reference implementations used as test oracles.

Deliberately written with different machinery than the package: Grassmann
elements as index-tuple dictionaries with permutation-sorted signs, the
left-regular matrix representation for flattening to plain real linear
algebra, scipy integrators for reference ODE solves, sympy for
polynomial derivatives, for odd flows the theta-adjoined defining
equation in place of the package's route through X^2, for path
substitution one composition (one soul series) per curve in place of the
package's shared table, for the march the step-by-step RK4 loop in
place of the package's pairwise product of step maps, and for the endpoint
a separate chain of stencil passes per derivative order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.integrate
import scipy.linalg
import sympy


# -- dictionary Grassmann arithmetic -------------------------------------------


def sort_sign(indices):
    """Sign of the permutation sorting the tuple, 0 on repeats (bubble count)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] == idx[j + 1]:
                return 0, ()
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


def gmul(u: dict, v: dict) -> dict:
    out: dict = {}
    for ka, ca in u.items():
        for kb, cb in v.items():
            sign, key = sort_sign(ka + kb)
            if sign:
                out[key] = out.get(key, 0.0) + sign * ca * cb
    return {k: c for k, c in out.items() if c != 0.0}


def gadd(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0.0) + c
    return out


def gscale(a: float, u: dict) -> dict:
    return {k: a * c for k, c in u.items()}


def from_element(el) -> dict:
    return {k: v for k, v in el.terms().items()}


def to_components(u: dict, n: int) -> np.ndarray:
    comps = np.zeros(1 << n)
    for key, c in u.items():
        bit = 0
        for i in key:
            bit |= 1 << (i - 1)
        comps[bit] = c
    return comps


def dict_distance(u: dict, v: dict) -> float:
    keys = set(u) | set(v)
    return max((abs(u.get(k, 0.0) - v.get(k, 0.0)) for k in keys), default=0.0)


# -- left-regular representation ------------------------------------------------


def left_regular(n: int, u: dict) -> np.ndarray:
    """Matrix of left multiplication by u on the 2**n-dimensional algebra."""
    dim = 1 << n
    basis = [tuple(i + 1 for i in range(n) if k & (1 << i)) for k in range(dim)]
    index = {b: i for i, b in enumerate(basis)}
    mat = np.zeros((dim, dim))
    for key, coeff in u.items():
        for col, b in enumerate(basis):
            sign, prod = sort_sign(key + b)
            if sign:
                mat[index[prod], col] += sign * coeff
    return mat


def flatten_matrix(n: int, comp_stack: np.ndarray) -> np.ndarray:
    """Real matrix of the *ring* action of a matrix over the algebra.

    Entry (i, j) becomes the left-regular block of its Grassmann value, so the
    result acts on vectors flattened as (entry index, algebra key).
    """
    dim = 1 << n
    r, c = comp_stack.shape[1], comp_stack.shape[2]
    out = np.zeros((r * dim, c * dim))
    basis = [tuple(i + 1 for i in range(n) if k & (1 << i)) for k in range(dim)]
    for i in range(r):
        for j in range(c):
            u = {basis[k]: comp_stack[k, i, j] for k in range(dim) if comp_stack[k, i, j] != 0.0}
            out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = left_regular(n, u)
    return out


def flatten_graded_matrix(n: int, comp_stack: np.ndarray, row_split, col_split) -> np.ndarray:
    """Real matrix of the *graded* action: off-diagonal blocks are composed
    with the scalar parity involution of the argument."""
    dim = 1 << n
    grades = np.array([bin(k).count("1") % 2 for k in range(dim)])
    eps = np.diag(np.where(grades == 0, 1.0, -1.0))
    re = row_split[0]
    ce = col_split[0]
    off_mask = np.zeros(comp_stack.shape[1:], dtype=bool)
    off_mask[:re, ce:] = True
    off_mask[re:, :ce] = True
    diag_part = comp_stack * (~off_mask)[None]
    off_part = comp_stack * off_mask[None]
    flat = flatten_matrix(n, diag_part)
    flat_off = flatten_matrix(n, off_part)
    r, c = comp_stack.shape[1], comp_stack.shape[2]
    eps_big = np.kron(np.eye(c), eps)
    return flat + flat_off @ eps_big


def flatten_vector(n: int, vec_stack: np.ndarray) -> np.ndarray:
    """(r, 2**n)-stack to the flat (r * 2**n,) layout used above."""
    return vec_stack.reshape(-1)


# -- reference solves -------------------------------------------------------------


def transport_oracle(field, end_body: float, variant: str = "D",
                     rtol: float = 1e-12, atol: float = 1e-13) -> np.ndarray:
    """Integrate the reduced component system as one real linear ODE.

    Expands the equation a' = (eps(C) C - Dm) a (graded products) over the
    2**n real components per entry and hands the flat system to an adaptive
    reference integrator; returns the flat fundamental matrix.
    """
    from supertransport.superfield import interpolate_stack

    n = field.n
    M = []
    for k in range(field.grid.nodes):
        C, Dm = field.a_matrix(k), field.b_matrix(k)
        epsC_C = C.parity_involution() @ C
        M.append((epsC_C - Dm if variant == "D" else Dm - epsC_C).comps)
    M = np.stack(M)
    grid = field.grid
    split = field.row_split

    def rhs(t, y):
        Mt = interpolate_stack(grid, M, [t])[0]
        flat = flatten_graded_matrix(n, Mt, split, split)
        return (flat @ y.reshape(flat.shape[1], -1)).reshape(-1)

    r = field.a.shape[2]
    dim = 1 << n
    y0 = np.zeros((r * dim, r * dim))
    np.fill_diagonal(y0, 1.0)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, end_body), y0.reshape(-1),
                                    rtol=rtol, atol=atol, dense_output=False,
                                    method="RK45")
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1].reshape(r * dim, r * dim)


def rk4_march_oracle(n: int, M: np.ndarray, i0: int, i1: int, h: float) -> np.ndarray:
    """The twisted fundamental matrix X of X' = M X from X = 1 at node i0
    to node i1, one RK4 step over two nodes at a time, with stage products
    applied to the state.

    ``M`` is the (nodes, 2**n, problems, r, r) node stack of
    ``transport._reduced_matrix_stacks``; h is the signed step.
    """
    from supertransport.errors import DomainError
    from supertransport.grassmann import mul_stacks

    r = M.shape[-1]
    direction = 2 if i1 >= i0 else -2
    X = np.zeros((1 << n,) + M.shape[2:])
    X[0] = np.eye(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in range(i0, i1, direction):
            M0, Mh, M1 = M[idx], M[idx + direction // 2], M[idx + direction]
            k1 = mul_stacks(n, M0, X)
            k2 = mul_stacks(n, Mh, X + (h / 2.0) * k1)
            k3 = mul_stacks(n, Mh, X + (h / 2.0) * k2)
            k4 = mul_stacks(n, M1, X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(X).all():
                raise DomainError("transport map is not finite")
    return X


def solution_matrix_to_stack(flat: np.ndarray, n: int, r: int) -> np.ndarray:
    """Undo the flattening for maps applied to real (body) basis vectors."""
    dim = 1 << n
    out = np.zeros((dim, r, r))
    for j in range(r):
        col = flat[:, j * dim]  # image of the body basis vector of entry j
        out[:, :, j] = col.reshape(r, dim).T
    return out


def flow_oracle(field, init_stack: np.ndarray, t_end: float, n: int,
                rtol: float = 1e-12, atol: float = 1e-13):
    """Reference integration of an even flow over the real components.

    Coefficients are evaluated through sympy-based Taylor expansion with
    dictionary Grassmann arithmetic, entirely independent of the package's
    evaluators.
    """
    ncoords = init_stack.shape[0]
    evaluator = SymbolicFieldEvaluator(field, n)

    def rhs(t, y):
        coords = y.reshape(ncoords, 1 << n)
        vals = evaluator.values(coords)
        return vals.reshape(-1)

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_end), init_stack.reshape(-1),
                                    rtol=rtol, atol=atol, method="RK45")
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1].reshape(ncoords, 1 << n)


def _theta_rhs(field, G: np.ndarray, n: int) -> np.ndarray:
    """theta-component of a(G + theta*a(G)) at (ncoords, 2**n) coordinates,
    theta adjoined as generator n + 1: the time derivative of the body part
    of an odd flow, read off the defining equation without X^2."""
    from supertransport.grassmann import adjoin_theta, split_theta

    coords = G[:, :, None]
    H = field.coefficient_stack(coords)
    alpha = adjoin_theta(n, coords.swapaxes(0, 1), H.swapaxes(0, 1)).swapaxes(0, 1)
    return np.stack([split_theta(n, v[:, 0])[1] for v in field.coefficient_stack(alpha)])


def odd_flow_oracle(field, init_stack: np.ndarray, t: dict, theta: dict, n: int,
                    steps: int) -> np.ndarray:
    """The odd flow G + theta*a(G) at the S-point (t, theta), never through X^2.

    G is marched to the body time by the classical RK4 scheme on
    :func:`_theta_rhs`.  A soul s of t adds sum_k s**k c_k, where c_k are the
    Taylor coefficients of G, computed in Taylor mode: G + sum_k c_k tau**k
    with tau = f1 f2 + f3 f4 + ... over K fresh generator pairs (tau**K != 0,
    tau**(K+1) = 0), and c_{k+1} is 1/((k+1) k!) times the coefficient of
    f1...f2k in _theta_rhs of it.  Returns the (ncoords, 2**n) components.
    """
    G = init_stack.copy()
    body = t.get((), 0.0)
    if body:
        h = body / steps
        for _ in range(steps):
            k1 = _theta_rhs(field, G, n)
            k2 = _theta_rhs(field, G + (h / 2) * k1, n)
            k3 = _theta_rhs(field, G + (h / 2) * k2, n)
            k4 = _theta_rhs(field, G + h * k3, n)
            G = G + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    soul = {k: c for k, c in t.items() if k}
    powers = [{(): 1.0}]
    while gmul(powers[-1], soul):
        powers.append(gmul(powers[-1], soul))
    K = len(powers) - 1
    m = n + 2 * K
    dim = 1 << n
    pairs = [((1 << 2 * k) - 1) << n for k in range(K + 1)]  # key of f1...f2k
    c = [G]
    for k in range(K):
        u = np.zeros((len(G), 1 << m))
        u[:, :dim] = G
        for j in range(1, k + 1):
            # tau**j = j! * (sum of the products of j distinct pairs)
            for S in itertools.combinations(range(K), j):
                key = sum(3 << (n + 2 * i) for i in S)
                u[:, key:key + dim] += math.factorial(j) * c[j]
        d = _theta_rhs(field, u, m)[:, pairs[k]:pairs[k] + dim]
        c.append(d / ((k + 1) * math.factorial(k)))
    G = sum(np.stack([left_regular(n, powers[k]) @ col for col in c[k]]) for k in range(K + 1))

    H = field.coefficient_stack(G[:, :, None])[:, :, 0]
    return G + np.stack([left_regular(n, theta) @ col for col in H])


class SymbolicFieldEvaluator:
    """Evaluates Grassmann polynomials at graded points via sympy.

    Coefficient polynomials are rebuilt as sympy expressions, one per entry
    (or family payload component); the Grassmann-analytic extension is the
    explicit multinomial series with sympy derivatives and dictionary
    Grassmann products.  ``field`` is a vector field, or any object with the
    chart dimensions ``p`` and ``q`` when only :meth:`poly_value` is used.
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.p = field.p
        self.q = field.q
        self.syms = sympy.symbols(f"x0:{self.p}") if self.p else ()
        self._partial_cache: dict = {}
        self.basis = [tuple(i + 1 for i in range(n) if k & (1 << i)) for k in range(1 << n)]

    def _poly_expr(self, poly, entry=()):
        expr = sympy.Integer(0)
        for expo, coeff in poly.terms.items():
            term = sympy.Float(float(np.asarray(coeff)[entry]), 17)
            for s, e in zip(self.syms, expo):
                term *= s ** e
            expr += term
        return expr

    def _partial_fn(self, expr, alpha):
        key = (expr, alpha)
        if key not in self._partial_cache:
            d_expr = expr
            for s, k in zip(self.syms, alpha):
                if k:
                    d_expr = sympy.diff(d_expr, s, k)
            self._partial_cache[key] = sympy.lambdify(self.syms, d_expr, "math")
        return self._partial_cache[key]

    def _taylor(self, expr, even_dicts):
        bodies = [d.get((), 0.0) for d in even_dicts]
        souls = [{k: v for k, v in d.items() if k} for d in even_dicts]
        out: dict = {}
        max_order = self.n
        for alpha in itertools.product(range(max_order + 1), repeat=self.p):
            if sum(alpha) > max_order:
                continue
            soul_pow = {(): 1.0}
            dead = False
            for s_dict, k in zip(souls, alpha):
                for _ in range(k):
                    soul_pow = gmul(soul_pow, s_dict)
                if k and not soul_pow:
                    dead = True
                    break
            if dead or not soul_pow:
                continue
            value = float(self._partial_fn(expr, alpha)(*bodies))
            denom = math.prod(math.factorial(k) for k in alpha)
            if value != 0.0:
                out = gadd(out, gscale(value / denom, soul_pow))
        return out

    def poly_value(self, gp, coords: np.ndarray) -> np.ndarray:
        """Components (2**n,) + value shape of sum_J f_J(x) z^J at (p + q, 2**n)
        coordinate columns; payload component m of a family-valued
        coefficient multiplies from the left as the basis monomial e_m."""
        dicts = [{self.basis[k]: c for k, c in enumerate(col) if c != 0.0} for col in coords]
        evens, odds = dicts[:self.p], dicts[self.p:]
        family = gp.lambda_n is not None
        out = np.zeros((1 << self.n,) + (() if family else gp.coeff_shape))
        for entry in np.ndindex(gp.coeff_shape):
            total: dict = {}
            for J, poly in gp.terms.items():
                val = self._taylor(self._poly_expr(poly, entry), evens)
                if family:
                    val = gmul({self.basis[entry[0]]: 1.0}, val)
                for j in J:
                    val = gmul(val, odds[j])
                total = gadd(total, val)
            if family:
                out += to_components(total, self.n)
            else:
                out[(slice(None),) + entry] = to_components(total, self.n)
        return out

    def values(self, coords: np.ndarray) -> np.ndarray:
        return np.stack([self.poly_value(coeff, coords) for coeff in self.field.coeffs])


def expm_oracle(n: int, comp_stack: np.ndarray, row_split, col_split) -> np.ndarray:
    """Exponential via the flattened graded representation and scipy."""
    flat = flatten_graded_matrix(n, comp_stack, row_split, col_split)
    E = scipy.linalg.expm(flat)
    r = comp_stack.shape[1]
    return solution_matrix_to_stack(E, n, r)


def expm_series_oracle(n: int, comp_stack: np.ndarray, row_split, col_split,
                       terms: int) -> np.ndarray:
    """Truncated exponential series on the flattened representation."""
    flat = flatten_graded_matrix(n, comp_stack, row_split, col_split)
    acc = np.eye(flat.shape[0])
    power = np.eye(flat.shape[0])
    for k in range(1, terms + 1):
        power = power @ flat / k
        acc = acc + power
    r = comp_stack.shape[1]
    return solution_matrix_to_stack(acc, n, r)


# -- path substitution, one curve at a time ---------------------------------------


def _composed(curve, inner):
    """curve(inner(u)): each sample sums its own terminating Taylor series in
    the souls of inner(u); the derivative is curve'(inner(u)) * inner'(u)."""
    from supertransport.geometry import Curve
    from supertransport.grassmann import soul_series

    def sample(us):
        times = inner.sample(us)
        bodies, souls = times[0], times.copy()
        souls[0] = 0.0
        chain = [curve]

        def at_body(k):
            chain.append(chain[-1].derivative())
            return chain[k].sample(bodies)

        return curve.sample(bodies) + soul_series(curve.n, souls, at_body)

    return Curve(curve.n, sample, lambda: _composed(curve.derivative(), inner) * inner.derivative())


def substituted_oracle(path, g, rho, tau, e, t_end):
    """SuperPath.substituted with a_i, b_i, a_i' and b_i' each composed with g
    on its own:

        A(u) = a(g(u)) + tau * b(g(u))
        B(u) = rho * a'(g(u)) + e(u) * b(g(u)) - tau*rho * b'(g(u))
    """
    from supertransport.geometry import Curve, SuperPath

    e_curve = Curve.constant(path.n, float(e)) if isinstance(e, (int, float)) else e
    taurho = tau * rho
    new_a, new_b = [], []
    for ca, cb in zip(path.a, path.b):
        a_g, b_g = _composed(ca, g), _composed(cb, g)
        da_g, db_g = _composed(ca.derivative(), g), _composed(cb.derivative(), g)
        B = da_g.scale_left(rho) + e_curve * b_g
        if taurho.norm() != 0.0:
            B = B - db_g.scale_left(taurho)
        new_a.append(a_g + b_g.scale_left(tau))
        new_b.append(B)
    return SuperPath(path.p, path.q, path.n, new_a, new_b, t_end, path.margin)


# -- field values at S-points -------------------------------------------------------


def fd_jet(grid, stack, node: int, k: int) -> np.ndarray:
    """The k-th time derivative of a node stack at one node: its own chain
    of k fourth-order stencil passes over the whole stack, read at the node."""
    from supertransport.superfield import fd4_stack

    for _ in range(k):
        stack = fd4_stack(stack, grid.h)
    return stack[node]


def taylor_at_node(grid, stack, t) -> np.ndarray:
    """A node stack at an even time whose body is a grid node: the
    terminating Taylor series there, each order from :func:`fd_jet`."""
    from supertransport.grassmann import soul_series

    node = grid.index_of(t.body)
    return stack[node] + soul_series(t.n, t.soul().comps, lambda k: fd_jet(grid, stack, node, k))


def endpoint_at_node(field, end, variant: str = "D") -> np.ndarray:
    """The component stack of ``solve_parallel(field, end)`` at an endpoint
    whose body is a grid node i1: the package's twisted march to i1, then
    the Taylor tail of X' = M X by the Leibniz rule with M^(j) from
    :func:`fd_jet` at i1, and the theta part -C X with C from
    :func:`taylor_at_node`."""
    from supertransport import transport
    from supertransport.grassmann import (
        graded_mul_stacks, mul_stacks, scale_stack, sign_twist, soul_series, split_parities)

    n, grid = field.n, field.grid
    i0, i1 = grid.index_of(0.0), grid.index_of(end.t.body)
    direction = 2 if i1 >= i0 else -2
    a, b = field.a[:, :, None], field.b[:, :, None]
    M = transport._reduced_matrix_stacks(n, a, b, field.row_split, variant)
    X = transport._ordered_product(n, transport._step_maps(
        n, M, np.arange(i0, i1, direction), direction // 2, direction * grid.h))
    x_derivs = [X]

    def x_derivative(k):
        acc = np.zeros_like(X)
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * mul_stacks(n, fd_jet(grid, M, i1, j),
                                                         x_derivs[k - 1 - j])
        x_derivs.append(acc)
        return acc

    rows = split_parities(field.row_split)
    X = sign_twist(n, X + soul_series(n, end.t.soul().comps, x_derivative), rows)
    B = -graded_mul_stacks(n, taylor_at_node(grid, a, end.t), X, rows, rows)
    return (X + scale_stack(n, end.theta.comps, B, side="left"))[:, 0]


def taylor_at(field, which: str, t):
    """The theta^0 ("a") or theta^1 ("b") part of a SuperField at an even
    time with nilpotent soul whose body is a grid node, by the package's
    terminating Taylor series around that node."""
    from supertransport.grassmann import GradedMatrix
    from supertransport.superfield import taylor_stack_at

    stack = getattr(field, which)
    parity = field.a_parity if which == "a" else field.b_parity
    return GradedMatrix(field.n, taylor_stack_at(field.grid, stack, t),
                        field.row_split, field.col_split, parity, check=False)


def value_at(field, point):
    """a(t) + theta*b(t) of a SuperField at a point of R^{1|1}(S)."""
    return taylor_at(field, "a", point.t) + taylor_at(field, "b", point.t).scale_left(point.theta)
