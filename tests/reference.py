"""Independent reference implementations used as test oracles.

Deliberately written with different machinery than the package: Grassmann
elements as index-tuple dictionaries with permutation-sorted signs, the
left-regular matrix representation for flattening to plain real linear
algebra, scipy integrators for reference ODE solves, and sympy for
polynomial derivatives.
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
        Mt = interpolate_stack(grid, M, t)
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


class SymbolicFieldEvaluator:
    """Evaluates vector-field coefficients at graded points via sympy.

    Coefficient polynomials are rebuilt as sympy expressions; the
    Grassmann-analytic extension is the explicit multinomial series with
    sympy derivatives and dictionary Grassmann products.
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.p = field.p
        self.q = field.q
        self.syms = sympy.symbols(f"x0:{self.p}") if self.p else ()
        self._partial_cache: dict = {}

    def _poly_expr(self, poly):
        expr = sympy.Integer(0)
        for expo, coeff in poly.terms.items():
            term = sympy.Float(float(coeff), 17)
            for s, e in zip(self.syms, expo):
                term *= s ** e
            expr += term
        return expr

    def _partial_fn(self, expr_key, expr, alpha):
        key = (expr_key, alpha)
        if key not in self._partial_cache:
            d_expr = expr
            for s, k in zip(self.syms, alpha):
                if k:
                    d_expr = sympy.diff(d_expr, s, k)
            self._partial_cache[key] = sympy.lambdify(self.syms, d_expr, "math")
        return self._partial_cache[key]

    def _taylor(self, expr_key, expr, even_dicts):
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
            value = float(self._partial_fn(expr_key, expr, alpha)(*bodies))
            denom = math.prod(math.factorial(k) for k in alpha)
            if value != 0.0:
                out = gadd(out, gscale(value / denom, soul_pow))
        return out

    def values(self, coords: np.ndarray) -> np.ndarray:
        dim = 1 << self.n
        basis = [tuple(i + 1 for i in range(self.n) if k & (1 << i)) for k in range(dim)]
        coord_dicts = []
        for i in range(self.p + self.q):
            coord_dicts.append({basis[k]: coords[i, k] for k in range(dim) if coords[i, k] != 0.0})
        evens = coord_dicts[:self.p]
        odds = coord_dicts[self.p:]
        out = np.zeros((self.p + self.q, dim))
        for i, coeff in enumerate(self.field.coeffs):
            total: dict = {}
            for J, poly in coeff.terms.items():
                expr = self._poly_expr(poly)
                val = self._taylor((i, J), expr, evens)
                for j in J:
                    val = gmul(val, odds[j])
                total = gadd(total, val)
            out[i] = to_components(total, self.n)
        return out


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
