"""Scalar algebra, graded matrices, Taylor extension, graded exponential."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supertransport.errors import CapabilityError, DimensionError, ParityError
from supertransport.grassmann import (
    AlgebraMap,
    GradedMatrix,
    GrassmannElement,
    Parity,
    PolyMap,
    SmoothMap,
    _tables,
    adjoin_theta,
    graded_expm,
    graded_mul_stacks,
    mul_components,
    mul_stacks,
    node_blocks,
    parse_key,
    ring_parity_signs,
    scale_stack,
    sign_twist,
    soul_series,
    split_parities,
    split_theta,
    stack_parity,
    taylor_eval,
    taylor_eval_stack,
    total_parities,
)

from reference import (
    dict_distance,
    expm_oracle,
    expm_series_oracle,
    from_element,
    gadd,
    gmul,
)


def G(n):
    return GrassmannElement


def dyadic_elements(n, max_keys=4):
    """Hypothesis strategy: elements with dyadic coefficients (exact floats)."""
    key = st.integers(min_value=0, max_value=(1 << n) - 1)
    coeff = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8.0)
    def build(pairs):
        comps = np.zeros(1 << n)
        for k, c in pairs:
            comps[k] += c
        return GrassmannElement(n, comps)
    return st.lists(st.tuples(key, coeff), max_size=max_keys).map(build)


class TestScalarAlgebra:
    def test_generator_product(self):
        e1 = GrassmannElement.generator(2, 1)
        e2 = GrassmannElement.generator(2, 2)
        assert (e1 * e2).terms() == {(1, 2): 1.0}
        assert (e2 * e1).terms() == {(1, 2): -1.0}
        assert (e1 * e1).norm() == 0.0

    def test_nilpotent_inverse_pair(self):
        one = GrassmannElement.one(2)
        e12 = GrassmannElement.monomial(2, (1, 2))
        assert (one + e12) * (one - e12) == one

    def test_mismatched_algebras(self):
        with pytest.raises(DimensionError):
            GrassmannElement.one(2) * GrassmannElement.one(3)

    def test_generator_limit_checked_where_elements_are_built(self):
        # the one user limit; the tables keep generator 13 for theta only
        with pytest.raises(DimensionError, match=r"^generator count must be in \[0, 12\], got 13$"):
            GrassmannElement(13, np.zeros(1 << 13))
        assert GrassmannElement.one(12).n == 12 and len(_tables(13)[0]) == 3 ** 13

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associative_and_matches_reference(self, n, data):
        u, v, w = (data.draw(dyadic_elements(n)) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        ref = gmul(from_element(u), from_element(v))
        assert dict_distance(ref, from_element(u * v)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(dyadic_elements(3), dyadic_elements(3))
    def test_supercommutativity_on_homogeneous(self, u, v):
        for ua in (u.even_part(), u.odd_part()):
            for vb in (v.even_part(), v.odd_part()):
                sign = -1.0 if (ua.parity is Parity.ODD and vb.parity is Parity.ODD) else 1.0
                assert (ua * vb - (vb * ua) * sign).norm() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(dyadic_elements(3), dyadic_elements(3))
    def test_body_is_homomorphism_and_soul_nilpotent(self, u, v):
        assert (u * v).body == u.body * v.body
        s = GrassmannElement.one(3)
        for _ in range(4):  # soul^(N+1) with N = 3
            s = s * u.soul()
        assert s.norm() == 0.0

    def test_parity_involution(self):
        u = GrassmannElement.from_terms(2, {(): 2.0, (1,): 3.0})
        assert u.parity_involution().terms() == {(): 2.0, (1,): -3.0}
        e1 = GrassmannElement.generator(2, 1)
        assert e1.parity_involution() == -e1
        even = GrassmannElement.from_terms(2, {(): 1.0, (1, 2): 1.0})
        assert even.parity_involution() == even

    def test_parity_guards_count_nan_as_nonzero(self):
        mixed = GrassmannElement.from_terms(2, {(): 1.0, (1,): float("nan")})
        assert not mixed.is_even() and not mixed.is_odd()
        assert GrassmannElement.from_terms(2, {(): float("nan")}).is_even()
        assert GrassmannElement.from_terms(2, {(2,): 3.0}).is_odd()

    @settings(max_examples=30, deadline=None)
    @given(dyadic_elements(3), dyadic_elements(3))
    def test_involution_is_automorphism(self, u, v):
        lhs = (u * v).parity_involution()
        rhs = u.parity_involution() * v.parity_involution()
        assert lhs == rhs
        assert u.parity_involution().parity_involution() == u

    @settings(max_examples=40, deadline=None)
    @given(dyadic_elements(3))
    def test_serialization_round_trip(self, u):
        data = u.to_json_dict()
        back = GrassmannElement.from_json_dict(3, data)
        assert back == u  # bit exact

    def test_serialization_reads_only_canonical_keys(self):
        # e2 e1 = -e1 e2: "2|1" was read as +0.5 e1 e2, and of the pair
        # {"1|2", "2|1"} only the last survived
        for data in ({"2|1": 0.5}, {"1|2": 0.3, "2|1": 0.5}, {"1|1": 1.0}, {"3": 1.0},
                     {"0": 1.0}, {"01": 1.0}, {"1|": 1.0}, {"x": 1.0}):
            bad = next(k for k in data if k != "1|2")
            with pytest.raises(ValueError, match=re.escape(f"key {bad!r}")):
                GrassmannElement.from_json_dict(2, data)
        u = GrassmannElement.from_json_dict(2, {"": 1.5, "1": 0.25, "2": -1.0, "1|2": 0.3})
        assert u.terms() == {(): 1.5, (1,): 0.25, (2,): -1.0, (1, 2): 0.3}
        assert GrassmannElement.from_json_dict(0, {"": 2.0}) == GrassmannElement.scalar(0, 2.0)

    def test_parse_key(self):
        assert parse_key("", 3) == ()
        assert parse_key("1|3", 3) == (1, 3)
        for key in ("3|1", "1|1", "4", "0", "01", "|1", "1||2", " 1", "1.0", "\u0661"):
            with pytest.raises(ValueError, match="increasing indices"):
                parse_key(key, 3)

    def test_split_theta(self):
        u = GrassmannElement.from_terms(3, {(1, 3): 2.0, (2,): 1.0, (): 0.5})
        a, b = (GrassmannElement(2, c) for c in split_theta(2, u.comps))
        assert a.terms() == {(2,): 1.0, (): 0.5}
        assert b.terms() == {(1,): -2.0}
        theta = GrassmannElement.generator(3, 3)
        a3, b3 = (GrassmannElement.from_terms(3, x.terms()) for x in (a, b))
        assert (a3 + theta * b3) == u


@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["vector", "stack"])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_adjoin_and_split_theta(n, shape, rng):
    dim = 1 << n
    a = rng.uniform(-1, 1, (dim,) + shape)
    b = rng.uniform(-1, 1, (dim,) + shape)
    joined = adjoin_theta(n, a, b)
    back_a, back_b = split_theta(n, joined)
    assert np.array_equal(back_a, a) and np.array_equal(back_b, b)

    def entry(comps, gens, idx):
        return from_element(GrassmannElement(gens, comps[(slice(None),) + idx]))

    theta = {(n + 1,): 1.0}
    for idx in np.ndindex(*shape):
        want = gadd(entry(a, n, idx), gmul(theta, entry(b, n, idx)))
        assert dict_distance(want, entry(joined, n + 1, idx)) == 0.0


def test_only_grassmann_knows_the_key_layout():
    import supertransport

    layout = ("bit_count", "np.add.at", "bincount", "grades_of", "ring_parity_signs",
              "split_generator", "n_hat")
    src = Path(supertransport.__file__).parent
    found = [(path.name, word) for path in sorted(src.glob("*.py")) if path.name != "grassmann.py"
             for word in layout if word in path.read_text()]
    assert found == []


@pytest.mark.parametrize("n", [0, 1, 4])
def test_stack_kernels_match_reference(n, rng):
    dim = 1 << n
    a = rng.uniform(-1, 1, (dim, 2, 3))
    b = rng.uniform(-1, 1, (dim, 3, 2))
    u = rng.uniform(-1, 1, dim)

    def ref(comps):
        return from_element(GrassmannElement(n, comps))

    prod = mul_stacks(n, a, b)
    for i in range(2):
        for j in range(2):
            want = {}
            for k in range(3):
                want = gadd(want, gmul(ref(a[:, i, k]), ref(b[:, k, j])))
            assert dict_distance(want, ref(prod[:, i, j])) < 1e-14
    left = scale_stack(n, u, a, side="left")
    right = scale_stack(n, u, a, side="right")
    for i in range(2):
        for j in range(3):
            assert dict_distance(gmul(ref(u), ref(a[:, i, j])), ref(left[:, i, j])) < 1e-14
            assert dict_distance(gmul(ref(a[:, i, j]), ref(u)), ref(right[:, i, j])) < 1e-14


def _table_sum(n, a, b, op):
    """A ring product summed term by term over the pair table, in table order."""
    I, J, S, _, _ = _tables(n)
    terms = op(a[I], b[J]) * S.reshape((-1,) + (1,) * (max(a.ndim, b.ndim) - 1))
    out = np.zeros((1 << n,) + terms.shape[1:])
    np.add.at(out, I | J, terms)
    return out


def _factor(rng, kind, bad=None):
    """Random factors of one kind: soulful, top-soul (body and top key only),
    soul-free (body only), zero, sparse (a random quarter of the soul keys,
    and the body half of the time) or e1-multiples (the keys holding e1
    only, so two of them have no disjoint pair of nonzero keys);
    ``bad = (key, value)`` puts a non-finite value at that key."""
    def make(shape):
        x = rng.uniform(-1, 1, shape)
        if kind == "zero":
            x[:] = 0.0
        elif kind == "sparse":
            keep = rng.random(shape[0]) < 0.25
            keep[0] = rng.random() < 0.5
            x[~keep] = 0.0
        elif kind == "e1-multiples":
            x[np.arange(shape[0]) % 2 == 0] = 0.0
        elif kind != "soulful":
            x[1:-1 if kind == "top-soul" else None] = 0.0
        if bad is not None:
            x[(bad[0],) + (0,) * (x.ndim - 1)] = bad[1]
        return x
    return make


def _padded(x, ndim):
    return x.reshape(x.shape + (1,) * (ndim - x.ndim))


def _twisted(n, x, par):
    """The sign twist by hand: key K, row i times (-1)**(|K| p_i)."""
    odd = np.array([bin(k).count("1") % 2 for k in range(1 << n)], dtype=bool)
    signs = np.where(odd[:, None] & par.astype(bool)[None, :], -1.0, 1.0)
    return x * signs.reshape((1 << n,) + (1,) * (x.ndim - 3) + (len(par), 1))


def _kernel_cases(n, left, right, nodes=3, twisted=False):
    """(kernel result, explicit table sum) for every kernel and operand shape,
    with factors drawn from ``left`` and ``right``.  The graded product's
    reference is the twisted table sum T_r(sum(T_r a, T_m b)) with
    ``twisted``, else the two-product sum a_diag . b + a_off . eps(b)."""
    dim = 1 << n
    rows, mid = split_parities((1, 1)), split_parities((2, 1))
    off = (rows[:, None] ^ mid[None, :]).astype(float)
    for sa, sb in [((), ()), ((nodes,), (nodes,)), ((), (nodes,)), ((nodes,), ())]:
        u, v = left((dim,) + sa), right((dim,) + sb)
        ndim = 1 + max(len(sa), len(sb))
        yield mul_components(n, u, v), _table_sum(n, _padded(u, ndim), _padded(v, ndim), np.multiply)
    for batch in [(), (nodes,)]:
        a, b = left((dim,) + batch + (2, 3)), right((dim,) + batch + (3, 2))
        yield mul_stacks(n, a, b), _table_sum(n, a, b, np.matmul)
        if twisted:
            want = _twisted(n, _table_sum(n, _twisted(n, a, rows), _twisted(n, b, mid), np.matmul), rows)
        else:
            eps_b = b * _padded(ring_parity_signs(n), b.ndim)
            want = _table_sum(n, a * (1.0 - off), b, np.matmul) + _table_sum(n, a * off, eps_b, np.matmul)
        yield graded_mul_stacks(n, a, b, rows, mid), want
    for su, sm in [((), (2, 3)), ((), (nodes, 2, 3)), ((nodes,), (nodes, 2, 3))]:
        u, m = left((dim,) + su), right((dim,) + sm)
        yield scale_stack(n, u, m, "left"), _table_sum(n, _padded(u, m.ndim), m, np.multiply)
        m, u = left((dim,) + sm), right((dim,) + su)
        yield scale_stack(n, u, m, "right"), _table_sum(n, m, _padded(u, m.ndim), np.multiply)


@pytest.mark.parametrize("left, right", [
    ("soul-free", "soulful"), ("soulful", "soul-free"), ("soul-free", "soul-free"),
    ("zero", "soulful"), ("soulful", "zero"), ("zero", "zero"),
    ("top-soul", "soulful"), ("soulful", "top-soul")])
@pytest.mark.parametrize("n", [0, 1, 4, 8])
def test_soul_free_factors_match_the_table_sum(n, left, right, rng):
    # a soul-free factor pairs only with the unit: bit for bit the table sum;
    # a soul on the top key alone adds one term to one product key
    for got, want in _kernel_cases(n, _factor(rng, left), _factor(rng, right), twisted=True):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 4, 8])
def test_soulful_factors_match_the_table_sum(n, rng):
    # the full path sums the same terms, though not always in the same order
    soulful = _factor(rng, "soulful")
    for got, want in _kernel_cases(n, soulful, soulful):
        assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("left, right", [
    ("sparse", "sparse"), ("sparse", "soulful"), ("soulful", "sparse"),
    ("e1-multiples", "sparse"), ("sparse", "e1-multiples"), ("top-soul", "sparse")])
@pytest.mark.parametrize("n", [5, 6, 8])
def test_live_pairs_match_the_table_sum(n, left, right, rng):
    # from n = 5 on the kernel sums only the pairs of nonzero keys; dropping
    # zero terms may round a segment sum differently, never by more than this
    for got, want in _kernel_cases(n, _factor(rng, left), _factor(rng, right), twisted=True):
        assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_no_disjoint_pair_of_nonzero_keys_gives_exact_zeros(n, rng):
    # every nonzero key of both factors holds e1: no pair is live but the
    # bodies', which are zero, so every kernel returns zeros of its shape
    e1_multiples = _factor(rng, "e1-multiples")
    for got, want in _kernel_cases(n, e1_multiples, e1_multiples):
        assert got.shape == want.shape and not np.any(got) and not np.any(want)


SPLITS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _inhomogeneous(rng, n, batch, row_split, col_split, even=False):
    x = rng.uniform(-0.5, 0.5, (1 << n,) + batch + (sum(row_split), sum(col_split)))
    if even:
        mask = total_parities(n, row_split, col_split) == 0
        x *= mask.reshape(mask.shape[:1] + (1,) * len(batch) + mask.shape[1:])
    return x


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "nodes"])
@pytest.mark.parametrize("n", [0, 1, 4, 8])
class TestSignTwist:
    def test_involution(self, n, batch, rng):
        for split in SPLITS:
            x = _inhomogeneous(rng, n, batch, split, (2, 1))
            par = split_parities(split)
            assert np.array_equal(sign_twist(n, sign_twist(n, x, par), par), x)
            assert np.array_equal(sign_twist(n, x, par), _twisted(n, x, par))

    def test_graded_product_is_associative(self, n, batch, rng):
        ra, ma, mb = (split_parities(s) for s in SPLITS[:3])
        a, b, c = (_inhomogeneous(rng, n, batch, SPLITS[i], SPLITS[i + 1]) for i in range(3))
        left = graded_mul_stacks(n, graded_mul_stacks(n, a, b, ra, ma), c, ra, mb)
        right = graded_mul_stacks(n, a, graded_mul_stacks(n, b, c, ma, mb), ra, ma)
        assert np.allclose(left, right, rtol=0.0, atol=1e-13)

    def test_even_times_even_is_even(self, n, batch, rng):
        a = _inhomogeneous(rng, n, batch, SPLITS[0], SPLITS[1], even=True)
        b = _inhomogeneous(rng, n, batch, SPLITS[1], SPLITS[2], even=True)
        prod = graded_mul_stacks(n, a, b, split_parities(SPLITS[0]), split_parities(SPLITS[1]))
        nodes = [prod] if not batch else [prod[:, k] for k in range(batch[0])]
        assert np.any(prod)
        assert all(stack_parity(n, p, SPLITS[0], SPLITS[2]) == Parity.EVEN for p in nodes)


@pytest.mark.parametrize("partner", ["soulful", "soul-free", "zero", "sparse", "e1-multiples"])
@pytest.mark.parametrize("key", [0, 1], ids=["body", "soul"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_factor_gives_non_finite_product(value, key, partner, rng):
    # a NaN or inf soul is a soul, and a non-finite body poisons the product;
    # on live pairs too (n = 5, 8), even when every nonzero key of the
    # partner holds e1 and so no live soul key of it is disjoint from e1
    bad, other = _factor(rng, "soul-free", (key, value)), _factor(rng, partner)
    for n in (4, 5, 8):
        with np.errstate(all="ignore"):
            products = [got for left, right in [(bad, other), (other, bad)]
                        for got, _ in _kernel_cases(n, left, right)]
        assert not any(np.isfinite(got).all() for got in products)


def test_soul_series_stops_at_first_vanishing_power():
    n = 4
    asked = []

    def derivative(k):
        asked.append(k)
        return np.full(1 << n, float(k))

    e12 = GrassmannElement.monomial(n, (1, 2))
    e34 = GrassmannElement.monomial(n, (3, 4))
    # (e12 + e34)^2 / 2! = e1234, and the cube vanishes
    got = soul_series(n, (e12 + e34).comps, derivative)
    assert asked == [1, 2]
    one = np.ones(1 << n)
    want = (e12 + e34) * GrassmannElement(n, one) + e12 * e34 * GrassmannElement(n, 2.0 * one)
    assert np.array_equal(got, want.comps)
    asked.clear()
    soul_series(n, e12.comps, derivative)
    assert asked == [1]
    assert soul_series(n, np.zeros(1 << n), derivative) == 0.0 and asked == [1]


def test_node_blocks_keep_one_block_stack_under_the_cap():
    from supertransport.grassmann import _GATHER_CAP
    for n in range(13):
        for entries in (1, 4, 16, 4 * 101):
            blocks = node_blocks(n, 101, entries)
            assert [i for blk in blocks for i in range(101)[blk]] == list(range(101))
            size = blocks[0].stop - blocks[0].start
            if (1 << n) * entries > _GATHER_CAP:
                assert size == 1  # one item per pipeline block
            else:  # the largest block whose dense stack fits
                assert (1 << n) * size * entries <= _GATHER_CAP
                assert size == 101 or (1 << n) * (size + 1) * entries > _GATHER_CAP
    # the benchmark's chart problem (N = 4 plus theta, rank 1|1) is one block,
    # and so is its sweep: eight problems of 25 nodes at rank 1|1
    assert len(node_blocks(5, 13, 4)) == 1
    assert len(node_blocks(4, 8, 4 * 25)) == 1


@pytest.mark.parametrize("n, left, right", [(4, "soulful", "soulful"), (6, "sparse", "soulful")],
                         ids=["full-table", "live-pairs"])
def test_products_over_the_cap_run_in_chunks_bit_for_bit(n, left, right, monkeypatch):
    # under a cap of two items per scalar gather, batches run in chunks of
    # their items (one item for stacks, which pass it alone), a size-1
    # factor meeting every chunk; the values are those of one gather
    from supertransport import grassmann

    def cases(bad=None):
        rng = np.random.default_rng(5)
        return list(_kernel_cases(n, _factor(rng, left, bad), _factor(rng, right), nodes=7))

    whole = cases()
    pair_sums, gathers = grassmann._pair_sums, []

    def spy(a, b, op, I, *rest):
        items = 1 if a.ndim in (1, 3) else max(a.shape[1], b.shape[1])
        gathers.append((len(I) * (max(a.size, b.size) >> n), items))
        return pair_sums(a, b, op, I, *rest)

    cap = 2 * 3 ** n
    monkeypatch.setattr(grassmann, "_GATHER_CAP", cap)
    monkeypatch.setattr(grassmann, "_pair_sums", spy)
    chunked = cases()
    for (got, _), (want, _) in zip(chunked, whole):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert all(size <= cap or items == 1 for size, items in gathers)
    assert any(size <= cap and items == 2 for size, items in gathers)
    assert any(size > cap and items == 1 for size, items in gathers)
    with np.errstate(all="ignore"):
        for key in (1, 5):
            poisoned = cases(bad=(key, np.nan))
            assert not any(np.isfinite(got).all() for got, _ in poisoned)


def test_batched_kernels_match_node_by_node(rng):
    n, nodes = 3, 4
    dim = 1 << n
    u = rng.uniform(-1, 1, (dim, nodes))
    v = rng.uniform(-1, 1, (dim, nodes))
    w = rng.uniform(-1, 1, dim)
    m = rng.uniform(-1, 1, (dim, nodes, 2, 3))
    uv, wv, um = mul_components(n, u, v), mul_components(n, w, v), scale_stack(n, u, m, "right")
    for k in range(nodes):
        assert np.array_equal(uv[:, k], mul_components(n, u[:, k], v[:, k]))
        assert np.array_equal(wv[:, k], mul_components(n, w, v[:, k]))
        assert np.array_equal(um[:, k], scale_stack(n, u[:, k], m[:, k], "right"))
    even = np.stack([GrassmannElement(n, col).even_part().comps for col in u.T], axis=1)
    f = PolyMap(2, {(1, 0): np.eye(2), (2, 1): np.array([[0.5, -1.0], [0.25, 2.0]])})
    xs = np.stack([even, np.roll(even, 1, axis=1)])
    batch = taylor_eval_stack(f, xs)
    for k in range(nodes):
        assert np.allclose(batch[:, k], taylor_eval_stack(f, xs[:, :, k:k + 1])[:, 0],
                           rtol=0.0, atol=1e-15)


class TestTaylor:
    def test_square_at_one_plus_nilpotent(self):
        f = PolyMap(1, {(2,): 1.0})
        x = GrassmannElement.from_terms(2, {(): 1.0, (1, 2): 1.0})
        assert taylor_eval(f, [x]).terms() == {(): 1.0, (1, 2): 2.0}

    def test_sin_at_nilpotent(self):
        sin = SmoothMap(1, lambda a, x: math.sin(x[0] + a[0] * math.pi / 2), max_order=12)
        e12 = GrassmannElement.monomial(2, (1, 2))
        assert taylor_eval(sin, [e12]).allclose(e12, 1e-15)

    def test_odd_argument_rejected(self):
        f = PolyMap(1, {(1,): 1.0})
        with pytest.raises(ParityError):
            taylor_eval(f, [GrassmannElement.generator(2, 1)])

    def test_capability_error(self):
        x = GrassmannElement.from_terms(4, {(): 0.0, (1, 2): 1.0})
        y = GrassmannElement.from_terms(4, {(): 0.0, (3, 4): 1.0})
        with pytest.raises(CapabilityError):
            # two independent soul directions force total order 2 > max_order
            taylor_eval(SmoothMap(2, lambda a, x: 1.0, max_order=1), [x, y])

    def test_vanishing_soul_product_needs_no_higher_partial(self):
        # e12 * e13 = 0, so the series stops at total order 1
        x = GrassmannElement.from_terms(3, {(): 0.2, (1, 2): 1.0})
        y = GrassmannElement.from_terms(3, {(): -0.1, (1, 3): 1.0})
        asked = []

        def oracle(alpha, pt):
            asked.append(alpha)
            return [3.0, 2.0, 5.0][sum(i * a for i, a in enumerate(alpha, 1))] * pt[0]

        got = taylor_eval(SmoothMap(2, oracle, max_order=1), [x, y])
        assert sorted(asked) == [(0, 0), (0, 1), (1, 0)]
        assert all(type(a) is int for alpha in asked for a in alpha)
        assert got.terms() == {(): 0.2 * 3.0, (1, 2): 2.0 * 0.2, (1, 3): 5.0 * 0.2}

    def test_degree3_against_component_expansion(self, rng):
        # expand the soul symbolically over the 2^N components via the oracle
        import sympy
        coeffs = {k: float(rng.uniform(-1, 1)) for k in range(4)}
        f = PolyMap(1, {(k,): c for k, c in coeffs.items()})
        x = GrassmannElement.from_terms(
            3, {(): 0.7, (1, 2): 0.4, (1, 3): -0.6})
        got = from_element(taylor_eval(f, [x]))
        # oracle: substitute x = b + s1 e12 + s2 e13 and expand with sympy
        b, s1, s2 = sympy.symbols("b s1 s2")
        poly = sum(c * (b + s1 + s2) ** k for k, c in coeffs.items())
        expanded = sympy.expand(poly)
        want = {}
        for term in expanded.as_ordered_terms():
            s1_deg = term.as_poly(s1).degree() if term.has(s1) else 0
            s2_deg = term.as_poly(s2).degree() if term.has(s2) else 0
            if s1_deg > 1 or s2_deg > 1 or (s1_deg and s2_deg):
                continue  # nilpotency: e12^2 = e13^2 = e12*e13 = 0 in Lambda_3
            val = float(term.subs({b: 0.7, s1: 1, s2: 1}).subs({}))
            key = () if not (s1_deg or s2_deg) else ((1, 2) if s1_deg else (1, 3))
            want[key] = want.get(key, 0.0) + val * (0.4 if key == (1, 2) else -0.6 if key == (1, 3) else 1.0)
        assert dict_distance(got, want) < 1e-12

    def test_negative_exponent_rejected(self):
        # the monomial table holds powers 0, 1, 2, ... only
        with pytest.raises(DimensionError):
            PolyMap(2, {(1, -1): 1.0})

    def test_multiplicative(self, rng):
        f = PolyMap(2, {(1, 0): 0.5, (0, 2): -1.0})
        g = PolyMap(2, {(0, 0): 1.0, (1, 1): 2.0})
        x = GrassmannElement.from_terms(3, {(): 0.3, (1, 2): 0.2})
        y = GrassmannElement.from_terms(3, {(): -0.4, (2, 3): 0.5})
        lhs = taylor_eval(f * g, [x, y])
        rhs = taylor_eval(f, [x, y]) * taylor_eval(g, [x, y])
        assert (lhs - rhs).norm() < 1e-14


class TestGradedMatrix:
    def test_parity_check(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ParityError):
            GradedMatrix.from_real(2, bad, (1, 1), (1, 1), Parity.EVEN)
        GradedMatrix.from_real(2, bad, (1, 1), (1, 1), Parity.ODD)

    def test_product_parity_bookkeeping(self, rng):
        def rand(parity):
            m = np.zeros((2, 2))
            if parity is Parity.EVEN:
                m[0, 0], m[1, 1] = rng.uniform(-1, 1, 2)
            else:
                m[0, 1], m[1, 0] = rng.uniform(-1, 1, 2)
            return GradedMatrix.from_real(2, m, (1, 1), (1, 1), parity)
        for p1 in (Parity.EVEN, Parity.ODD):
            for p2 in (Parity.EVEN, Parity.ODD):
                prod = rand(p1) @ rand(p2)
                assert prod.parity == Parity(p1 ^ p2)
                # even-declared products pass the strict block check
                GradedMatrix(prod.n, prod.comps, prod.row_split, prod.col_split, prod.parity)

    def test_graded_product_anticommutation(self):
        # odd endomorphism anticommutes with an odd scalar
        n = 1
        A = GradedMatrix.from_real(n, np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1), (1, 1), Parity.ODD)
        theta = GrassmannElement.generator(n, 1)
        theta_I = GradedMatrix.identity(n, (1, 1)).scale_left(theta)
        lhs = A @ theta_I
        rhs = theta_I @ A
        assert lhs.distance(rhs.scale_left(-1.0)) == 0.0

    def test_expm_identity_and_inverse(self, rng):
        n = 2
        I = GradedMatrix.identity(n, (1, 1))
        assert graded_expm(GradedMatrix.zeros(n, (1, 1), (1, 1))).distance(I) == 0.0
        M = GradedMatrix.from_real(n, np.diag([0.4, -0.7]), (1, 1), (1, 1), Parity.EVEN)
        odd = GradedMatrix.from_real(n, np.array([[0.0, 0.8], [0.3, 0.0]]), (1, 1), (1, 1), Parity.ODD)
        M = M + odd.scale_left(GrassmannElement.generator(n, 1))
        E = graded_expm(M)
        assert (E @ graded_expm(-M)).distance(I) < 1e-12

    def test_expm_two_term_nilpotent(self):
        # exp(e12 * K) with K^2 = 0 is I + e12 K
        n = 2
        K = np.array([[0.0, 1.0], [0.0, 0.0]])
        e12 = GrassmannElement.monomial(n, (1, 2))
        M = GradedMatrix.from_real(n, K, (2, 0), (2, 0), Parity.EVEN).scale_left(e12)
        E = graded_expm(M)
        expect = GradedMatrix.identity(n, (2, 0)) + M
        assert E.distance(expect) < 1e-15

    def test_expm_against_flattened_oracle(self, rng):
        n = 2
        body = np.diag(rng.uniform(-0.4, 0.4, 2))
        M = GradedMatrix.from_real(n, body, (1, 1), (1, 1), Parity.EVEN)
        odd = np.zeros((2, 2))
        odd[0, 1], odd[1, 0] = rng.uniform(-0.5, 0.5, 2)
        M = M + GradedMatrix.from_real(n, odd, (1, 1), (1, 1), Parity.ODD).scale_left(
            GrassmannElement.generator(n, 1))
        got = graded_expm(M)
        want = expm_oracle(n, M.comps, (1, 1), (1, 1))
        assert float(np.max(np.abs(got.comps - want))) < 1e-12
        series = expm_series_oracle(n, M.comps, (1, 1), (1, 1), terms=2 * (n + 1))
        assert float(np.max(np.abs(got.comps - series))) < 1e-6

    def test_expm_rejects_odd(self):
        odd = GradedMatrix.from_real(2, np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1), (1, 1), Parity.ODD)
        with pytest.raises(ParityError):
            graded_expm(odd)

    def test_matrix_json_round_trip(self, rng):
        n = 2
        comps = rng.uniform(-1, 1, (4, 2, 2))
        m = GradedMatrix(n, comps, (1, 1), (1, 1))
        back = GradedMatrix.from_json_dict(m.to_json_dict())
        assert back.distance(m) == 0.0
        assert np.array_equal(back.comps, m.comps)

    def test_json_parity_is_checked_against_the_entries(self):
        # an odd matrix whose "parity" says even fails to load, so graded_expm
        # never sees it
        odd = GradedMatrix.from_real(2, np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1), (1, 1))
        data = odd.to_json_dict()
        assert data["parity"] == 1
        assert GradedMatrix.from_json_dict(data).parity is Parity.ODD
        with pytest.raises(ParityError):
            GradedMatrix.from_json_dict({**data, "parity": 0})

    def test_parity_is_read_from_the_components(self, rng):
        n, split = 2, (1, 1)
        odd = total_parities(n, split, split) == 1
        comps = rng.uniform(-1, 1, (4, 2, 2))
        for data in (comps * odd, comps * ~odd, comps, np.zeros_like(comps)):
            m = GradedMatrix(n, data, split, split)
            assert m.parity is stack_parity(n, data, split, split)
        assert GradedMatrix(n, comps * odd, split, split).parity is Parity.ODD
        assert GradedMatrix(n, comps, split, split).parity is None
        # sums and products are read again, not passed on
        even = GradedMatrix(n, comps * ~odd, split, split)
        assert (even + GradedMatrix(n, comps * odd, split, split)).parity is None
        assert (even - even).parity is Parity.EVEN


class TestAlgebraMap:
    def test_generator_images(self):
        n_from, n_to = 2, 3
        e = [GrassmannElement.generator(n_to, i) for i in (1, 2, 3)]
        hom = AlgebraMap(n_from, n_to, [e[0] + e[2], e[1]])
        u = GrassmannElement.monomial(n_from, (1, 2), 2.0)
        img = hom.apply(u)
        # 2 (e1 + e3) e2 = 2 e12 - 2 e23
        assert img.terms() == {(1, 2): 2.0, (2, 3): -2.0}

    def test_even_image_rejected(self):
        with pytest.raises(ParityError):
            AlgebraMap(1, 2, [GrassmannElement.one(2)])

    def test_homomorphism_property(self, rng):
        n = 3
        imgs = [GrassmannElement.generator(n, 1) * 0.5 + GrassmannElement.generator(n, 3),
                GrassmannElement.generator(n, 2),
                GrassmannElement.monomial(n, (1, 2, 3), 0.25)]
        hom = AlgebraMap(3, 3, imgs)
        u = GrassmannElement(3, rng.uniform(-1, 1, 8))
        v = GrassmannElement(3, rng.uniform(-1, 1, 8))
        assert hom.apply(u * v).allclose(hom.apply(u) * hom.apply(v), 1e-14)
