import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from construction_checks import entries, finite_difference_jacobian, identity_map, stacked
from islab.maps import (
    ANOSOV,
    anosov_map,
    chirikov_map,
    compose,
    henon_like,
    inv2,
    inverse_descriptor,
    mul2,
    quarter_turn,
    rotation_map,
    shear_map,
    torus_diff,
    wrap_torus,
)

rng = np.random.default_rng(12345)

SIGMA = np.log(9 + 4 * np.sqrt(5))


def trig_psi(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)

    def psi(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, c in enumerate(coeffs, start=1):
            out = out + c * np.sin(2 * np.pi * k * x)
        return out

    def dpsi(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, c in enumerate(coeffs, start=1):
            out = out + c * 2 * np.pi * k * np.cos(2 * np.pi * k * x)
        return out

    return psi, dpsi


def test_wrap_and_diff():
    p = rng.normal(size=(50, 2)) * 10
    w = wrap_torus(p)
    assert np.all((w >= 0) & (w < 1))
    d = torus_diff(rng.random((50, 2)), rng.random((50, 2)))
    assert np.all((d >= -0.5) & (d < 0.5))


def test_wrap_torus_bitwise_equals_mod():
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, np.nextafter(1.0, 0.0),
                     -np.nextafter(1.0, 0.0), -1e-300, 1e6 + 0.3, -1e6 + 0.3,
                     1e6 - 0.3, -1e6 - 0.3, 1.0, -1.0, np.nan, -np.nan,
                     np.inf, -np.inf])
    p = np.concatenate([edge, rng.normal(size=2000) * 10])
    with np.errstate(invalid="ignore"):
        w, ref = wrap_torus(p), np.mod(p, 1.0)
    # the same bits, sign bit and NaNs included
    assert np.array_equal(w.view(np.int64), ref.view(np.int64))
    assert np.array_equal(np.signbit(w), np.signbit(ref))
    assert wrap_torus(-1e-300) == 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 572, 7001, 7136])
def test_mul2_matches_stacked_matmul(n):
    g = np.random.default_rng(n)
    A = g.normal(size=(n, 2, 2))
    B = g.normal(size=(n, 2, 2))
    eps = np.finfo(float).eps
    # contiguous, strided and transposed stacks; one broadcast matrix
    pairs = [(A, B), (A[::2], B[::2]), (np.swapaxes(A, -1, -2), B),
             (A, np.swapaxes(B, -1, -2)), (ANOSOV, B), (A, B[0].T)]
    for As, Bs in pairs:
        C = stacked(mul2(entries(As), entries(Bs)))
        assert C.shape == np.broadcast_shapes(np.shape(As), np.shape(Bs))
        # within 4 ulp of each entry's scale sum_k |a_ik| |b_kj|
        assert np.all(np.abs(C - As @ Bs) <= 4 * eps * (np.abs(As) @ np.abs(Bs)))
    # a row's bits do not depend on its batch
    C = stacked(mul2(entries(A), entries(B)))
    for i in {0, n // 2, n - 1}:
        row = stacked(mul2(entries(A[i:i + 1]), entries(B[i:i + 1])))
        assert np.array_equal(C[i], row[0])


def test_mul2_with_constant_entries_keeps_the_values_of_every_product():
    # a scalar 0 drops its product and a scalar +-1 its multiply; against
    # the two products and one sum of every entry, only a zero's sign may
    # change, and == does not see that sign
    g = np.random.default_rng(45)
    b = [g.normal(size=50) for _ in range(4)]
    b[1][:10] = 0.0
    b[2][5:15] = -0.0
    arr = g.normal(size=50)
    for a in itertools.product((0.0, 1.0, -1.0, 2.5, arr), repeat=4):
        a00, a01, a10, a11 = a
        want = (a00 * b[0] + a01 * b[2], a00 * b[1] + a01 * b[3],
                a10 * b[0] + a11 * b[2], a10 * b[1] + a11 * b[3])
        for got_e, want_e in zip(mul2(a, b), want):
            assert np.array_equal(np.broadcast_to(got_e, (50,)), want_e)


@pytest.mark.parametrize("f", [anosov_map(), chirikov_map(0.7)],
                         ids=["anosov", "chirikov"])
def test_value_and_jacobian_fallback(f):
    p = np.random.default_rng(7).random((100, 2))
    img, J = f.value_and_jacobian(p)
    assert np.array_equal(img, f(p))
    assert np.array_equal(J, f.jacobian(p))


def test_inverse_descriptor_evaluates_the_inverse_once():
    psi, dpsi = trig_psi([1e-2, -3e-3])
    H = henon_like(psi, dpsi)
    exact, calls = H.inv, []

    def spy(q):
        calls.append(len(q))
        return exact(q)

    H.inv = spy
    q = rng.normal(size=(50, 2))
    img, J = inverse_descriptor(H).value_and_jacobian(q)
    assert calls == [50]
    assert np.array_equal(img, exact(q))
    assert np.array_equal(J, stacked(inv2(entries(H.jacobian(img)))))


def test_chirikov_array_parameter_matches_scalar_maps():
    avals = np.array([0.1, 0.7, 1.2, 3.5, 6.0])
    pts = np.random.default_rng(8).random((5, 2))
    batch = chirikov_map(avals)
    img, J = batch(pts), batch.jacobian(pts)
    back = batch.inverse(pts)
    for i, a in enumerate(avals):
        f = chirikov_map(a)
        assert np.array_equal(img[i], f(pts[i]))
        assert np.array_equal(J[i], f.jacobian(pts[i]))
        assert np.array_equal(back[i], f.inverse(pts[i]))


def test_anosov_basics():
    F = anosov_map()
    p = rng.random((200, 2))
    # determinant one everywhere
    assert np.max(np.abs(np.linalg.det(F.jacobian(p)) - 1)) < 1e-12
    # exact inverse round trip (toral distance)
    q = F(p)
    back = F.inverse(q)
    assert np.max(np.abs(torus_diff(back, p))) < 1e-12
    # fixed points: the four 2-torsion points
    tor = np.array([[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]], dtype=float)
    assert np.max(np.abs(torus_diff(F(tor), tor))) == 0.0
    # top eigenvalue e^sigma
    lam = np.max(np.linalg.eigvalsh(F.jacobian(np.zeros(2))))
    assert abs(np.log(lam) - SIGMA) < 1e-14


BATCH_MAPS = {"anosov": anosov_map(), "rotation": rotation_map(0.7),
              "chirikov": chirikov_map(0.35)}


# the rotation carries no inverse
@pytest.mark.parametrize("way, name", [(way, name) for way in ("ev", "inv")
                                       for name in sorted(BATCH_MAPS)
                                       if way == "ev" or BATCH_MAPS[name].inv is not None])
def test_each_row_of_a_batch_is_its_one_row_result(way, name):
    # a product with a transposed view rounds a row differently with the
    # size of its batch
    f = BATCH_MAPS[name] if way == "ev" else BATCH_MAPS[name].inverse
    pts = np.random.default_rng(21).uniform(-3.0, 3.0, (4000, 2))
    batch = f(pts)
    assert all(np.array_equal(f(pts[i:i + 1]), batch[i:i + 1]) for i in range(len(pts)))


def test_chirikov_inverse_and_trace():
    T = chirikov_map(0.35)
    p = rng.random((300, 2))
    assert np.max(np.abs(torus_diff(T.inverse(T(p)), p))) < 1e-12
    assert np.max(np.abs(np.linalg.det(T.jacobian(p)) - 1)) < 1e-12
    # elliptic fixed point at (1/2, 1/2): trace 2 - 2 pi a
    J = T.jacobian(np.array([0.5, 0.5]))
    assert abs(np.trace(J) - (2 - 2 * np.pi * 0.35)) < 1e-12
    assert np.max(np.abs(torus_diff(T(np.array([0.5, 0.5])), [0.5, 0.5]))) < 1e-15


def test_fd_jacobian_matches_chirikov_analytic():
    # Richardson-style sanity: h = 1e-5 central differences at a generic point
    T = chirikov_map(0.8)
    p = np.array([0.3, 0.7])
    J_fd = finite_difference_jacobian(T, p, h=1e-5, wrap_output=True)
    assert np.max(np.abs(J_fd - T.jacobian(p))) < 1e-8


def test_fd_default_step_scales_with_point():
    f = lambda p: np.stack([p[..., 0] ** 2, p[..., 1]], axis=-1)
    p = np.array([1000.0, 3.0])
    J = finite_difference_jacobian(f, p)
    assert abs(J[0, 0] - 2000.0) < 1e-3


def test_shear_and_henon_inverses():
    psi, dpsi = trig_psi([1e-2, -3e-3, 2e-3])
    S = shear_map(psi, dpsi)
    H = henon_like(psi, dpsi)
    p = rng.normal(size=(100, 2))
    assert np.max(np.abs(S.inverse(S(p)) - p)) < 1e-14
    assert np.max(np.abs(H.inverse(H(p)) - p)) < 1e-14
    assert np.max(np.abs(np.linalg.det(S.jacobian(p)) - 1)) < 1e-14
    assert np.max(np.abs(np.linalg.det(H.jacobian(p)) - 1)) < 1e-14


def test_stacked_shear_maps_one_row_to_its_rows():
    # a column of K scales is K shears: one shared row of points goes to K
    # rows, each bitwise the image under its own shear
    psi, dpsi = trig_psi([1e-2, -3e-3, 2e-3])
    scales = np.array([[1.0], [0.5], [-2.0]])
    stack = shear_map(lambda x: scales * psi(x), lambda x: scales * dpsi(x))
    singles = [shear_map(lambda x, c=c: c * psi(x), lambda x, c=c: c * dpsi(x))
               for c in scales[:, 0]]
    p = rng.normal(size=(50, 2))
    for rows in (p, p[None], np.stack([p, p + 0.1, p - 0.2])):
        img, J = stack.value_and_jacobian(rows)
        assert img.shape == (3, 50, 2) and J.shape == (3, 50, 2, 2)
        each = np.broadcast_to(rows, (3, 50, 2))
        for k, S in enumerate(singles):
            assert np.array_equal(img[k], S(each[k]))
            assert np.array_equal(J[k], S.jacobian(each[k]))
            assert np.array_equal(stack.inverse(rows)[k], S.inverse(each[k]))


def test_quarter_turn_power_four():
    H0 = quarter_turn()
    p = rng.normal(size=(40, 2))
    q = p
    for _ in range(4):
        q = H0(q)
    assert np.max(np.abs(q - p)) < 1e-15


def test_compose_chain_rule_and_det():
    psi, dpsi = trig_psi([5e-3, 1e-3])
    F, S, H = anosov_map(), shear_map(psi, dpsi), henon_like(psi, dpsi)
    C = compose(S, H)
    p = rng.normal(size=(100, 2))
    # determinant multiplicativity
    assert np.max(np.abs(np.linalg.det(C.jacobian(p)) - 1)) < 1e-12
    # chain rule against finite differences
    J_fd = finite_difference_jacobian(C, p[:5])
    assert np.max(np.abs(J_fd - C.jacobian(p[:5]))) < 1e-6
    # associativity
    left = compose(compose(S, H), S)
    right = compose(S, compose(H, S))
    assert np.max(np.abs(left(p) - right(p))) < 1e-12
    assert np.max(np.abs(left.jacobian(p) - right.jacobian(p))) < 1e-10
    # composite of torus map wraps
    torus_comp = compose(F, F)
    out = torus_comp(rng.random((20, 2)))
    assert np.all((out >= 0) & (out < 1))


def test_compose_value_and_jacobian_matches_separate_calls():
    # one pass along the chain gives the same bits as f(p) and Df(p)
    psi, dpsi = trig_psi([5e-3, 1e-3])
    C = compose(henon_like(psi, dpsi), compose(shear_map(psi, dpsi), chirikov_map(0.3)))
    p = np.random.default_rng(8).random((200, 2))
    img, J = C.value_and_jacobian(p)
    assert np.array_equal(img, C(p))
    assert np.array_equal(J, C.jacobian(p))


def test_compose_inverse_available_when_factors_have_it():
    psi, dpsi = trig_psi([2e-3])
    C = compose(shear_map(psi, dpsi), henon_like(psi, dpsi))
    p = rng.normal(size=(30, 2))
    assert np.max(np.abs(C.inv(C(p)) - p)) < 1e-13


def test_rotation_map_orthogonal():
    R = rotation_map(np.pi / 2)
    p = rng.normal(size=(10, 2))
    assert np.max(np.abs(R(R(R(R(p)))) - p)) < 1e-14
    assert np.max(np.abs(identity_map()(p) - p)) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    y=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_standard_family_det_one_property(a, x, y):
    T = chirikov_map(a)
    J = T.jacobian(np.array([x, y]))
    assert abs(np.linalg.det(J) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=1, max_size=6))
def test_shear_symplectic_property(coeffs):
    psi, dpsi = trig_psi(coeffs)
    S = shear_map(psi, dpsi)
    p = np.array([[0.1, 0.4], [0.7, -0.2], [1.3, 2.0]])
    assert np.max(np.abs(np.linalg.det(S.jacobian(p)) - 1.0)) < 1e-13
