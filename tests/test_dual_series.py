"""Dual-number arithmetic and the truncated series ring built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infconv import (
    DualScalar,
    DualSeries,
    InfLaw,
    InvalidInputError,
    MathDomainError,
    constant_cumulant_law,
    shifted,
)
from infconv.checks import rand_series

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def duals():
    return st.builds(lambda a, b: DualScalar(complex(a), complex(b)), finite, finite)


# -- scalar layer -------------------------------------------------------------

def test_eps_squared_vanishes():
    eps = DualScalar(0.0, 1.0)
    sq = eps * eps
    assert sq.body == 0 and sq.eps == 0


def test_product_rule():
    a = DualScalar(2.0, 3.0)
    b = DualScalar(5.0, 7.0)
    p = a * b
    assert p.body == 10.0
    assert p.eps == 2.0 * 7.0 + 3.0 * 5.0


def test_inverse():
    a = DualScalar(2.0, 3.0)
    i = a.inv()
    assert i.body == pytest.approx(0.5)
    assert i.eps == pytest.approx(-3.0 / 4.0)
    assert (a * i).almost_equal(DualScalar(1.0))


def test_integer_power():
    a = DualScalar(2.0, 1.0)
    # (a + eps)^3 = a^3 + 3 a^2 eps
    p = a ** 3
    assert p.body == 8.0 and p.eps == 12.0


def test_zero_body_has_no_inverse():
    with pytest.raises(MathDomainError):
        DualScalar(0.0, 1.0).inv()


def _same_law(a, b):
    return a.K == b.K and np.array_equal(a.m, b.m) and np.array_equal(a.m_prime, b.m_prime)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.float32, np.complex64])
def test_numpy_scalars_coerce(kind):
    assert DualScalar.of(kind(2)) == DualScalar(2.0)
    assert DualScalar(1.0, 1.0) * kind(2) == DualScalar(2.0, 2.0)
    law = InfLaw.point_mass(kind(2), K=3)
    assert _same_law(law, InfLaw.point_mass(2.0, K=3))
    assert _same_law(shifted(law, kind(1)), InfLaw.point_mass(3.0, K=3))
    assert _same_law(constant_cumulant_law(kind(1)), constant_cumulant_law(1.0))


def test_non_numbers_do_not_coerce():
    for value in (True, False, np.bool_(True), "1", None, [1.0]):
        with pytest.raises(TypeError):
            DualScalar.of(value)


@given(duals(), duals(), duals())
@settings(max_examples=60, deadline=None)
def test_scalar_ring_axioms(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.almost_equal(rhs, 1e-12)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.almost_equal(rhs, 1e-12)


@given(duals())
@settings(max_examples=40, deadline=None)
def test_scalar_inverse_roundtrip(a):
    if abs(a.body) < 1e-3:
        return
    assert (a * a.inv()).almost_equal(DualScalar(1.0), 1e-10)


# -- series layer -------------------------------------------------------------

def _rand_series(rng, order=8, const=None):
    f = rand_series(rng, order)
    if const is not None:
        f.body[0] = const
        if const == 0.0:
            # a vanishing series vanishes in both components
            f.eps[0] = 0.0
    return f


def test_geometric_series_inverse():
    # 1/(1 - z) carries coefficient 1 at every order
    one_minus_z = DualSeries.from_coeffs([1.0, -1.0, 0, 0, 0, 0], order=5)
    g = one_minus_z.inv()
    assert np.allclose(g.body, np.ones(6))
    assert np.allclose(g.eps, np.zeros(6))


def test_mul_inv_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = _rand_series(rng, const=rng.uniform(0.5, 1.5))
        g = f * f.inv()
        assert g.almost_equal(DualSeries.constant(1.0, g.order), 1e-10)


def test_compose_reversion_roundtrip():
    # higher coefficients kept below 0.7 so order-8 reversion stays well
    # conditioned; at full [-1,1] spread the roundtrip error can pass 1e-10
    rng = np.random.default_rng(3)
    ident = DualSeries.identity(8)
    for _ in range(20):
        f = _rand_series(rng, const=0.0)
        f.body[1:] *= 0.7
        f.eps[1:] *= 0.7
        f.body[1] = rng.uniform(0.7, 1.3)
        r = f.reversion()
        assert f.compose(r).almost_equal(ident, 1e-10)
        assert r.compose(f).almost_equal(ident, 1e-10)


def _rand_complex_series(rng, order):
    """Vanishing at 0, complex body and eps, linear term with an eps part."""
    body = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    eps = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    body[0] = eps[0] = 0.0
    body[1] = rng.uniform(0.7, 1.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return DualSeries(order, body, eps)


@pytest.mark.parametrize("order", range(1, 11))  # 1 is the smallest order accepted
def test_lagrange_reversion_is_two_sided_inverse(order):
    rng = np.random.default_rng(100 + order)
    ident = DualSeries.identity(order)
    for _ in range(20):
        f = _rand_complex_series(rng, order)
        assert f.eps[1] != 0
        g = f.reversion()
        scale = max(np.max(np.abs(g.body)), np.max(np.abs(g.eps)))
        for residual in (f.compose(g), g.compose(f)):
            assert max(residual.max_abs_diff(ident)) <= 1e-12 * scale


def test_reversion_of_mobius_map():
    # z/(1-z) reverts to z/(1+z): coefficients 1,1,1,... vs 1,-1,1,-1,...
    f = DualSeries.from_coeffs([0] + [1.0] * 6)
    r = f.reversion()
    assert np.allclose(r.body, [0, 1, -1, 1, -1, 1, -1])


def test_derivative_leibniz():
    rng = np.random.default_rng(4)
    f = _rand_series(rng, order=7)
    g = _rand_series(rng, order=7)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g.truncated(6) + f.truncated(6) * g.derivative()
    d = lhs.max_abs_diff(rhs)
    assert max(d) < 1e-12


def test_shift_up_down():
    f = DualSeries.from_coeffs([0.0, 2.0, 3.0])
    up = f.shift_up()
    assert np.allclose(up.body, [0, 0, 2, 3])
    back = up.shift_down()
    assert np.allclose(back.body, f.body)


def test_shift_down_requires_vanishing_constant():
    # the constant must be exactly 0, as compose and reversion require
    for const in (1.0, 1e-13, DualScalar(0.0, 1e-13)):
        with pytest.raises(MathDomainError):
            DualSeries.from_coeffs([const, 2.0]).shift_down()


def test_eps_split_recombine():
    rng = np.random.default_rng(5)
    f = _rand_series(rng)
    body, eps = f.eps_split()
    assert np.allclose(eps.body, f.eps)
    assert np.all(body.eps == 0) and np.all(eps.eps == 0)
    g = DualSeries.recombine(body, eps)
    assert g.almost_equal(f, 0.0)


def test_compose_needs_vanishing_inner_term():
    f = DualSeries.identity(5)
    g = DualSeries.constant(1.0, 5)
    with pytest.raises(MathDomainError):
        f.compose(g)


def test_recombine_rejects_dual_input():
    f = DualSeries.from_coeffs([DualScalar(1.0, 1.0)])
    with pytest.raises(InvalidInputError):
        DualSeries.recombine(f, f)


def test_reversion_needs_invertible_linear_term():
    f = DualSeries.from_coeffs([0.0, 0.0, 1.0])
    with pytest.raises(MathDomainError):
        f.reversion()


def test_inverse_needs_invertible_constant():
    f = DualSeries.from_coeffs([0.0, 1.0])
    with pytest.raises(MathDomainError):
        f.inv()


def test_truncation_is_projection():
    rng = np.random.default_rng(6)
    f = _rand_series(rng, order=8)
    g = f.truncated(4)
    assert g.order == 4
    assert np.allclose(g.body, f.body[:5])


def test_constructor_takes_exactly_order_plus_one_coefficients():
    # short input is not padded with zeros, long input is not truncated
    for body, eps in (([1, 2], None), ([0] * 5, None), ([0] * 4, np.zeros(3))):
        with pytest.raises(InvalidInputError):
            DualSeries(3, body, eps)
    body = np.array([1, 2, 3, 4], dtype=complex)
    f = DualSeries(3, body, np.ones(4))
    g = f.copy()
    body[0] = f.body[1] = 7  # the constructor copies, so copy() shares nothing
    assert f.body.tolist() == [1, 7, 3, 4] and f.eps.tolist() == [1] * 4
    assert g.body.tolist() == [1, 2, 3, 4]


def test_from_coeffs_takes_exactly_order_plus_one_coefficients():
    # like the constructor: neither padded with zeros nor truncated
    for coeffs, order in (([1.0, 2.0], 5), ([1.0, 2.0, 3.0], 1)):
        with pytest.raises(InvalidInputError):
            DualSeries.from_coeffs(coeffs, order=order)
    f = DualSeries.from_coeffs([1.0, DualScalar(2.0, 0.5)], order=1)
    assert f.body.tolist() == [1, 2] and f.eps.tolist() == [0, 0.5]


def test_json_roundtrip():
    rng = np.random.default_rng(7)
    f = _rand_series(rng, order=6)
    g = DualSeries.from_json(f.to_json())
    assert g.almost_equal(f, 0.0)


def test_from_json_rejects_malformed_input():
    for text in ('{"K": 0, "coeffs": [5]}',            # a row that is not a list
                 '{"K": 0, "coeffs": 5}',              # rows that are not a list
                 '{"K": 0, "coeffs": [["1", 0, 0, 0]]}',
                 '{"K": 0, "coeffs": [[true, false, 0, 0]]}',
                 '{"K": 0, "coeffs": [[' + "9" * 400 + ', 0, 0, 0]]}',  # past the float range
                 '{"K": 0, "coeffs": [[NaN, 0, 0, 0]]}',
                 '{"K": 0, "coeffs": [[0, 0, 1e400, 0]]}',  # json reads 1e400 as inf
                 '{"K": 0, "coeffs": [[0, 0, 0, -Infinity]]}',
                 '{"K": 1, "coeffs": [[1, 0, 0, 0]]}',
                 "[" * 100_000):                       # nested too deep for the JSON parser
        with pytest.raises(InvalidInputError):
            DualSeries.from_json(text)


@given(st.integers(min_value=0, max_value=20260814))
@settings(max_examples=15, deadline=None)
def test_series_mul_associative(seed):
    rng = np.random.default_rng(seed)
    f = _rand_series(rng, order=6)
    g = _rand_series(rng, order=6)
    h = _rand_series(rng, order=6)
    d = ((f * g) * h).max_abs_diff(f * (g * h))
    assert max(d) < 1e-12


@given(st.integers(min_value=0, max_value=20260814))
@settings(max_examples=10, deadline=None)
def test_compose_distributes_over_mul(seed):
    # (f*g) o h == (f o h) * (g o h) in the truncated ring
    rng = np.random.default_rng(seed)
    f = _rand_series(rng, order=6)
    g = _rand_series(rng, order=6)
    h = _rand_series(rng, order=6, const=0.0)
    d = (f * g).compose(h).max_abs_diff(f.compose(h) * g.compose(h))
    assert max(d) < 1e-10
