"""Multiplicative convolutions: oracles against transform identities.

The oracle route expands words straight from the independence definition;
the transform route multiplies or composes dual series.  They must agree,
and deliberately mismatched pairings must not.
"""

from math import comb

import numpy as np
import pytest

from infconv import (
    DualScalar,
    InfLaw,
    InvalidInputError,
    MathDomainError,
    ProductKind,
    SizeLimitError,
    boolean_mixed_moments,
    constant_cumulant_law,
    convolve_by_transform,
    free_mixed_moments,
    monotone_word_moment,
    oracle_boolean_product,
    oracle_free_product,
    oracle_monotone_product,
    shifted,
    verify,
)
from infconv.checks import rand_law

FUSS_CATALAN = [1.0, 3.0, 12.0, 55.0, 273.0, 1428.0]
CATALAN = [1.0, 2.0, 5.0, 14.0, 42.0, 132.0]


# -- mixed moment models ------------------------------------------------------

def test_free_alternating_fourth_moment():
    # phi(xyxy) = m2(x) m1(y)^2 + m1(x)^2 m2(y) - m1(x)^2 m1(y)^2,
    # valid verbatim over dual scalars
    rng = np.random.default_rng(30)
    lawX, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
    phi = free_mixed_moments(lawX, lawY)
    got = phi(("x", "y", "x", "y"))
    m1x, m2x = lawX.dual_moment(1), lawX.dual_moment(2)
    m1y, m2y = lawY.dual_moment(1), lawY.dual_moment(2)
    expected = m2x * m1y * m1y + m1x * m1x * m2y - m1x * m1x * m1y * m1y
    assert got.almost_equal(expected, 1e-12)


def test_free_single_letter_words_return_plain_moments():
    rng = np.random.default_rng(32)
    law = rand_law(rng, K=6)
    phi = free_mixed_moments(law, law)
    for k in range(1, 5):
        assert phi(("x",) * k).almost_equal(law.dual_moment(k), 1e-10)


def test_free_word_too_long_for_law():
    law = InfLaw.point_mass(1.0, K=2)
    phi = free_mixed_moments(law, law)
    with pytest.raises(MathDomainError):
        phi(("x",) * 3)
    with pytest.raises(MathDomainError):  # x's first block has three letters
        phi(("x", "y", "x", "x"))


def test_monotone_word_confluence():
    """Peeling runs in any order gives the same value."""
    rng = np.random.default_rng(33)
    lawA, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
    word = ("y", "a", "y", "y", "a", "a", "y")
    base = monotone_word_moment(word, lawA, lawY)
    for trial in range(50):
        pick_rng = np.random.default_rng(trial)
        val = monotone_word_moment(
            word, lawA, lawY, pick=lambda count: int(pick_rng.integers(count))
        )
        assert val.almost_equal(base, 1e-12)


def _rand_complex_law(rng, K):
    m = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    mp = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    return InfLaw(K, m, mp)


def _monotone_by_words(lawX, lawY, K, order):
    """Sum monotone_word_moment over all 2^k words of (y(1+a))^k or ((1+a)y)^k."""
    lawA = shifted(lawX, -1.0)
    out = []
    for k in range(1, K + 1):
        total = DualScalar(0.0)
        for mask in range(1 << k):
            word = []
            for i in range(k):
                a = ["a"] if (mask >> i) & 1 else []
                word += ["y"] + a if order == "yx" else a + ["y"]
            total = total + monotone_word_moment(tuple(word), lawA, lawY)
        out.append(total)
    return InfLaw.from_moments(out)


@pytest.mark.parametrize("order", ["yx", "xy"])
def test_monotone_sweep_matches_word_expansion(order):
    rng = np.random.default_rng(39)
    for K in range(1, 7):
        for _ in range(3):
            lawX, lawY = _rand_complex_law(rng, K), _rand_complex_law(rng, K)
            got = oracle_monotone_product(lawX, lawY, K, order=order)
            want = _monotone_by_words(lawX, lawY, K, order)
            for g, w in ((got.m, want.m), (got.m_prime, want.m_prime)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _boolean_by_words(lawX, lawY, K):
    """Sum boolean_mixed_moments over all 4^k subsequence words of (x y)^k."""
    phi = boolean_mixed_moments(lawX, lawY)
    out = []
    for k in range(1, K + 1):
        factors = ("x", "y") * k
        total = DualScalar(0.0)
        for mask in range(1 << (2 * k)):
            # the empty word (mask 0) has moment 1
            total = total + phi(tuple(ch for i, ch in enumerate(factors) if (mask >> i) & 1))
        out.append(total)
    return InfLaw.from_moments(out)


def test_boolean_sweep_matches_word_expansion():
    rng = np.random.default_rng(42)
    for K in range(1, 6):
        for _ in range(3):
            lawX, lawY = _rand_complex_law(rng, K), _rand_complex_law(rng, K)
            got = oracle_boolean_product(lawX, lawY, K)
            want = _boolean_by_words(lawX, lawY, K)
            for g, w in ((got.m, want.m), (got.m_prime, want.m_prime)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _dual_monotone_sweep(lawX, lawY, K, order):
    """oracle_monotone_product's sweep in DualScalar arithmetic, the bit-level reference."""
    lawA = shifted(lawX.truncated(K), -1.0)
    my = [lawY.dual_moment(r) for r in range(K + 1)]
    ma = [lawA.dual_moment(p) for p in range(K + 1)]
    block = ("y", "a") if order == "yx" else ("a", "y")
    states = {(0, 0): DualScalar(1.0)}
    out = []
    for _ in range(K):
        for letter in block:
            if letter == "y":
                states = {(p, r + 1): w for (p, r), w in states.items()}
                continue
            new = dict(states)
            for (p, r), w in states.items():
                new[(p + 1, 0)] = new.get((p + 1, 0), DualScalar(0.0)) + w * my[r]
            states = new
        total = DualScalar(0.0)
        for (p, r), w in states.items():
            total = total + w * my[r] * ma[p]
        out.append(total)
    return InfLaw.from_moments(out)


def _dual_boolean_sweep(lawX, lawY, K):
    """oracle_boolean_product's sweep in DualScalar arithmetic, the bit-level reference."""
    laws = {"x": lawX, "y": lawY}
    states = {(None, 0): DualScalar(1.0)}
    out = []
    for _ in range(K):
        for letter in ("x", "y"):
            new = {}

            def add(key, val):
                new[key] = new.get(key, DualScalar(0.0)) + val

            for (cur, r), w in states.items():
                add((cur, r), w)
                if cur == letter:
                    add((cur, r + 1), w)
                else:
                    if cur is None:
                        add((letter, 1), w)
                    else:
                        add((letter, 1), w * laws[cur].dual_moment(r))
            states = new
        total = DualScalar(0.0)
        for (cur, r), w in states.items():
            total = total + (w if cur is None else w * laws[cur].dual_moment(r))
        out.append(total)
    return InfLaw.from_moments(out)


def _assert_same_law(got, want):
    assert np.array_equal(got.m, want.m)
    assert np.array_equal(got.m_prime, want.m_prime)


@pytest.mark.parametrize("order", ["yx", "xy"])
def test_monotone_sweep_is_bit_identical_to_dual_reference(order):
    rng = np.random.default_rng(70)
    for _ in range(3):
        lawX, lawY = _rand_complex_law(rng, 8), _rand_complex_law(rng, 8)
        for K in range(1, 9):
            _assert_same_law(oracle_monotone_product(lawX, lawY, K, order=order),
                             _dual_monotone_sweep(lawX, lawY, K, order))


def test_boolean_sweep_is_bit_identical_to_dual_reference():
    rng = np.random.default_rng(71)
    for _ in range(3):
        lawX, lawY = _rand_complex_law(rng, 8), _rand_complex_law(rng, 8)
        for K in range(1, 9):
            _assert_same_law(oracle_boolean_product(lawX, lawY, K),
                             _dual_boolean_sweep(lawX, lawY, K))


def test_monotone_orders_rotate_onto_each_other():
    # a^b1 y a^b2 y ... a^bk y rotates to y a^b2 y ... a^bk y a^b1: a bijection
    # from the words of (a? y)^k onto those of (y a?)^k keeping the y-runs, so
    # for scalar laws the "xy" and "yx" moments agree word by word, exactly
    rng = np.random.default_rng(40)
    lawA, lawY = _rand_complex_law(rng, 6), _rand_complex_law(rng, 6)
    for k in range(1, 7):
        yx_words = set()
        rotated = set()
        for mask in range(1 << k):
            bits = [(mask >> i) & 1 for i in range(k)]
            xy = tuple(ch for b in bits for ch in ("a",) * b + ("y",))
            yx_words.add(tuple(ch for b in bits for ch in ("y",) + ("a",) * b))
            rot = xy[bits[0]:] + xy[:bits[0]]
            rotated.add(rot)
            assert monotone_word_moment(rot, lawA, lawY) == monotone_word_moment(
                xy, lawA, lawY)
        assert rotated == yx_words


def test_monotone_word_rejects_stray_letters():
    law = InfLaw.point_mass(1.0, K=4)
    with pytest.raises(InvalidInputError):
        monotone_word_moment(("y", "b"), law, law)


# -- frozen product values ------------------------------------------------------

def test_product_of_two_unit_rate_poissons_is_fuss_catalan():
    fp = InfLaw.from_moments(CATALAN)
    prod = oracle_free_product(fp, fp, 6)
    assert np.allclose(prod.m, FUSS_CATALAN, atol=1e-9)
    via_t = convolve_by_transform(ProductKind.FREE, fp, fp, 6)
    assert np.allclose(via_t.m, FUSS_CATALAN, atol=1e-9)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("c_prime", [0.0, 0.5, 1.0, 2.0])
def test_m_fold_free_product_of_limit_laws(m, c_prime):
    """Closed form of the m-fold free product of the c = 1 limit law.

    The limit law has T = 1 + w + eps c', so the product has
    T = (1 + w)^m + eps m c' (1 + w)^(m-1) and psi^<-1>(w) = h + eps h1 with
    h = w (1 + w)^-(m+1) and h1 = -m c' w (1 + w)^-(m+2).  Lagrange inversion
    of psi = z (1 + psi)^(m+1) gives the Fuss-Catalan body
    C((m+1)k, k)/(mk+1) (free Bessel laws); the eps part
    psi1 = -h1(psi) psi' = m c' (d/dz) G(psi) with G' = h1 / (-m c') inverts
    the same way to m c' C((m+1)k - 1, k - 1).
    """
    K = 10
    limit = constant_cumulant_law(1.0, c_prime, K=K)
    prod = limit
    for _ in range(m - 1):
        prod = convolve_by_transform(ProductKind.FREE, prod, limit)
    body = [comb((m + 1) * k, k) / (m * k + 1) for k in range(1, K + 1)]
    eps = [m * c_prime * comb((m + 1) * k - 1, k - 1) for k in range(1, K + 1)]
    assert np.allclose(prod.m, body, rtol=1e-12, atol=0)
    assert np.allclose(prod.m_prime, eps, rtol=1e-12, atol=0)


def test_free_transform_route_at_a_single_moment():
    rng = np.random.default_rng(41)
    for _ in range(5):
        lx, ly = _rand_complex_law(rng, 1), _rand_complex_law(rng, 1)
        route = convolve_by_transform(ProductKind.FREE, lx, ly)
        assert route.K == 1
        assert max(route.max_abs_diff(oracle_free_product(lx, ly, 1))) < 1e-14


def test_free_transform_overflow_is_reported_as_overflow():
    # moments 10^e: the T product overflows, and S = 1/T reads [0, nan, ...]
    for e in range(160, 301, 10):
        law = InfLaw(4, [10.0 ** e] * 4, [0.0] * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MathDomainError, match="the S transform overflowed"):
                convolve_by_transform(ProductKind.FREE, law, law)


def test_free_product_with_unit_point_mass_is_identity():
    rng = np.random.default_rng(34)
    law = rand_law(rng, K=6)
    unit = InfLaw.point_mass(1.0, K=6)
    assert max(oracle_free_product(law, unit, 6).max_abs_diff(law)) < 1e-12


def test_monotone_product_with_unit_lower_leg_is_identity():
    rng = np.random.default_rng(35)
    law = rand_law(rng, K=6)
    unit = InfLaw.point_mass(1.0, K=6)
    got = oracle_monotone_product(unit, law, 6)
    assert got.max_abs_diff(law) == (0.0, 0.0)


def test_boolean_product_with_zero_leg_shifts_the_other():
    rng = np.random.default_rng(36)
    law = rand_law(rng, K=6)
    zero = InfLaw.point_mass(0.0, K=6)
    got = oracle_boolean_product(zero, law, 6)
    assert got.max_abs_diff(shifted(law, 1.0)) == (0.0, 0.0)


# -- oracle vs transform ----------------------------------------------------------

@pytest.mark.parametrize("kind", list(ProductKind))
def test_oracle_agrees_with_transform(kind):
    rng = np.random.default_rng(37)
    for _ in range(5):
        lawX, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
        report = verify(kind, lawX, lawY, 6)
        assert report.passed, report
        assert report.deviation_body < 1e-8
        assert report.deviation_eps < 1e-8


def test_monotone_orders_agree_with_their_oracles():
    rng = np.random.default_rng(38)
    lawX, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
    for order in ("yx", "xy"):
        report = verify(ProductKind.MONOTONE, lawX, lawY, 6, order=order)
        assert report.passed, report


def test_wrong_independence_is_loud():
    # feeding a Boolean pair to the free identity must not look correct
    rng = np.random.default_rng(31)
    lawX, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
    bo = oracle_boolean_product(lawX, lawY, 6)
    ft = convolve_by_transform(ProductKind.FREE, lawX, lawY, 6)
    assert max(bo.max_abs_diff(ft)) > 1.0


def test_monotone_role_swap_is_loud():
    rng = np.random.default_rng(31)
    lawX, lawY = rand_law(rng, K=6), rand_law(rng, K=6)
    mo = oracle_monotone_product(lawX, lawY, 6, order="yx")
    swapped = convolve_by_transform(ProductKind.MONOTONE, lawY, lawX, 6, order="yx")
    assert max(mo.max_abs_diff(swapped)) > 1.0


# -- report and guards ---------------------------------------------------------------

def test_report_json_shape():
    law = InfLaw.from_moments(CATALAN)
    report = verify(ProductKind.FREE, law, law, 4)
    obj = report.to_json_obj()
    assert set(obj) == {"kind", "K", "deviation_body", "deviation_eps", "pass"}
    assert obj["kind"] == "free" and obj["pass"] is True


def test_kind_from_name():
    assert ProductKind.from_name(" Monotone ") is ProductKind.MONOTONE
    with pytest.raises(InvalidInputError):
        ProductKind.from_name("classical")


def test_oracle_size_guards():
    law = InfLaw.point_mass(1.0, K=12)
    assert oracle_free_product(law, law, 8).K == 8
    assert oracle_boolean_product(law, law, 10).K == 10
    assert oracle_monotone_product(law, law, 8).K == 8
    with pytest.raises(SizeLimitError):
        oracle_free_product(law, law, 9)
    with pytest.raises(SizeLimitError):
        oracle_boolean_product(law, law, 11)
    with pytest.raises(SizeLimitError):
        oracle_monotone_product(law, law, 9)


def test_oracle_needs_enough_moments():
    short = InfLaw.point_mass(1.0, K=3)
    with pytest.raises(SizeLimitError):
        oracle_free_product(short, short, 5)


def test_monotone_order_validation():
    law = InfLaw.point_mass(1.0, K=4)
    with pytest.raises(InvalidInputError):
        oracle_monotone_product(law, law, 4, order="sideways")
