"""Infinitesimal laws and the six transform kinds.

Frozen reference points: the point mass at 1 and the free Poisson law
with unit rate (moment sequence = Catalan numbers, T(w) = 1 + w).
"""

from math import comb

import numpy as np
import pytest

from infconv import (
    DualScalar,
    DualSeries,
    InfLaw,
    InvalidInputError,
    MathDomainError,
    TransformKind,
    d_transform,
    eta_plain,
    eta_tilde,
    law_from_transform,
    psi,
    s_transform,
    scaled,
    shifted,
    t_transform,
    transform,
)
from infconv.checks import rand_law

CATALAN = [1.0, 2.0, 5.0, 14.0, 42.0, 132.0, 429.0, 1430.0]


def free_poisson_one(K=8):
    return InfLaw.from_moments(CATALAN[:K])


# -- construction -------------------------------------------------------------

def test_point_mass_moments():
    law = InfLaw.point_mass(2.0, K=5)
    assert np.allclose(law.m, [2, 4, 8, 16, 32])
    assert np.all(law.m_prime == 0)


def test_from_moments_accepts_duals():
    law = InfLaw.from_moments([DualScalar(1.0, 0.5), DualScalar(2.0, 0.25)])
    assert law.K == 2
    assert law.dual_moment(2).eps == 0.25
    # the zeroth moment is the unit in every law
    assert law.dual_moment(0).almost_equal(DualScalar(1.0))


def test_truncated():
    law = free_poisson_one(8).truncated(3)
    assert law.K == 3 and np.allclose(law.m, [1, 2, 5])


def test_json_roundtrip():
    rng = np.random.default_rng(11)
    law = rand_law(rng)
    back = InfLaw.from_json(law.to_json())
    assert law.max_abs_diff(back) == (0.0, 0.0)


def test_from_json_rejects_ragged_input():
    for text in ('{"K": 2, "m": [1.0], "m_prime": [0.0, 0.0]}',
                 '{"K": 1e400, "m": [1.0]}',  # K overflows an int
                 '{"K": 2.5, "m": [1, 2], "m_prime": [0, 0]}',
                 '{"K": 2, "m": [true, false]}',
                 "[" * 100_000):  # nested too deep for the JSON parser
        with pytest.raises(InvalidInputError):
            InfLaw.from_json(text)


# -- shift and scale ----------------------------------------------------------

def test_shifted_point_mass():
    law = shifted(InfLaw.point_mass(1.0, K=6), 1.0)
    assert np.allclose(law.m, InfLaw.point_mass(2.0, K=6).m)


def test_shift_roundtrip():
    rng = np.random.default_rng(12)
    law = rand_law(rng)
    back = shifted(shifted(law, 0.75), -0.75)
    d = law.max_abs_diff(back)
    assert max(d) < 1e-12


def _dual_shifted(law, c):
    """shifted's binomial transform in DualScalar arithmetic, the bit-level reference."""
    cv = DualScalar.of(c)
    powers = [DualScalar(1.0)]
    for _ in range(law.K):
        powers.append(powers[-1] * cv)
    moments = [law.dual_moment(j) for j in range(law.K + 1)]
    out = []
    for n in range(1, law.K + 1):
        acc = DualScalar(0.0)
        for j in range(0, n + 1):
            acc = acc + comb(n, j) * powers[n - j] * moments[j]
        out.append(acc)
    return InfLaw.from_moments(out)


@pytest.mark.parametrize("K", range(1, 9))
def test_shifted_is_bit_identical_to_dual_reference(K):
    rng = np.random.default_rng(60 + K)
    for _ in range(3):
        m = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        mp = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        law = InfLaw(K, m, mp)
        drawn = DualScalar(complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-1, 1, 2)))
        for c in (1.0, -1.0, 0.5 - 0.75j, DualScalar(0.75, 0.5 - 0.25j),
                  DualScalar(-1.25, -0.5 + 0.125j), drawn):
            got, want = shifted(law, c), _dual_shifted(law, c)
            assert np.array_equal(got.m, want.m), c
            assert np.array_equal(got.m_prime, want.m_prime), c


def test_scaled_moments():
    law = scaled(free_poisson_one(4), 2.0)
    assert np.allclose(law.m, [2 * 1, 4 * 2, 8 * 5, 16 * 14])


def test_scaling_by_dual_constant_seeds_infinitesimal_part():
    # c x with c = 1 + eps c' gives m'_n = n c' m_n at the body point c=1
    law = scaled(free_poisson_one(4), DualScalar(1.0, 0.5))
    expected = [n * 0.5 * m for n, m in enumerate(CATALAN[:4], start=1)]
    assert np.allclose(law.m_prime, expected)


# -- frozen transform values ----------------------------------------------------

def test_psi_of_point_mass_at_one():
    p = psi(InfLaw.point_mass(1.0, K=6))
    assert np.allclose(p.body, [0, 1, 1, 1, 1, 1, 1][: p.order + 1])


def test_eta_plain_of_point_mass_at_one_is_identity():
    # psi = z/(1-z) so psi/(1+psi) collapses to z
    e = eta_plain(InfLaw.point_mass(1.0, K=6))
    assert e.almost_equal(DualSeries.identity(e.order), 1e-12)


def test_eta_tilde_is_eta_plain_shifted_down():
    rng = np.random.default_rng(13)
    law = rand_law(rng)
    d = eta_tilde(law).max_abs_diff(eta_plain(law).shift_down())
    assert max(d) < 1e-12


def test_free_poisson_t_transform():
    # S(w) = 1/(1+w), so T(w) = 1 + w on the nose
    t = t_transform(free_poisson_one(8))
    expected = np.zeros(t.order + 1)
    expected[0] = 1.0
    expected[1] = 1.0
    assert np.allclose(t.body, expected, atol=1e-10)


def test_free_poisson_s_transform():
    s = s_transform(free_poisson_one(8))
    geom = [(-1.0) ** k for k in range(s.order + 1)]
    assert np.allclose(s.body, geom, atol=1e-10)


def test_t_starts_at_first_moment():
    rng = np.random.default_rng(14)
    law = rand_law(rng)
    t = t_transform(law)
    assert t.coeff(0).almost_equal(law.dual_moment(1), 1e-10)


# -- roundtrips -----------------------------------------------------------------

@pytest.mark.parametrize("kind", list(TransformKind))
def test_transform_roundtrip(kind):
    rng = np.random.default_rng(15)
    for _ in range(5):
        law = rand_law(rng)
        back = law_from_transform(kind, transform(kind, law))
        expect = law if kind in (TransformKind.PSI, TransformKind.ETA_PLAIN,
                                 TransformKind.KAPPA, TransformKind.RHO) \
            else law.truncated(back.K)
        d = expect.max_abs_diff(back)
        assert max(d) < 1e-10, (kind, d)


# -- infinitesimal companion ------------------------------------------------------

@pytest.mark.parametrize("kind", list(TransformKind))
def test_d_transform_matches_eps_part(kind):
    rng = np.random.default_rng(16)
    # reversion conditioning: S and T sweeps pin the mean at 1
    law = rand_law(rng, lo=1.0, hi=1.0) if kind in (TransformKind.S, TransformKind.T) \
        else rand_law(rng)
    full = transform(kind, law)
    d = d_transform(kind, law)
    m = min(full.order, d.order)
    assert np.max(np.abs(full.eps[: m + 1] - d.body[: m + 1])) < 1e-10


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("K", range(1, 9))
def test_d_transform_keeps_the_transform_order(kind, K):
    rng = np.random.default_rng(100 + K)
    law = rand_law(rng, K=K, lo=1.0, hi=1.0) \
        if kind in (TransformKind.S, TransformKind.T) else rand_law(rng, K=K)
    full = transform(kind, law)
    d = d_transform(kind, law)
    assert d.order == full.order
    assert np.max(np.abs(full.eps - d.body)) < 1e-10


@pytest.mark.parametrize("kind", [TransformKind.S, TransformKind.T])
def test_s_and_t_of_a_single_moment(kind):
    # first-order S-transform: S = 1/m~_1 and T = m~_1
    law = InfLaw.from_moments([DualScalar(1.5 - 0.5j, -0.25 + 1j)])
    f = transform(kind, law)
    mean = law.dual_moment(1)
    assert f.order == 0
    assert f.coeff(0).almost_equal(mean if kind is TransformKind.T else mean.inv(), 1e-15)
    back = law_from_transform(kind, f)
    assert back.K == 1 and max(law.max_abs_diff(back)) < 1e-15


def test_d_transform_is_plain():
    law = free_poisson_one(6)
    d = d_transform(TransformKind.ETA_PLAIN, law)
    assert np.all(d.eps == 0)


# -- error paths -------------------------------------------------------------------

def test_s_transform_needs_invertible_mean():
    law = InfLaw.from_moments([0.0, 1.0, 0.0, 2.0])
    with pytest.raises(MathDomainError):
        s_transform(law)


def test_law_from_psi_rejects_constant_term():
    f = DualSeries.constant(1.0, 4)
    with pytest.raises(InvalidInputError):
        law_from_transform(TransformKind.PSI, f)


def test_law_from_t_rejects_vanishing_origin():
    f = DualSeries.identity(4)
    with pytest.raises(MathDomainError):
        law_from_transform(TransformKind.T, f)


def test_zero_origin_of_an_overflowed_series_is_reported_as_overflow():
    for kind in (TransformKind.T, TransformKind.S):
        name = kind.value.upper()
        for f in (DualSeries(2, [0, np.inf, 1]), DualSeries(2, [0, 1, 0], [0, 0, np.nan])):
            with pytest.raises(MathDomainError, match=f"the {name} transform overflowed"):
                law_from_transform(kind, f)
        with pytest.raises(MathDomainError, match=f"{name} must not vanish at 0"):
            law_from_transform(kind, DualSeries.identity(2))


def test_transform_kind_from_name():
    assert TransformKind.from_name("t") is TransformKind.T
    with pytest.raises(InvalidInputError):
        TransformKind.from_name("weird")
