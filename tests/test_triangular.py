"""Upper-triangular series matrices and block transforms.

A block [[p, q], [0, p]] is the dual series p + eps q; these tests pin that
record and compare the direct route for each block transform (the dual
transform series at b + eps c) against the series-calculus formula route.
"""

import numpy as np
import pytest

from infconv import (
    DualScalar,
    DualSeries,
    InfLaw,
    InvalidInputError,
    SizeLimitError,
    TransformKind,
    UT2,
    block_transform,
    block_transform_formula,
    boolean_mixed_moments,
    centered_alternating_check,
    d_transform,
    free_mixed_moments,
    transform,
)
from infconv.checks import rand_law, rand_series

BLOCK_KINDS = [TransformKind.PSI, TransformKind.ETA_PLAIN, TransformKind.KAPPA,
               TransformKind.RHO, TransformKind.S, TransformKind.T]


def rand_plain(rng, order=6):
    coeffs = rng.uniform(-0.8, 0.8, order + 1)
    coeffs[0] = 0.0
    return DualSeries.from_coeffs([complex(v) for v in coeffs])


# -- the block record ----------------------------------------------------------------

def test_entries_must_share_order():
    with pytest.raises(InvalidInputError):
        UT2(DualSeries(3), DualSeries(4))


def test_entries_must_be_plain():
    dual = DualSeries.from_coeffs([DualScalar(1.0, 1.0)])
    with pytest.raises(InvalidInputError):
        UT2(dual, DualSeries(0))


def test_dual_series_roundtrip():
    rng = np.random.default_rng(45)
    f = rand_series(rng, order=5)
    m = UT2.from_dual_series(f)
    assert m.to_dual_series().almost_equal(f, 0.0)


# -- block transforms: direct route vs formula route --------------------------------

@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_block_routes_agree(kind):
    rng = np.random.default_rng(48)
    for _ in range(3):
        law = rand_law(rng)
        b = rand_plain(rng)
        c = rand_plain(rng)
        got = block_transform(kind, law, b, c)
        want = block_transform_formula(kind, law, b, c)
        assert got.max_abs_diff(want) < 1e-9, kind


def test_block_at_zero_corner_collapses_to_scalar_transform():
    # with c = 0 the corner of the block is the infinitesimal transform of b
    rng = np.random.default_rng(49)
    law = rand_law(rng)
    b = rand_plain(rng)
    zero = DualSeries(b.order)
    for kind in BLOCK_KINDS:
        blk = block_transform(kind, law, b, zero)
        body, _ = transform(kind, law).eps_split()
        want_diag = body.compose(b)
        want_corner = d_transform(kind, law).compose(b)
        assert max(blk.diag.max_abs_diff(want_diag.truncated(blk.order))) < 1e-10, kind
        assert max(blk.corner.max_abs_diff(want_corner.truncated(blk.order))) < 1e-10, kind


def test_block_transform_needs_vanishing_argument():
    law = InfLaw.point_mass(1.0, K=4)
    b = DualSeries.identity(4)
    one = DualSeries.constant(1.0, 4)
    for kind in BLOCK_KINDS:
        with pytest.raises(InvalidInputError):
            block_transform(kind, law, one, b)
        with pytest.raises(InvalidInputError):
            block_transform(kind, law, b, one)


@pytest.mark.parametrize("route", [block_transform, block_transform_formula])
def test_block_argument_must_be_plain(route):
    # an eps part is rejected also where it lies beyond the common order
    law = InfLaw.point_mass(1.0, K=4)
    plain = DualSeries.identity(4)
    near = DualSeries.from_coeffs([DualScalar(0.0), DualScalar(1.0, 0.5)])
    far = DualSeries.from_coeffs(
        [DualScalar(0.0), DualScalar(1.0)] + [DualScalar(0.0)] * 6 + [DualScalar(0.0, 0.5)]
    )
    for kind in BLOCK_KINDS:
        for dual in (near, far):
            with pytest.raises(InvalidInputError):
                route(kind, law, dual, plain)
            with pytest.raises(InvalidInputError):
                route(kind, law, plain, dual)


def test_eta_tilde_has_no_matrix_form():
    law = InfLaw.point_mass(1.0, K=4)
    b = DualSeries.identity(4)
    with pytest.raises(InvalidInputError):
        block_transform(TransformKind.ETA_TILDE, law, b, DualSeries(4))
    with pytest.raises(InvalidInputError):
        block_transform_formula(TransformKind.ETA_TILDE, law, b, DualSeries(4))


# -- centered alternating words -------------------------------------------------------

def test_centered_words_vanish_for_free_pairs():
    rng = np.random.default_rng(50)
    lawX, lawY = rand_law(rng, K=3), rand_law(rng, K=3)
    rep = centered_alternating_check(free_mixed_moments(lawX, lawY), max_len=5)
    assert rep.words_checked == 8
    assert rep.max_body < 1e-9 and rep.max_eps < 1e-9


def test_centered_words_survive_boolean_pairs():
    rng = np.random.default_rng(50)
    lawX, lawY = rand_law(rng, K=3), rand_law(rng, K=3)
    rep = centered_alternating_check(boolean_mixed_moments(lawX, lawY), max_len=5)
    assert rep.max_body > 1e-6


def test_centered_check_guards():
    law = InfLaw.point_mass(1.0, K=3)
    with pytest.raises(SizeLimitError):
        centered_alternating_check(free_mixed_moments(law, law), max_len=13)
