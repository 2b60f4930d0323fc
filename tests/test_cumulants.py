"""Free cumulants, t-coefficients, and the routes between them."""

import functools
import itertools
import operator
from collections import Counter

import numpy as np
import pytest

from infconv import (
    CumulantVector,
    DualScalar,
    InfLaw,
    InvalidInputError,
    MathDomainError,
    SetPartition,
    SizeLimitError,
    TCoeffVector,
    boolean_mixed_moments,
    connected_classes,
    constant_cumulant_law,
    cumulants_from_moments,
    d_t_pi_value,
    enumerate_nc,
    enumerate_ncl,
    free_mixed_moments,
    inf_cumulants_direct,
    kappa_from_t,
    linked_class,
    make_mixed_t,
    mixed_vanishing_check,
    moments_from_cumulants,
    moments_from_t,
    non_minimal_elements,
    scaled,
    t_coeffs_from_moments,
    t_pi_value,
)
from infconv.checks import catalan_schroder, rand_law
from infconv.cumulants import (
    _factor_positions,
    _linked_full_types,
    _mixed_level,
    _nc_types,
    _product_rule,
    _size_key,
    scan_words,
)

CATALAN = [1.0, 2.0, 5.0, 14.0, 42.0, 132.0, 429.0, 1430.0]


def rand_complex_law(rng, K):
    m = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    mp = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    m[0] = rng.uniform(0.7, 1.3)
    return InfLaw(K, m, mp)


# -- moments <-> cumulants ------------------------------------------------------

def test_catalan_moments_have_unit_cumulants():
    cum = cumulants_from_moments(InfLaw.from_moments(CATALAN))
    assert np.allclose(cum.kappa, np.ones(8), atol=1e-12)
    assert np.allclose(cum.kappa_prime, np.zeros(8))


def test_point_mass_cumulants_stop_after_the_mean():
    cum = cumulants_from_moments(InfLaw.point_mass(1.5, K=6))
    assert cum.kappa[0] == pytest.approx(1.5)
    assert np.allclose(cum.kappa[1:], np.zeros(5), atol=1e-12)


def test_semicircle_has_only_variance():
    law = InfLaw.from_moments([0.0, 1.0, 0.0, 2.0, 0.0, 5.0])
    cum = cumulants_from_moments(law)
    assert np.allclose(cum.kappa, [0, 1, 0, 0, 0, 0], atol=1e-12)


def test_moment_cumulant_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        law = rand_law(rng)
        back = moments_from_cumulants(cumulants_from_moments(law))
        assert max(law.max_abs_diff(back)) < 1e-10


def test_constant_cumulant_law_frozen_moments():
    # kappa_n = c for all n gives the free Poisson moment polynomials
    c, cp = 2.0, 1.5
    law = constant_cumulant_law(c, cp, K=4)
    assert np.allclose(law.m, [c,
                               c + c ** 2,
                               c + 3 * c ** 2 + c ** 3,
                               c + 6 * c ** 2 + 6 * c ** 3 + c ** 4])
    assert np.allclose(law.m_prime, [cp,
                                     cp * (1 + 2 * c),
                                     cp * (1 + 6 * c + 3 * c ** 2),
                                     cp * (1 + 12 * c + 18 * c ** 2 + 4 * c ** 3)])


def test_inf_cumulants_direct_matches_dual_route():
    rng = np.random.default_rng(22)
    for _ in range(10):
        law = rand_law(rng)
        dual_route = cumulants_from_moments(law).kappa_prime
        direct = inf_cumulants_direct(law)
        # order-8 cumulants reach ~1e4, so keep the route tolerance absolute 1e-9
        assert np.max(np.abs(direct - dual_route)) < 1e-9


def _gap_sum(m, s, r):
    """The former quintic route: [z^r] M(z)^s rebuilt for every (s, r)."""
    row = [DualScalar(1.0 if r_ == 0 else 0.0) for r_ in range(r + 1)]
    for _ in range(s):
        new = []
        for rr in range(r + 1):
            acc = DualScalar(0.0)
            for g in range(rr + 1):
                acc = acc + m[g] * row[rr - g]
            new.append(acc)
        row = new
    return row[r]


@pytest.mark.parametrize("K", range(1, 11))
def test_power_rows_match_gap_sum_recursion(K):
    rng = np.random.default_rng(40 + K)
    for _ in range(3):
        law = rand_complex_law(rng, K)
        m = [DualScalar(1.0)] + [law.dual_moment(n) for n in range(1, K + 1)]
        kap = []
        for n in range(1, K + 1):
            acc = m[n]
            for s in range(1, n):
                acc = acc - kap[s - 1] * _gap_sum(m, s, n - s)
            kap.append(acc)
        cum = cumulants_from_moments(law)
        assert np.array_equal(cum.kappa, [k.body for k in kap])
        assert np.array_equal(cum.kappa_prime, [k.eps for k in kap])

        m2 = [DualScalar(1.0)]
        for n in range(1, K + 1):
            acc = DualScalar(0.0)
            for s in range(1, n + 1):
                acc = acc + cum.dual(s) * _gap_sum(m2, s, n - s)
            m2.append(acc)
        back = moments_from_cumulants(cum)
        assert np.array_equal(back.m, [x.body for x in m2[1:]])
        assert np.array_equal(back.m_prime, [x.eps for x in m2[1:]])


def test_cumulant_vector_length_check():
    with pytest.raises(InvalidInputError):
        CumulantVector(3, [1.0, 2.0], [0.0, 0.0, 0.0])


# -- t-coefficients ----------------------------------------------------------------

def test_free_poisson_t_vector():
    tv = t_coeffs_from_moments(InfLaw.from_moments(CATALAN))
    expected = np.zeros(8)
    expected[0] = 1.0
    expected[1] = 1.0
    assert np.allclose(tv.t, expected, atol=1e-10)
    assert np.allclose(tv.t_prime, np.zeros(8), atol=1e-10)


def test_t_moment_roundtrip():
    rng = np.random.default_rng(23)
    for law in [rand_law(rng) for _ in range(10)] + [rand_law(rng, K=1)]:
        back = moments_from_t(t_coeffs_from_moments(law))
        assert max(law.max_abs_diff(back)) < 1e-9


def test_t_scales_linearly_with_the_variable():
    rng = np.random.default_rng(24)
    law = rand_law(rng)
    tv = t_coeffs_from_moments(law)
    tvc = t_coeffs_from_moments(scaled(law, 1.7))
    assert np.max(np.abs(tvc.t - 1.7 * tv.t)) < 1e-10
    assert np.max(np.abs(tvc.t_prime - 1.7 * tv.t_prime)) < 1e-10


def test_t_coeffs_of_a_single_moment():
    law = InfLaw.from_moments([DualScalar(1.5, -0.25)])
    tv = t_coeffs_from_moments(law)
    assert tv.K == 1
    assert tv.t[0] == 1.5
    assert tv.t_prime[0] == -0.25


@pytest.mark.parametrize("K", [1, 4])
def test_t_coeffs_need_invertible_mean(K):
    law = InfLaw.from_moments([DualScalar(0.0, 1.0)] + [DualScalar(1.0)] * (K - 1))
    with pytest.raises(MathDomainError):
        t_coeffs_from_moments(law)


def test_t_coeffs_size_guard():
    with pytest.raises(SizeLimitError):
        t_coeffs_from_moments(InfLaw.point_mass(1.0, K=11))


def test_t_vector_requires_invertible_mean():
    with pytest.raises(MathDomainError):
        TCoeffVector(2, [0.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("route", ["linked", "interval"])
def test_kappa_from_t_routes(route):
    rng = np.random.default_rng(25)
    for law in [rand_law(rng) for _ in range(5)] + [rand_law(rng, K=1)]:
        cum = cumulants_from_moments(law)
        via_t = kappa_from_t(t_coeffs_from_moments(law), route=route)
        assert np.max(np.abs(via_t.kappa - cum.kappa)) < 1e-9
        assert np.max(np.abs(via_t.kappa_prime - cum.kappa_prime)) < 1e-9


def test_kappa_from_t_unknown_route():
    tv = TCoeffVector(2, [1.0, 0.5], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        kappa_from_t(tv, route="sideways")


# -- block-type tables --------------------------------------------------------------

def _t_indices(pi):
    # t_pi's factors in multiplication order: t_{|V|-1} per block, then t_0
    # per non-minimal element
    return tuple(len(b) - 1 for b in pi.blocks) + (0,) * len(non_minimal_elements(pi))


def _ncl_types(n):
    # (sorted block sizes, count) of NCL(n) through the connected-classes
    # bijection that moments_from_t sums along: NCL(n) maps one to one onto
    # the pairs (sigma in NC(n), one linked partition of the full block of
    # each block of sigma), so each NC(n) type, weighted by its Kreweras
    # count, contributes the multiset convolution of _linked_full_types(|V|)
    # over its blocks V
    counts = Counter()
    for sizes, count in _nc_types(n):
        conv = {(): count}
        for s in sizes:
            nxt = Counter()
            for key, c in conv.items():
                for sub, _, m in _linked_full_types(s):
                    nxt[tuple(sorted(key + sub))] += c * m
            conv = nxt
        counts.update(conv)
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("n", range(1, 9))
def test_ncl_type_table_covers_ncl(n):
    table = _ncl_types(n)
    assert sum(count for _, count in table) == len(enumerate_ncl(n))
    assert dict(table) == Counter(_size_key(pi) for pi in enumerate_ncl(n))
    assert len({key for key, _ in table}) == len(table)


@pytest.mark.parametrize("n", range(1, 9))
def test_full_block_type_table_covers_linked_class(n):
    table = _linked_full_types(n)
    full = SetPartition.of(n, [list(range(1, n + 1))])
    assert sum(count for _, _, count in table) == len(linked_class(full))
    first = {}
    for pi in linked_class(full):
        first.setdefault(_size_key(pi), pi)
    assert all(idx == _t_indices(first[key]) for key, idx, _ in table)


@pytest.mark.parametrize("n", range(1, 9))
def test_non_minimal_count_is_n_minus_blocks(n):
    # the single-variable t_pi sums take the t_0 power as n - #blocks
    for pi in enumerate_ncl(n):
        assert len(non_minimal_elements(pi)) == pi.n - len(pi.blocks)


def test_grouped_moments_from_t_matches_ungrouped_sum():
    rng = np.random.default_rng(29)
    for K in (6, 7):
        t = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        t[0] = rng.uniform(0.7, 1.3)
        tvec = TCoeffVector(K, t, rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K))

        def t_fn(word):
            return tvec.dual(len(word) - 1)

        grouped = moments_from_t(tvec)
        for n in range(1, K + 1):
            word = ("a",) * n
            total = DualScalar(0.0)
            for pi in enumerate_ncl(n):
                total = total + t_pi_value(pi, word, t_fn)
            # order-6 and -7 sums reach ~1e3, so compare relative to the term's size
            assert abs(grouped.m[n - 1] - total.body) <= 1e-12 * max(1.0, abs(total.body))
            assert abs(grouped.m_prime[n - 1] - total.eps) <= 1e-12 * max(1.0, abs(total.eps))


@pytest.mark.parametrize("n", range(1, 9))
def test_nc_type_table_covers_nc(n):
    table = _nc_types(n)
    assert sum(count for _, count in table) == [1, 2, 5, 14, 42, 132, 429, 1430][n - 1]
    assert dict(table) == Counter(_size_key(pi) for pi in enumerate_nc(n))
    assert len({key for key, _ in table}) == len(table)


@pytest.mark.parametrize("n", range(1, 9))
def test_full_block_type_table_matches_connected_ncl(n):
    full = SetPartition.of(n, [list(range(1, n + 1))])
    connected = [pi for pi in enumerate_ncl(n) if connected_classes(pi).blocks == full.blocks]
    assert {pi.blocks for pi in linked_class(full)} == {pi.blocks for pi in connected}
    table = _linked_full_types(n)
    assert {key: count for key, _, count in table} == Counter(_size_key(pi) for pi in connected)
    # each row's factors are those of the first partition of its type, as enumerated
    first = {}
    for pi in connected:
        first.setdefault(_size_key(pi), pi)
    assert all(idx == _t_indices(first[key]) for key, idx, _ in table)


@pytest.mark.parametrize("n", [9, 10])
def test_type_table_totals_beyond_enumeration(n):
    catalan, schroder = catalan_schroder(n)
    assert sum(count for _, count in _nc_types(n)) == catalan[n]
    assert sum(count for _, count in _ncl_types(n)) == schroder[n - 1]
    # the linked class of the full block is in bijection with NC(n - 1)
    assert sum(count for _, _, count in _linked_full_types(n)) == catalan[n - 1]


def _rel_close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("K", [9, 10])
def test_t_vector_routes_beyond_enumeration(K):
    # K = 9, 10 are accepted by t_coeffs_from_moments; the oracles there
    # read counted type tables, since enumerating NCL(n) is too slow to test
    rng = np.random.default_rng(60 + K)
    for _ in range(5):
        t = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        t[0] = rng.uniform(0.7, 1.3)
        tvec = TCoeffVector(K, t, rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K))
        law = moments_from_t(tvec)
        back = moments_from_t(t_coeffs_from_moments(law))
        assert _rel_close(back.m, law.m) and _rel_close(back.m_prime, law.m_prime)
        cum = cumulants_from_moments(law)
        for route in ("linked", "interval"):
            via_t = kappa_from_t(tvec, route=route)
            assert _rel_close(via_t.kappa, cum.kappa)
            assert _rel_close(via_t.kappa_prime, cum.kappa_prime)
        assert _rel_close(inf_cumulants_direct(law), cum.kappa_prime)


def _close(grouped, literal, scale):
    return np.max(np.abs(np.asarray(grouped) - np.asarray(literal))) <= 1e-12 * scale


def test_grouped_inf_cumulants_direct_matches_ungrouped_sum():
    rng = np.random.default_rng(30)
    K = 8
    for _ in range(3):
        law = rand_complex_law(rng, K)
        kb = np.zeros(K, dtype=complex)
        kp = np.zeros(K, dtype=complex)
        largest = 1.0
        for n in range(1, K + 1):
            body = eps = 0.0
            for pi in enumerate_nc(n):
                if pi.num_blocks == 1:
                    continue
                sizes = [len(b) for b in pi.blocks]
                body += np.prod([kb[s - 1] for s in sizes])
                for v, sv in enumerate(sizes):
                    term = kp[sv - 1] * np.prod([kb[s - 1] for w, s in enumerate(sizes)
                                                 if w != v])
                    largest = max(largest, abs(term))
                    eps += term
                largest = max(largest, abs(body))
            kb[n - 1] = law.m[n - 1] - body
            kp[n - 1] = law.m_prime[n - 1] - eps
        assert _close(inf_cumulants_direct(law), kp, largest)


def test_grouped_interval_route_matches_ungrouped_sum():
    rng = np.random.default_rng(31)
    K = 9
    for _ in range(3):
        t = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        t[0] = rng.uniform(0.7, 1.3)
        tp = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
        kb = [t[0]]
        kp = [tp[0]]
        largest = 1.0
        for n in range(2, K + 1):
            body = eps = 0.0
            for pi in enumerate_nc(n - 1):
                sizes = [len(b) for b in pi.blocks]
                pw = n - len(sizes)
                prod = np.prod([t[s] for s in sizes])
                terms = [prod * t[0] ** pw]
                for v, sv in enumerate(sizes):
                    terms.append(tp[sv] * t[0] ** pw
                                 * np.prod([t[s] for w, s in enumerate(sizes) if w != v]))
                if pw >= 1:
                    terms.append(prod * pw * tp[0] * t[0] ** (pw - 1))
                largest = max(largest, *(abs(x) for x in terms))
                body += terms[0]
                eps += sum(terms[1:])
            kb.append(body)
            kp.append(eps)
        got = kappa_from_t(TCoeffVector(K, t, tp), route="interval")
        assert _close(got.kappa, kb, largest)
        assert _close(got.kappa_prime, kp, largest)
    # the route reads kappa_1 off NC(0), whose one partition is empty
    assert _nc_types(0) == (((), 1),)


# -- linked-partition summands -----------------------------------------------------

@pytest.mark.parametrize("length", range(9))
def test_product_rule_matches_dual_product(length):
    rng = np.random.default_rng(40 + length)
    for zeros in range(min(length, 2) + 1):
        body = list(rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length))
        eps = list(rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length))
        for i in rng.choice(length, zeros, replace=False):
            body[i] = 0.0
        want = functools.reduce(operator.mul, map(DualScalar, body, eps), DualScalar(1.0))
        got = _product_rule(body, eps)
        assert abs(got[0] - want.body) <= 1e-13
        assert abs(got[1] - want.eps) <= 1e-13
    if length == 0:
        assert _product_rule([], []) == (1.0, 0.0)


def test_t_pi_eps_part_matches_literal_product_rule():
    rng = np.random.default_rng(26)
    vals = {}

    def t_fn(word):
        if word not in vals:
            vals[word] = DualScalar(complex(rng.uniform(0.5, 1.5)),
                                    complex(rng.uniform(-1, 1)))
        return vals[word]

    word = ("x", "y", "x", "y")
    for pi in enumerate_ncl(4):
        full = t_pi_value(pi, word, t_fn)
        lit = d_t_pi_value(pi, word, t_fn)
        assert abs(full.eps - lit) < 1e-12


def test_t_pi_word_length_mismatch():
    pi = enumerate_ncl(3)[0]
    with pytest.raises(InvalidInputError):
        t_pi_value(pi, ("x", "y"), lambda w: DualScalar(1.0))


# -- mixed t-coefficients ------------------------------------------------------------

def test_mixed_t_vanishes_for_free_letters():
    rng = np.random.default_rng(27)
    lawX = rand_law(rng, K=5)
    lawY = rand_law(rng, K=5)
    report = mixed_vanishing_check(free_mixed_moments(lawX, lawY), max_len=4)
    assert report.words_checked == 4 + 8 + 16 - 6
    assert report.max_body < 1e-9
    assert report.max_eps < 1e-9


def test_mixed_t_detects_boolean_pair():
    rng = np.random.default_rng(28)
    lawX = rand_law(rng, K=5)
    lawY = rand_law(rng, K=5)
    report = mixed_vanishing_check(boolean_mixed_moments(lawX, lawY), max_len=4)
    assert report.max_body > 1e-3


def test_scan_words_holds_the_first_nan():
    values = {("x", "y"): DualScalar(2.0, np.nan), ("y", "x"): DualScalar(np.nan, 1.0),
              ("x", "x", "y"): DualScalar(5.0, 3.0), ("y", "y", "x"): DualScalar(np.nan, np.nan)}
    rep = scan_words(values.__getitem__, values)
    assert np.isnan(rep.max_body) and rep.worst_body_word == ("y", "x")
    assert np.isnan(rep.max_eps) and rep.worst_eps_word == ("x", "y")
    assert rep.words_checked == 4
    # finite scans keep the first word reaching each maximum
    finite = {("x", "y"): DualScalar(2.0, -3.0), ("y", "x"): DualScalar(-2.0, 1.0)}
    rep = scan_words(finite.__getitem__, finite)
    assert (rep.max_body, rep.worst_body_word) == (2.0, ("x", "y"))
    assert (rep.max_eps, rep.worst_eps_word) == (3.0, ("x", "y"))


@pytest.mark.parametrize("n", range(1, 7))
def test_mixed_plan_has_one_plan_per_partition_but_the_full_block(n):
    subsets, _, M, _ = _mixed_level(n)
    assert M.shape[1] == len(enumerate_ncl(n)) - 1
    assert len(set(subsets)) == len(subsets)


@pytest.mark.parametrize("n", range(1, 7))
def test_mixed_level_slots_decode_to_subwords(n):
    subsets, G, M, words = _mixed_level(n)
    ids = {sub: k for k, sub in enumerate(subsets)}
    plans = [tuple(ids[pos] for pos in _factor_positions(pi))
             for pi in enumerate_ncl(n) if pi.num_blocks > 1]
    assert words == tuple(itertools.product("xy", repeat=n))

    def decode(slot):
        L = (int(slot) + 2).bit_length() - 1
        return tuple(itertools.product("xy", repeat=L))[slot + 2 - 2 ** L]

    assert G.shape == (len(subsets), 2 ** n)
    for k, sub in enumerate(subsets):
        for w, word in enumerate(words):
            assert decode(G[k, w]) == tuple(word[i] for i in sub)
    # every plan has n factors, so M needs no padding
    assert M.shape == (n, len(plans))
    assert [tuple(col) for col in M.T] == list(plans)


def _literal_mixed_t(phi):
    """t over the literal NCL(n), one t_pi_value per partition, memoized."""
    cache = {}

    def t_literal(word):
        if word not in cache:
            n = len(word)
            if n == 1:
                cache[word] = phi(word)
            else:
                rest = DualScalar(0.0)
                for pi in enumerate_ncl(n):
                    if pi.num_blocks > 1:
                        rest = rest + t_pi_value(pi, word, t_literal)
                lead = DualScalar(1.0)
                for letter in word[1:]:
                    lead = lead * t_literal((letter,))
                cache[word] = (phi(word) - rest) / lead
        return cache[word]

    return t_literal


def test_mixed_plan_matches_literal_linked_sum():
    rng = np.random.default_rng(32)
    phi = boolean_mixed_moments(rand_complex_law(rng, 6), rand_complex_law(rng, 6))
    t_literal = _literal_mixed_t(phi)
    t = make_mixed_t(phi)
    compared = 0
    for n in range(2, 7):
        for word in itertools.product("xy", repeat=n):
            if len(set(word)) < 2:
                continue
            want = t_literal(word)
            scale = max(abs(want.body), abs(want.eps))
            if scale < 1e-9:
                continue
            got = t(word)
            assert abs(got.body - want.body) <= 1e-12 * scale
            assert abs(got.eps - want.eps) <= 1e-12 * scale
            compared += 1
    # the other 62 of the 114 mixed words vanish to rounding (below 1e-13)
    assert compared == 52


@pytest.mark.parametrize("model", [free_mixed_moments, boolean_mixed_moments],
                         ids=["free", "boolean"])
def test_mixed_plan_is_exact_on_real_laws(model):
    # with real factors every complex product has a zero imaginary part, so
    # the array products round as the scalar t_pi_value chain does
    rng = np.random.default_rng(33)
    phi = model(rand_law(rng, K=6), rand_law(rng, K=6))
    t_literal = _literal_mixed_t(phi)
    t = make_mixed_t(phi)
    for n in range(1, 7):
        for word in itertools.product("xy", repeat=n):
            got, want = t(word), t_literal(word)
            assert (got.body, got.eps) == (want.body, want.eps)


def test_make_mixed_t_needs_invertible_means():
    lawX = InfLaw.from_moments([0.0, 1.0, 0.0])
    lawY = InfLaw.from_moments([1.0, 1.0, 1.0])
    t = make_mixed_t(free_mixed_moments(lawX, lawY))
    with pytest.raises(MathDomainError):
        t(("x", "y"))
    # all words of one length are solved together, so yy needs x's mean too
    with pytest.raises(MathDomainError, match="mean of letter 'x'"):
        t(("y", "y"))


def test_make_mixed_t_rejects_other_letters():
    law = InfLaw.point_mass(1.0, K=3)
    t = make_mixed_t(free_mixed_moments(law, law))
    for word in (("x", "z"), ("z",), ()):
        with pytest.raises(InvalidInputError):
            t(word)


def test_mixed_check_size_guard():
    law = InfLaw.point_mass(1.0, K=4)
    with pytest.raises(SizeLimitError):
        mixed_vanishing_check(free_mixed_moments(law, law), max_len=11)


# -- serialization ---------------------------------------------------------------------

@pytest.mark.parametrize("record,body,eps", [
    (InfLaw, "m", "m_prime"),
    (CumulantVector, "kappa", "kappa_prime"),
    (TCoeffVector, "t", "t_prime"),
], ids=["InfLaw", "CumulantVector", "TCoeffVector"])
def test_dual_record_shape_and_json_keys(record, body, eps):
    full, short = [1.0, 2.0, 3.0], [1.0, 2.0]
    with pytest.raises(InvalidInputError):
        record(3, short, full)
    with pytest.raises(InvalidInputError):
        record(3, full, short)
    rec = record(3, full, [0.0, 0.5j, 1.0])
    assert list(rec.to_json_obj()) == ["K", body, eps]
    assert rec.to_json_obj()[eps] == [0.0, [0.0, 0.5], 1.0]
    with pytest.raises(InvalidInputError):
        record(0, [], [])
