"""Free cumulants, infinitesimal cumulants, and t-coefficients.

Moment/cumulant conversion runs on raw (body, eps) pairs, with the eps
part of each product written out by the Leibniz rule in the operation
order of DualScalar's product and sum, so the eps components carry the
infinitesimal (primed) recursion.  It reads the first-block gap sums
[z^r] M(z)^s off power rows of the moment series, built once per call in
O(K^3).  The literal partition sums (NC(n)
cumulant recursion, linked-partition t-sums) are separate code paths and
serve as cross-checks in the test suite.

t-coefficients: phi(a_1..a_n) = sum over non-crossing linked partitions of
t_pi, where t_pi multiplies t_{|V|-1}(subword of V) over blocks V and one
t_0(a_k) for every element k that is minimal in no block; _factor_positions
lists those factors.  For a single variable the data is the vector
t_0..t_{K-1}; its generating function is the T-transform:
T(z) = sum t_n z^n.

Infinitesimal parts of partition sums: every oracle writes a summand as a
product of dual factors, and _product_rule returns its body and its eps
part (one factor primed at a time, from prefix and suffix products), on
plain complex numbers.  _type_sum, the one place a grouped oracle is
evaluated, sums those products over rows of (factor indices, type count).

Routes for a single variable: t_coeffs_from_moments reads the coefficients
off the T-series (production).  moments_from_t, kappa_from_t and
inf_cumulants_direct are the oracles: partition sums grouped by block type
because a single-variable summand depends only on the multiset of block
sizes.  The two type tables are counted, not enumerated: NC(n) types by
Kreweras' formula, and the linked class of the full block by a scan that
generates only connected linked partitions.  moments_from_t sums over
NCL(n) through the connected-classes bijection between the two: the NC(n)
types, each block weighted by the linked route's kappa~.  No table reads
the T-series or the moment power rows, and the full-block table is never
derived from the NC(n - 1) types that the interval route sums.  Words in
several letters (make_mixed_t, t_pi_value) cannot be grouped; make_mixed_t
sums the literal NCL(n) for all 2^n words in x, y of one length at once,
along factor plans laid out as index arrays and cached per length
(_mixed_level), multiplied as complex arrays.

Both freeness word checks take a mixed-moment model (MomentFn) and return a
WordCheckReport from one scan, scan_words: mixed_vanishing_check here, over
the mixed t-coefficients, and triangular.centered_alternating_check, over
centered alternating words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, isnan
from typing import Callable, Iterable, Sequence

import numpy as np

from .dual import DualRecord, DualScalar
from .errors import InvalidInputError, MathDomainError, SizeLimitError
from .laws import InfLaw, t_transform
from .partitions import (
    MAX_NC_N,
    MAX_NCL_N,
    LinkedPartition,
    SetPartition,
    enumerate_nc,
    enumerate_ncl,
    linked_class,
    non_minimal_elements,
)

Word = tuple
MomentFn = Callable[[Word], DualScalar]
TFn = Callable[[Word], DualScalar]
# (sorted block sizes, number of partitions)
TypeCounts = tuple[tuple[tuple[int, ...], int], ...]
# (sorted block sizes, t-indices of one partition's factors, number of partitions)
TypeTable = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


# Literal NC(n) and NCL(n) lists.  Only _mixed_level reads _ncl (mixed words
# have no block types); no table reads either.  perfbench/tracing.py counts
# _ncl lookups and reads both caches' statistics.
@lru_cache(maxsize=32)
def _nc(n: int) -> tuple[SetPartition, ...]:
    return tuple(enumerate_nc(n))


@lru_cache(maxsize=16)
def _ncl(n: int) -> tuple[LinkedPartition, ...]:
    return tuple(enumerate_ncl(n))


@dataclass(frozen=True)
class CumulantVector(DualRecord):
    """Dual free cumulants kappa~_1..kappa~_K."""

    ARRAYS = ("kappa", "kappa_prime")
    kappa: np.ndarray
    kappa_prime: np.ndarray

    def dual(self, n: int) -> DualScalar:
        return DualScalar(self.kappa[n - 1], self.kappa_prime[n - 1])


@dataclass(frozen=True)
class TCoeffVector(DualRecord):
    """Dual t-coefficients t~_0..t~_{K-1} of a single variable."""

    ARRAYS = ("t", "t_prime")
    t: np.ndarray
    t_prime: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.t[0] == 0:
            raise MathDomainError("t_0 (the mean) must have invertible body")

    def dual(self, n: int) -> DualScalar:
        """t~_n for n = 0..K-1."""
        return DualScalar(self.t[n], self.t_prime[n])


# -- moments <-> free cumulants ---------------------------------------------


def cumulants_from_moments(law: InfLaw) -> CumulantVector:
    """Dual free cumulants via the first-block interval recursion.

    m_n = sum_s kappa_s [z^(n-s)] M(z)^s with M(z) = 1 + sum m_g z^g: the
    first block has s elements and the n - s others fill its s gaps.
    """
    K = law.K
    m = [(1.0, 0.0)] + law.pairs()
    P = _power_rows(K)
    kap: list[tuple] = []
    for n in range(1, K + 1):
        _extend_power_rows(P, m, n)
        ab, ae = m[n]
        for s in range(1, n):
            kb, ke = kap[s - 1]
            pb, pe = P[s][n - s]
            ab, ae = ab - kb * pb, ae - (kb * pe + ke * pb)
        kap.append((ab, ae))
    return CumulantVector(K, *zip(*kap))


def _power_rows(K: int) -> list[list[tuple]]:
    """Rows P[s] = [z^r] M(z)^s for s = 0..K, filled by _extend_power_rows."""
    return [[(1.0, 0.0)] + [(0.0, 0.0)] * (K - 1)] + [[] for _ in range(K)]


def _extend_power_rows(P: list[list[tuple]], m: Sequence[tuple], n: int) -> None:
    """Append the antidiagonal s + r = n: P[s][n - s] for s = 1..n.

    Needs m_0..m_(n-1) and the antidiagonals below n, so each direction of
    the recursion extends the rows as its moments become known; all K
    antidiagonals cost O(K^3) dual products.
    """
    for s in range(1, n + 1):
        r = n - s
        prev = P[s - 1]
        ab = ae = 0.0
        for g in range(r + 1):
            mb, me = m[g]
            pb, pe = prev[r - g]
            ab, ae = ab + mb * pb, ae + (mb * pe + me * pb)
        P[s].append((ab, ae))


def moments_from_cumulants(cum: CumulantVector) -> InfLaw:
    """Invert the interval recursion; exact inverse of cumulants_from_moments."""
    K = cum.K
    kap = cum.pairs()
    m: list[tuple] = [(1.0, 0.0)]
    P = _power_rows(K)
    for n in range(1, K + 1):
        _extend_power_rows(P, m, n)
        ab = ae = 0.0
        for s in range(1, n + 1):
            kb, ke = kap[s - 1]
            pb, pe = P[s][n - s]
            ab, ae = ab + kb * pb, ae + (kb * pe + ke * pb)
        m.append((ab, ae))
    return InfLaw(K, *zip(*m[1:]))


def constant_cumulant_law(c, c_prime=0.0, K: int = 8) -> InfLaw:
    """Law with kappa~_n = c + eps c' for every n (free-Poisson type)."""
    cv = DualScalar.of(c) + DualScalar(0.0, 1.0) * DualScalar.of(c_prime)
    cum = CumulantVector(K, [cv.body] * K, [cv.eps] * K)
    return moments_from_cumulants(cum)


def inf_cumulants_direct(law: InfLaw) -> np.ndarray:
    """Literal NC(n) recursion for the infinitesimal cumulants.

    Solves m_n = sum over pi in NC(n) of prod_V kappa_{|V|} for the body
    cumulants and, with one primed block, m'_n = sum over pi of sum over
    blocks V of kappa'_{|V|} prod_{W != V} kappa_{|W|}.  Both summands
    depend only on the block sizes of pi, so each block type of NC(n) is
    evaluated once and weighted by its count.  Uses neither the power rows
    of cumulants_from_moments nor the eps bookkeeping; must agree with
    cumulants_from_moments(law).kappa_prime.
    """
    K = law.K
    if K > MAX_NC_N:
        raise SizeLimitError(f"direct route sums NC(n) block types up to K = {MAX_NC_N}")
    m, mp = law.m.tolist(), law.m_prime.tolist()
    kb, kp = [], []
    for n in range(1, K + 1):
        # every type but the single block, whose kappa_n is being solved for
        rows = (([s - 1 for s in sizes], count) for sizes, count in _nc_types(n) if len(sizes) > 1)
        b, e = _type_sum(kb, kp, rows)
        kb.append(m[n - 1] - b)
        kp.append(mp[n - 1] - e)
    return np.array(kp)


def _product_rule(body: Sequence[complex], eps: Sequence[complex]) -> tuple[complex, complex]:
    """Body and eps part of the dual product of the factors body_i + eps eps_i.

    Returns (prod_i body_i, sum_i eps_i prod_{j != i} body_j): the product
    rule with one factor primed at a time.  Prefix and suffix products give
    every leave-one-out product without dividing, so zero bodies are safe.
    """
    nb = len(body)
    pre = [1.0 + 0.0j] * (nb + 1)
    suf = [1.0 + 0.0j] * (nb + 1)
    for i in range(nb):
        pre[i + 1] = pre[i] * body[i]
        suf[nb - 1 - i] = suf[nb - i] * body[nb - 1 - i]
    d = 0.0 + 0.0j
    for i in range(nb):
        d += eps[i] * pre[i] * suf[i + 1]
    return pre[nb], d


def _type_sum(body: Sequence[complex], eps: Sequence[complex], rows) -> tuple[complex, complex]:
    """Body and eps part of sum count * prod_{i in idx} (body_i + eps eps_i).

    rows yields (idx, count): one block type's factor indices and the number
    of partitions of that type.  Each product's eps part is _product_rule's.
    """
    sb = se = 0j
    for idx, count in rows:
        b, e = _product_rule([body[i] for i in idx], [eps[i] for i in idx])
        sb += count * b
        se += count * e
    return sb, se


# -- t-coefficients ----------------------------------------------------------


def _size_key(pi: LinkedPartition) -> tuple[int, ...]:
    return tuple(sorted(len(b) for b in pi.blocks))


@lru_cache(maxsize=32)
def _nc_types(n: int) -> TypeCounts:
    """(sorted block sizes, count) for each block type of NC(n), by Kreweras.

    A type with b blocks, m_i of them of size i, is the block type of
    n! / ((n - b + 1)! prod_i m_i!) partitions of NC(n) (Kreweras 1972).
    """
    out = []
    for sizes in _integer_partitions(n):
        count = factorial(n) // factorial(n - len(sizes) + 1)
        for m in Counter(sizes).values():
            count //= factorial(m)
        out.append((sizes, count))
    return tuple(sorted(out))


def _integer_partitions(n: int, smallest: int = 1):
    """Partitions of n into parts >= smallest, as ascending tuples."""
    if n == 0:
        yield ()
    for first in range(smallest, n + 1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=16)
def _linked_full_types(n: int) -> TypeTable:
    """(sorted block sizes, factor t-indices, count) over the linked class of {1..n}.

    Generated as linked partitions (linked_class of the full block, which
    scans only the connected ones), never derived from the NC(n - 1) types
    by shifting sizes: the counts agree, but that would make the linked
    route of kappa_from_t the interval route under another name.  The
    factor t-indices are read once off a real partition, the first of its
    type in lexicographic order (_factor_positions), in the order the
    linked route multiplies them.
    """
    factors: dict[tuple[int, ...], tuple[int, ...]] = {}
    counts: Counter = Counter()
    for pi in linked_class(SetPartition.of(n, [range(1, n + 1)])):
        key = _size_key(pi)
        if key not in factors:
            factors[key] = tuple(len(pos) - 1 for pos in _factor_positions(pi))
        counts[key] += 1
    return tuple((key, factors[key], counts[key]) for key in sorted(factors))


def t_coeffs_from_moments(law: InfLaw) -> TCoeffVector:
    """t~_0..t~_{K-1} read off the T-transform, their generating function.

    This is the production route; moments_from_t sums the linked partitions
    literally and serves as its oracle.
    """
    K = law.K
    if K > MAX_NCL_N:
        raise SizeLimitError(f"the linked-partition oracle confirms t-vectors up to K = {MAX_NCL_N}")
    if law.m[0] == 0:
        raise MathDomainError("t-coefficients need an invertible first moment")
    T = t_transform(law)
    return TCoeffVector(K, T.body[:K], T.eps[:K])


def moments_from_t(tvec: TCoeffVector) -> InfLaw:
    """Forward linked-partition sum; oracle for t_coeffs_from_moments.

    Sums t_pi over NCL(n) through the connected-classes bijection: NCL(n)
    maps one to one onto the pairs (sigma in NC(n), one linked partition of
    each block of sigma), and t_pi factors over those blocks.  So m~_n is
    the NC(n) moment-cumulant sum, count * prod_V kappa~_{|V|} over the
    block types, of the linked route's kappa~ (kappa_from_t).  Reads neither
    the T-series nor the moment power rows.
    """
    K = tvec.K
    if K > MAX_NCL_N:
        raise SizeLimitError(f"linked-partition sums cover n <= {MAX_NCL_N}")
    cum = kappa_from_t(tvec, route="linked")
    kb, kp = cum.kappa.tolist(), cum.kappa_prime.tolist()
    sums = []
    for n in range(1, K + 1):
        rows = (([s - 1 for s in sizes], count) for sizes, count in _nc_types(n))
        sums.append(_type_sum(kb, kp, rows))
    return InfLaw(K, *zip(*sums))


def t_pi_value(pi: LinkedPartition, word: Word, t_fn: TFn) -> DualScalar:
    """Evaluate one linked-partition summand for a word of letters.

    t_fn maps a subword tuple to the dual coefficient t_{len-1}(subword);
    single letters give t_0.
    """
    if len(word) != pi.n:
        raise InvalidInputError("word length must match the partition size")
    acc = DualScalar(1.0)
    for pos in _factor_positions(pi):
        acc = acc * t_fn(tuple(word[i] for i in pos))
    return acc


def d_t_pi_value(pi: LinkedPartition, word: Word, t_fn: TFn) -> complex:
    """Literal product-rule value for the infinitesimal t_pi.

    Sums over which factor of t_pi is primed: one block coefficient, or one
    of the t_0 factors attached to non-minimal elements.  Must equal the
    eps part of t_pi_value.
    """
    if len(word) != pi.n:
        raise InvalidInputError("word length must match the partition size")
    vals = [t_fn(tuple(word[i] for i in pos)) for pos in _factor_positions(pi)]
    return _product_rule([v.body for v in vals], [v.eps for v in vals])[1]


def _factor_positions(pi: LinkedPartition) -> list[tuple[int, ...]]:
    """0-based word positions of t_pi's factors: each block, then s(pi)."""
    return ([tuple(i - 1 for i in block) for block in pi.blocks]
            + [(k - 1,) for k in non_minimal_elements(pi)])


# The bit code of a word (x = 0, y = 1, first letter most significant) is
# its index in product(LETTERS, repeat=n).  A level solve runs its words in
# chunks of at most _LEVEL_CHUNK (plans x words) entries.
LETTERS = ("x", "y")
_LEVEL_CHUNK = 1 << 14


@lru_cache(maxsize=16)
def _mixed_level(n: int) -> tuple:
    """(subsets, G, M, words): the factor plans of the t_pi summands, laid
    out for all 2^n words in LETTERS at once.

    Each partition of NCL(n) but the single block has a plan, in _ncl order:
    the ids of its factors as t_pi_value multiplies them, one subset per
    block, then one singleton per non-minimal element.  Ids index `subsets`,
    the distinct factor subsets, so a word evaluates t once per subset.

    G[k, w] is the flat slot of the subword of words[w] on subsets[k]: a
    length-L subword with bit code c sits at slot 2^L - 2 + c, so slots
    0..2^n - 3 hold every word shorter than n.  M[j, p] is the id of plan
    p's factor j.  Every plan has n factors (each element is the minimum of
    one block or a t_0 factor), so M is a full (n, plans) matrix.
    """
    ids: dict[tuple[int, ...], int] = {}
    plans = [[ids.setdefault(pos, len(ids)) for pos in _factor_positions(pi)]
             for pi in _ncl(n) if pi.num_blocks > 1]
    subsets = tuple(ids)
    words = tuple(product(LETTERS, repeat=n))
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    G = np.empty((len(subsets), 2 ** n), dtype=np.intp)
    for k, sub in enumerate(subsets):
        L = len(sub)
        G[k] = 2 ** L - 2 + bits[:, list(sub)] @ (1 << np.arange(L - 1, -1, -1))
    M = np.array(plans, dtype=np.intp).reshape(-1, n).T
    return subsets, G, M, words


def make_mixed_t(moment_fn: MomentFn) -> TFn:
    """Memoized t solver on top of a mixed moment model in the letters x, y.

    The first word of length n asked for solves all 2^n words of that length
    at once (and every shorter length first): each subtracts the t_pi of
    every other partition of NCL(n) from its moment, along the factor plans
    of _mixed_level(n).  Mixed words have no block-type grouping, so the
    plans run over the literal NCL(n), column by column for all words, as
    dual products of complex arrays in t_pi_value's factor order.  Both
    single-letter means must have invertible body.
    """
    cache: dict[Word, DualScalar] = {}

    def solve(n: int) -> dict[Word, DualScalar]:
        """Every word of length n, from the cached words shorter than n."""
        if n == 1:
            vals = {(letter,): moment_fn((letter,)) for letter in LETTERS}
            for (letter,), v in vals.items():
                if v.body == 0:
                    raise MathDomainError(f"mean of letter {letter!r} must be invertible")
            return vals
        _, G, M, words = _mixed_level(n)
        known = [cache[w] for L in range(1, n) for w in product(LETTERS, repeat=L)]
        body = np.array([v.body for v in known], dtype=complex)
        eps = np.array([v.eps for v in known], dtype=complex)
        rest = np.empty((2, len(words)), dtype=complex)
        step = max(2, _LEVEL_CHUNK // M.shape[1])
        for lo in range(0, len(words), step):
            Gc = G[:, lo: lo + step]
            b = np.ones((M.shape[1], Gc.shape[1]), dtype=complex)
            e = np.zeros_like(b)
            for row in M:
                fb, fe = body[Gc[row]], eps[Gc[row]]
                b, e = b * fb, b * fe + e * fb
            rest[0, lo: lo + step] = np.add.reduce(b, axis=0, initial=0)
            rest[1, lo: lo + step] = np.add.reduce(e, axis=0, initial=0)
        vals = {}
        for word, rest_b, rest_e in zip(words, *rest):
            lead = DualScalar(1.0)
            for letter in word[1:]:
                lead = lead * cache[(letter,)]
            vals[word] = (moment_fn(word) - DualScalar(rest_b, rest_e)) / lead
        return vals

    def t(word: Word) -> DualScalar:
        word = tuple(word)
        if word not in cache:
            if not word or not set(word) <= set(LETTERS):
                raise InvalidInputError(f"mixed words are non-empty words in {LETTERS}: {word!r}")
            for n in range(1, len(word) + 1):
                if LETTERS[-1:] * n not in cache:
                    cache.update(solve(n))
        return cache[word]

    return t


@dataclass(frozen=True)
class WordCheckReport:
    """Largest |body| and |eps| of a per-word dual value (NaN if a word's is
    NaN), the first word to reach each, and the number of words checked."""

    max_body: float
    max_eps: float
    worst_body_word: Word
    worst_eps_word: Word
    words_checked: int


def scan_words(value: Callable[[Word], DualScalar], words: Iterable[Word]) -> WordCheckReport:
    """Evaluate value on each word; keep the first word reaching each maximum,
    where a NaN part exceeds every number (the first NaN word holds it)."""
    max_body = max_eps = 0.0
    wb: Word = ()
    we: Word = ()
    count = 0
    for word in words:
        val = value(word)
        count += 1
        if not (isnan(max_body) or abs(val.body) <= max_body):
            max_body, wb = abs(val.body), word
        if not (isnan(max_eps) or abs(val.eps) <= max_eps):
            max_eps, we = abs(val.eps), word
    return WordCheckReport(max_body, max_eps, wb, we, count)


def mixed_vanishing_check(moment_fn: MomentFn, max_len: int) -> WordCheckReport:
    """Largest |t| and |t'| over genuinely mixed words in x, y up to max_len.

    For infinitesimally free letters both maxima vanish; a Boolean pair is
    the standard negative control.
    """
    if max_len > MAX_NCL_N:
        raise SizeLimitError(f"mixed words enumerate NCL(n); max_len <= {MAX_NCL_N}")
    words = (word for n in range(2, max_len + 1)
             for word in product(LETTERS, repeat=n) if len(set(word)) > 1)
    return scan_words(make_mixed_t(moment_fn), words)


# -- cumulants from t-data ---------------------------------------------------


def kappa_from_t(tvec: TCoeffVector, route: str = "linked") -> CumulantVector:
    """Cumulants from single-variable t-data.

    route="linked": sum t_pi over the linked class of the full block, with
    the literal product rule supplying the infinitesimal part; partitions
    of one block type share a single evaluation, weighted by their count.
    route="interval": the closed forms summing over NC(n-1), where each
    block V contributes t_{|V|} and the minimum carries a power of t_0;
    the summand depends only on the block sizes, so each block type of
    NC(n-1) is evaluated once and weighted by its count.  kappa_1 comes
    from NC(0): its one, empty, partition leaves the single factor t_0.
    Neither route uses the T-series or the moment power rows.
    """
    K = tvec.K
    if route == "linked":
        if K > MAX_NCL_N:
            raise SizeLimitError(f"linked route sums linked-partition types up to K = {MAX_NCL_N}")

        def rows(n):
            return ((idx, count) for _, idx, count in _linked_full_types(n))
    elif route == "interval":
        if K - 1 > MAX_NC_N:
            raise SizeLimitError(f"interval route sums NC(n-1) block types up to K = {MAX_NC_N + 1}")

        def rows(n):
            # one t_{|V|} per block of NC(n-1), and n - #blocks factors t_0
            return ((list(sizes) + [0] * (n - len(sizes)), count)
                    for sizes, count in _nc_types(n - 1))
    else:
        raise InvalidInputError(f"unknown route: {route!r}")
    t, tp = tvec.t.tolist(), tvec.t_prime.tolist()
    sums = [_type_sum(t, tp, rows(n)) for n in range(1, K + 1)]
    return CumulantVector(K, *zip(*sums))
