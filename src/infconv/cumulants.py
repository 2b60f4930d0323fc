"""Free cumulants, infinitesimal cumulants, and t-coefficients.

Moment/cumulant conversion runs over dual scalars, so the eps component
implements the infinitesimal (primed) recursion automatically.  It reads
the first-block gap sums [z^r] M(z)^s off power rows of the moment series,
built once per call in O(K^3).  The literal partition sums (NC(n)
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
plain complex numbers.

Routes for a single variable: t_coeffs_from_moments reads the coefficients
off the T-series (production).  moments_from_t, kappa_from_t and
inf_cumulants_direct are the oracles: partition sums over NC(n) or NCL(n),
grouped by block type because a single-variable summand depends only on
the multiset of block sizes.  The type tables are counted, not enumerated:
NC(n) types by Kreweras' formula, the linked class of the full block by a
scan that generates only connected linked partitions, and NCL(n) types by
the connected-classes bijection between the two.  No table reads the
T-series or the moment power rows, and the full-block table is never
derived from the NC(n - 1) types that the interval route sums.  Words in
several letters (make_mixed_t, t_pi_value) cannot be grouped; make_mixed_t
sums them partition by partition over the literal NCL(n), along cached
factor plans (_mixed_plan).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .dual import DualRecord, DualScalar
from .errors import InvalidInputError, MathDomainError, SizeLimitError
from .laws import InfLaw, t_transform
from .partitions import (
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
# (sorted block sizes, representative partition, number of partitions)
TypeTable = tuple[tuple[tuple[int, ...], LinkedPartition, int], ...]


# Literal NC(n) and NCL(n) lists.  Only _mixed_plan reads _ncl (mixed words
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
    m = [DualScalar(1.0)] + [law.dual_moment(n) for n in range(1, K + 1)]
    P = _power_rows(K)
    kap: list[DualScalar] = []
    for n in range(1, K + 1):
        _extend_power_rows(P, m, n)
        acc = m[n]
        for s in range(1, n):
            acc = acc - kap[s - 1] * P[s][n - s]
        kap.append(acc)
    return CumulantVector(K, [k.body for k in kap], [k.eps for k in kap])


def _power_rows(K: int) -> list[list[DualScalar]]:
    """Rows P[s] = [z^r] M(z)^s for s = 0..K, filled by _extend_power_rows."""
    return [[DualScalar(1.0 if r == 0 else 0.0) for r in range(K)]] + [[] for _ in range(K)]


def _extend_power_rows(P: list[list[DualScalar]], m: Sequence[DualScalar], n: int) -> None:
    """Append the antidiagonal s + r = n: P[s][n - s] for s = 1..n.

    Needs m_0..m_(n-1) and the antidiagonals below n, so each direction of
    the recursion extends the rows as its moments become known; all K
    antidiagonals cost O(K^3) dual products.
    """
    for s in range(1, n + 1):
        r = n - s
        prev = P[s - 1]
        acc = DualScalar(0.0)
        for g in range(r + 1):
            acc = acc + m[g] * prev[r - g]
        P[s].append(acc)


def moments_from_cumulants(cum: CumulantVector) -> InfLaw:
    """Invert the interval recursion; exact inverse of cumulants_from_moments."""
    K = cum.K
    m: list[DualScalar] = [DualScalar(1.0)]
    P = _power_rows(K)
    for n in range(1, K + 1):
        _extend_power_rows(P, m, n)
        acc = DualScalar(0.0)
        for s in range(1, n + 1):
            acc = acc + cum.dual(s) * P[s][n - s]
        m.append(acc)
    return InfLaw.from_moments(m[1:])


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
    if K > 12:
        raise SizeLimitError("direct route sums NC(n) block types up to K = 12")
    kb = np.zeros(K, dtype=complex)
    kp = np.zeros(K, dtype=complex)
    for n in range(1, K + 1):
        body = 0.0 + 0.0j
        eps = 0.0 + 0.0j
        for sizes, count in _nc_types(n):
            if len(sizes) == 1:
                continue
            b, e = _product_rule([kb[s - 1] for s in sizes], [kp[s - 1] for s in sizes])
            body += count * b
            eps += count * e
        kb[n - 1] = law.m[n - 1] - body
        kp[n - 1] = law.m_prime[n - 1] - eps
    return kp


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


# -- t-coefficients ----------------------------------------------------------


def _size_key(pi: LinkedPartition) -> tuple[int, ...]:
    return tuple(sorted(len(b) for b in pi.blocks))


def _group_by_type(parts) -> TypeTable:
    reps: dict[tuple[int, ...], LinkedPartition] = {}
    counts: dict[tuple[int, ...], int] = {}
    for pi in parts:
        key = _size_key(pi)
        reps.setdefault(key, pi)
        counts[key] = counts.get(key, 0) + 1
    return tuple((key, reps[key], counts[key]) for key in sorted(reps))


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
    """(sorted block sizes, representative, count) over the linked class of {1..n}.

    Generated as linked partitions (linked_class of the full block, which
    scans only the connected ones), never derived from the NC(n - 1) types
    by shifting sizes: the counts agree, but that would make the linked
    route of kappa_from_t the interval route under another name.  The
    representative is the first partition of its type in lexicographic
    order, a real partition whose factors (_factor_positions) the linked
    route multiplies.
    """
    return _group_by_type(linked_class(SetPartition.of(n, [range(1, n + 1)])))


@lru_cache(maxsize=16)
def _ncl_types(n: int) -> TypeCounts:
    """(sorted block sizes, count) for each block type of NCL(n).

    connected_classes maps NCL(n) one to one onto the pairs (sigma in NC(n),
    one linked partition of the full block of each V in sigma).  So each NC
    type, weighted by its Kreweras count, contributes the multiset
    convolution of _linked_full_types(|V|) over its blocks.  For a single
    variable t_pi depends only on the block sizes: one factor t_{|V|-1} per
    block and n - #blocks factors of t_0.  Reads neither the T-series nor
    the moment power rows.
    """
    counts: Counter = Counter()
    for sizes, count in _nc_types(n):
        conv = {(): count}
        for s in sizes:
            nxt: Counter = Counter()
            for key, c in conv.items():
                for sub, _, m in _linked_full_types(s):
                    nxt[tuple(sorted(key + sub))] += c * m
            conv = nxt
        counts.update(conv)
    return tuple(sorted(counts.items()))


def t_coeffs_from_moments(law: InfLaw) -> TCoeffVector:
    """t~_0..t~_{K-1} read off the T-transform, their generating function.

    This is the production route; moments_from_t sums the linked partitions
    literally and serves as its oracle.
    """
    K = law.K
    if K > 10:
        raise SizeLimitError("the linked-partition oracle confirms t-vectors up to K = 10")
    if law.m[0] == 0:
        raise MathDomainError("t-coefficients need an invertible first moment")
    if K == 1:
        return TCoeffVector(1, [law.m[0]], [law.m_prime[0]])
    T = t_transform(law)
    return TCoeffVector(K, T.body[:K], T.eps[:K])


def moments_from_t(tvec: TCoeffVector) -> InfLaw:
    """Forward linked-partition sum; oracle for t_coeffs_from_moments.

    Sums count * t_pi over the block types of NCL(n); t_pi depends only on
    the block sizes.
    """
    K = tvec.K
    if K > 10:
        raise SizeLimitError("linked-partition sums cover n <= 10")
    t, tp = tvec.t.tolist(), tvec.t_prime.tolist()
    mb = np.zeros(K, dtype=complex)
    me = np.zeros(K, dtype=complex)
    for n in range(1, K + 1):
        for sizes, count in _ncl_types(n):
            # one t_{|V|-1} per block, one t_0 per non-minimal element
            idx = [s - 1 for s in sizes] + [0] * (n - len(sizes))
            b, e = _product_rule([t[i] for i in idx], [tp[i] for i in idx])
            mb[n - 1] += count * b
            me[n - 1] += count * e
    return InfLaw(K, mb, me)


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


# (distinct factor subsets as 0-based index tuples, factor ids per partition)
MixedPlan = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=16)
def _mixed_plan(n: int) -> MixedPlan:
    """Factor plans of the t_pi summands of a length-n word.

    For every partition of NCL(n) except the single block, in _ncl order,
    the ids of its factors as t_pi_value multiplies them: one subset per
    block, then one singleton per non-minimal element.  Ids index the
    distinct subsets, so a word evaluates t once per subset.
    """
    ids: dict[tuple[int, ...], int] = {}
    plans = []
    for pi in _ncl(n):
        if pi.num_blocks == 1:
            continue
        plans.append(tuple(ids.setdefault(pos, len(ids)) for pos in _factor_positions(pi)))
    return tuple(ids), tuple(plans)


def make_mixed_t(moment_fn: MomentFn) -> TFn:
    """Memoized multi-letter t solver on top of a mixed moment model.

    Subtracts the t_pi of every other partition of NCL(n) from the moment,
    partition by partition along the cached factor plans of _mixed_plan:
    mixed words have no block-type grouping.  Needs every single-letter
    mean to have invertible body.
    """
    cache: dict[Word, DualScalar] = {}

    def t(word: Word) -> DualScalar:
        word = tuple(word)
        if word in cache:
            return cache[word]
        n = len(word)
        if n == 0:
            raise InvalidInputError("empty word")
        if n == 1:
            val = moment_fn(word)
            if val.body == 0:
                raise MathDomainError(f"mean of letter {word[0]!r} must be invertible")
            cache[word] = val
            return val
        subsets, plans = _mixed_plan(n)
        factors = [t(tuple(word[i] for i in sub)) for sub in subsets]
        fb = [f.body for f in factors]
        fe = [f.eps for f in factors]
        # dual products on raw (body, eps) pairs, in t_pi_value's order
        rest_b = rest_e = 0.0
        for plan in plans:
            b, e = 1.0, 0.0
            for i in plan:
                b, e = b * fb[i], b * fe[i] + e * fb[i]
            rest_b += b
            rest_e += e
        lead = DualScalar(1.0)
        for letter in word[1:]:
            lead = lead * t((letter,))
        val = (moment_fn(word) - DualScalar(rest_b, rest_e)) / lead
        cache[word] = val
        return val

    return t


@dataclass(frozen=True)
class MixedVanishingReport:
    max_body: float
    max_eps: float
    worst_body_word: Word
    worst_eps_word: Word
    words_checked: int


def mixed_vanishing_check(moment_fn: MomentFn, max_len: int) -> MixedVanishingReport:
    """Largest |t| and |t'| over genuinely mixed words in x, y up to max_len.

    For infinitesimally free letters both maxima vanish; a Boolean pair is
    the standard negative control.
    """
    if max_len > 10:
        raise SizeLimitError("mixed words enumerate NCL(n); max_len <= 10")
    t = make_mixed_t(moment_fn)
    max_body = 0.0
    max_eps = 0.0
    wb: Word = ()
    we: Word = ()
    count = 0
    for n in range(2, max_len + 1):
        for word in product(("x", "y"), repeat=n):
            if len(set(word)) < 2:
                continue
            val = t(word)
            count += 1
            if abs(val.body) > max_body:
                max_body, wb = abs(val.body), word
            if abs(val.eps) > max_eps:
                max_eps, we = abs(val.eps), word
    return MixedVanishingReport(max_body, max_eps, wb, we, count)


# -- cumulants from t-data ---------------------------------------------------


def kappa_from_t(tvec: TCoeffVector, route: str = "linked") -> CumulantVector:
    """Cumulants from single-variable t-data.

    route="linked": sum t_pi over the linked class of the full block, with
    the literal product rule supplying the infinitesimal part; partitions
    of one block type share a single evaluation, weighted by their count.
    route="interval": the closed forms summing over NC(n-1), where each
    block V contributes t_{|V|} and the minimum carries a power of t_0;
    the summand depends only on the block sizes, so each block type of
    NC(n-1) is evaluated once and weighted by its count.
    Neither route uses the T-series or the moment power rows.
    """
    if route == "linked":
        return _kappa_from_t_linked(tvec)
    if route == "interval":
        return _kappa_from_t_interval(tvec)
    raise InvalidInputError(f"unknown route: {route!r}")


def _kappa_from_t_linked(tvec: TCoeffVector) -> CumulantVector:
    K = tvec.K
    if K > 10:
        raise SizeLimitError("linked route sums linked-partition types up to K = 10")
    t, tp = tvec.t.tolist(), tvec.t_prime.tolist()
    kb = np.zeros(K, dtype=complex)
    kp = np.zeros(K, dtype=complex)
    for n in range(1, K + 1):
        for _, rep, count in _linked_full_types(n):
            idx = [len(pos) - 1 for pos in _factor_positions(rep)]
            b, e = _product_rule([t[i] for i in idx], [tp[i] for i in idx])
            kb[n - 1] += count * b
            kp[n - 1] += count * e
    return CumulantVector(K, kb, kp)


def _kappa_from_t_interval(tvec: TCoeffVector) -> CumulantVector:
    K = tvec.K
    if K - 1 > 12:
        raise SizeLimitError("interval route sums NC(n-1) block types up to K = 13")
    t, tp = tvec.t.tolist(), tvec.t_prime.tolist()
    kb = np.zeros(K, dtype=complex)
    kp = np.zeros(K, dtype=complex)
    kb[0], kp[0] = t[0], tp[0]
    for n in range(2, K + 1):
        for sizes, count in _nc_types(n - 1):
            # one t_{|V|} per block of NC(n-1), and n - #blocks factors t_0
            idx = list(sizes) + [0] * (n - len(sizes))
            b, e = _product_rule([t[i] for i in idx], [tp[i] for i in idx])
            kb[n - 1] += count * b
            kp[n - 1] += count * e
    return CumulantVector(K, kb, kp)
