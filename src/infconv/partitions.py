"""Non-crossing set partitions and non-crossing linked partitions.

Blocks are kept as sorted 1-based tuples and a partition is canonical when
its blocks are sorted by minimum (minima are pairwise distinct for both
structures, so this is well defined).  The text form matches the canonical
order, e.g. ``{{1,2},{2,3}}``.

A linked partition may share single elements between pairs of blocks.  The
convention used throughout: a shared element must be the minimum of exactly
one of the two blocks, and that block must have at least two elements.  In
particular ``{{1,2},{2}}`` is not admitted, and element multiplicity never
exceeds two.

Enumeration is one recursive stack scan (_scan).  Each branch carries its
own tuples of open and closed blocks, so nothing is undone on return, and
the leaves emit canonical blocks, so every enumerated partition is
canonicalised exactly once.  The same scan restricted to a single fresh
block yields the connected linked partitions of {1..n}; linked_class(sigma)
is built from those, block by block, without enumerating NCL(n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Sequence

from .errors import InvalidInputError, SizeLimitError

MAX_NC_N = 12
MAX_NCL_N = 10

Blocks = tuple[tuple[int, ...], ...]


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    bs = tuple(tuple(sorted(set(b))) for b in blocks)
    return tuple(sorted(bs, key=lambda b: b[0]))


def _blocks_text(blocks: Blocks) -> str:
    inner = ",".join("{" + ",".join(str(e) for e in b) + "}" for b in blocks)
    return "{" + inner + "}"


def _crosses(a: Sequence[int], b: Sequence[int]) -> bool:
    """True if there exist i < j < k < l with i,k in a and j,l in b.

    Both inputs sorted.  Shared elements do not count: all four inequalities
    are strict.
    """
    if not b:
        return False
    b_max = b[-1]
    for j in b:
        if bisect_left(a, j) == 0:
            continue  # no a-element strictly below j
        pos = bisect_right(a, j)
        if pos >= len(a):
            continue  # no a-element strictly above j
        if b_max > a[pos]:
            return True
    return False


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Pairwise non-crossing test on raw blocks (duplicates allowed)."""
    bs = [tuple(sorted(b)) for b in blocks]
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if _crosses(bs[i], bs[j]) or _crosses(bs[j], bs[i]):
                return False
    return True


@dataclass(frozen=True)
class _Partition:
    """Common shape of the two partition kinds: n and canonical blocks."""

    n: int
    blocks: Blocks

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _canonical_blocks(self.blocks))

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]):
        p = cls(n, blocks)
        p.validate()
        return p

    @classmethod
    def _from_canonical(cls, n: int, blocks: Blocks):
        """Wrap blocks that are canonical already, without a second pass."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "blocks", blocks)
        return p

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return _blocks_text(self.blocks)


class SetPartition(_Partition):
    """A non-crossing partition of {1, ..., n} with pairwise disjoint blocks."""

    def validate(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise InvalidInputError("empty block")
            for e in b:
                if not 1 <= e <= self.n:
                    raise InvalidInputError(f"element {e} out of range 1..{self.n}")
                if e in seen:
                    raise InvalidInputError(f"element {e} appears twice")
                seen.add(e)
        if len(seen) != self.n:
            raise InvalidInputError("blocks do not cover 1..n")
        if not is_noncrossing(self.blocks):
            raise InvalidInputError("partition is crossing")


class LinkedPartition(_Partition):
    """A non-crossing linked partition of {1, ..., n}."""

    def validate(self) -> None:
        count: dict[int, int] = {}
        for b in self.blocks:
            if not b:
                raise InvalidInputError("empty block")
            for e in b:
                if not 1 <= e <= self.n:
                    raise InvalidInputError(f"element {e} out of range 1..{self.n}")
                count[e] = count.get(e, 0) + 1
        if set(count) != set(range(1, self.n + 1)):
            raise InvalidInputError("blocks do not cover 1..n")
        if any(c > 2 for c in count.values()):
            raise InvalidInputError("element in more than two blocks")
        for i in range(len(self.blocks)):
            for j in range(i + 1, len(self.blocks)):
                bi, bj = self.blocks[i], self.blocks[j]
                shared = set(bi) & set(bj)
                if len(shared) > 1:
                    raise InvalidInputError("blocks share more than one element")
                if len(shared) == 1:
                    (e,) = shared
                    is_min_i = bi[0] == e
                    is_min_j = bj[0] == e
                    if is_min_i == is_min_j:
                        raise InvalidInputError(
                            f"shared element {e} must be minimal in exactly one block"
                        )
                    opening = bi if is_min_i else bj
                    if len(opening) < 2:
                        raise InvalidInputError(
                            f"block opened at shared element {e} needs >= 2 elements"
                        )
        if not is_noncrossing(self.blocks):
            raise InvalidInputError("linked partition is crossing")


def non_minimal_elements(p: LinkedPartition | SetPartition) -> tuple[int, ...]:
    """Elements that are not the minimum of any block containing them.

    For a linked partition this is the set usually written s(pi); its size
    always equals n minus the number of blocks.
    """
    minima = {b[0] for b in p.blocks}
    members = {e for b in p.blocks for e in b}
    return tuple(sorted(members - minima))


def connected_classes(p: LinkedPartition) -> SetPartition:
    """Merge blocks that share elements; the result is non-crossing."""
    parent = list(range(len(p.blocks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for bi, b in enumerate(p.blocks):
        for e in b:
            if e in owner:
                ri, rj = find(owner[e]), find(bi)
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[e] = bi
    classes: dict[int, set[int]] = {}
    for bi, b in enumerate(p.blocks):
        classes.setdefault(find(bi), set()).update(b)
    return SetPartition(p.n, classes.values())


def _scan(n: int, allow_links: bool, connected: bool = False) -> list[Blocks]:
    """Left-to-right stack enumeration, in lexicographic block order.

    The stack holds open blocks as (block, opened_by_link) pairs, innermost
    last; closed holds the finished blocks.  Each branch builds its own
    tuples, so nothing is undone on return.  At each position i we either
    open a fresh block, or join an open block at some depth (closing
    everything above it), or, in the linked case, do both at once: join a
    block as a non-minimal member and open a new block with minimum i.  A
    block opened through such a link must collect a second element before it
    closes; branches violating that are pruned.

    connected=True opens a fresh block at position 1 only.  A block opened
    fresh at i > 1 shares no element with a block opened before i, and links
    only join it to blocks opened later, so its connected class misses 1.
    Hence the leaves are exactly the partitions whose connected classes form
    the single block {1..n}.
    """
    out: list[Blocks] = []

    def closable(blocks) -> bool:
        return all(len(b) > 1 or not by_link for b, by_link in blocks)

    def rec(i: int, stack: tuple, closed: Blocks) -> None:
        if i > n:
            if closable(stack):
                # blocks fill in increasing order and minima are distinct, so
                # sorting the block tuples gives the canonical form
                out.append(tuple(sorted(closed + tuple(b for b, _ in stack))))
            return
        # (a) open a fresh block holding i
        if i == 1 or not connected:
            rec(i + 1, stack + (((i,), False),), closed)
        # (b) join the block at depth d, closing blocks above it
        #     (c) same, additionally opening a linked block with minimum i
        for d in range(len(stack) - 1, -1, -1):
            if not closable(stack[d + 1:]):
                break  # smaller d closes a superset, also invalid
            block, by_link = stack[d]
            joined = stack[:d] + ((block + (i,), by_link),)
            shut = closed + tuple(b for b, _ in stack[d + 1:])
            rec(i + 1, joined, shut)
            if allow_links:
                rec(i + 1, joined + (((i,), True),), shut)

    rec(1, (), ())
    return sorted(out)


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of {1..n} in lexicographic block order."""
    if not 1 <= n <= MAX_NC_N:
        raise SizeLimitError(f"enumerate_nc supports 1 <= n <= {MAX_NC_N}, got {n}")
    return [SetPartition._from_canonical(n, bs) for bs in _scan(n, allow_links=False)]


def enumerate_ncl(n: int) -> list[LinkedPartition]:
    """All non-crossing linked partitions of {1..n} in lexicographic order."""
    if not 1 <= n <= MAX_NCL_N:
        raise SizeLimitError(f"enumerate_ncl supports 1 <= n <= {MAX_NCL_N}, got {n}")
    return [LinkedPartition._from_canonical(n, bs) for bs in _scan(n, allow_links=True)]


def linked_class(sigma: SetPartition) -> list[LinkedPartition]:
    """All linked partitions whose connected classes equal sigma, in lexicographic order.

    connected_classes is a bijection from NCL(n) onto the pairs (sigma, one
    linked partition of each block V of sigma whose connected classes are
    all of V).  So the class is the product over the blocks of the connected
    partitions of {1..|V|}, each relabelled onto the elements of V in order.
    """
    sigma.validate()
    if not 1 <= sigma.n <= MAX_NCL_N:
        raise SizeLimitError(f"linked_class supports 1 <= n <= {MAX_NCL_N}, got {sigma.n}")
    connected = {s: _scan(s, allow_links=True, connected=True)
                 for s in {len(v) for v in sigma.blocks}}
    per_block = [[tuple(tuple(v[e - 1] for e in b) for b in tau) for tau in connected[len(v)]]
                 for v in sigma.blocks]
    found = sorted(tuple(sorted(chain.from_iterable(choice))) for choice in product(*per_block))
    return [LinkedPartition._from_canonical(sigma.n, bs) for bs in found]


def parse_partition_text(text: str, n: int | None = None, linked: bool = False):
    """Parse the canonical text form, e.g. ``{{1,2},{2,3}}``."""
    s = text.strip().replace(" ", "")
    if not (s.startswith("{{") and s.endswith("}}")):
        raise InvalidInputError(f"bad partition text: {text!r}")
    body = s[1:-1]
    blocks: list[list[int]] = []
    for part in body.replace("},{", "}|{").split("|"):
        if not (part.startswith("{") and part.endswith("}")):
            raise InvalidInputError(f"bad block in: {text!r}")
        try:
            blocks.append([int(tok) for tok in part[1:-1].split(",")])
        except ValueError as exc:
            raise InvalidInputError(f"bad element in: {text!r}") from exc
    if n is None:
        n = max(e for b in blocks for e in b)
    cls = LinkedPartition if linked else SetPartition
    return cls.of(n, blocks)
