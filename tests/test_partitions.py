"""Enumeration and queries for non-crossing and linked partitions.

Counts are pinned against the classic recursions computed inline:
Catalan for the plain non-crossing family, large Schroeder (shifted by
one) for the linked family.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infconv import (
    InvalidInputError,
    LinkedPartition,
    SetPartition,
    SizeLimitError,
    connected_classes,
    enumerate_nc,
    enumerate_ncl,
    is_noncrossing,
    linked_class,
    non_minimal_elements,
    parse_partition_text,
)


def catalan(n):
    row = [1]
    for m in range(1, n + 1):
        row.append(sum(row[i] * row[m - 1 - i] for i in range(m)))
    return row[n]


def schroder(n):
    # large Schroeder: 1, 2, 6, 22, 90, 394, 1806, ...
    row = [1]
    for m in range(1, n + 1):
        row.append(row[m - 1] + sum(row[k] * row[m - 1 - k] for k in range(m)))
    return row[n]


# -- counts -------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_nc_counts_match_catalan(n):
    assert len(enumerate_nc(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_ncl_counts_match_schroder(n):
    # linked partitions of [n] are counted by the (n-1)st large Schroeder number
    assert len(enumerate_ncl(n)) == schroder(n - 1)


def test_ncl_frozen_small_counts():
    assert [len(enumerate_ncl(n)) for n in range(1, 6)] == [1, 2, 6, 22, 90]


def test_nc_subset_of_ncl():
    for n in range(1, 6):
        ncl = {str(p) for p in enumerate_ncl(n)}
        for p in enumerate_nc(n):
            assert str(p) in ncl


def test_no_duplicates():
    for n in range(1, 7):
        seen = [str(p) for p in enumerate_ncl(n)]
        assert len(seen) == len(set(seen))


# -- the crossing predicate -----------------------------------------------

def test_is_noncrossing_canonical_crossing():
    assert not is_noncrossing([[1, 3], [2, 4]])


def test_is_noncrossing_nested():
    assert is_noncrossing([[1, 4], [2, 3]])


def test_is_noncrossing_linked_chain():
    assert is_noncrossing([[1, 2], [2, 3]])


# -- singleton sets and connectivity ---------------------------------------

def test_non_minimal_elements_singleton():
    assert non_minimal_elements(LinkedPartition.of(1, [[1]])) == ()


def test_non_minimal_elements_pair():
    assert non_minimal_elements(LinkedPartition.of(2, [[1, 2]])) == (2,)


def test_non_minimal_elements_chain():
    # 2 is minimal in {2,3}, so only 3 survives
    p = LinkedPartition.of(3, [[1, 2], [2, 3]])
    assert non_minimal_elements(p) == (3,)


def test_connected_classes_chain():
    p = LinkedPartition.of(3, [[1, 2], [2, 3]])
    assert connected_classes(p).blocks == ((1, 2, 3),)


def test_connected_classes_disjoint():
    p = LinkedPartition.of(4, [[1, 4], [2, 3]])
    assert connected_classes(p).blocks == ((1, 4), (2, 3))


def test_linked_class_of_full_block_on_three_points():
    sigma = SetPartition.of(3, [[1, 2, 3]])
    members = {str(p) for p in linked_class(sigma)}
    assert members == {"{{1,2,3}}", "{{1,2},{2,3}}"}


def test_linked_class_inverts_connected_classes():
    for n in range(2, 6):
        for sigma in enumerate_nc(n):
            for tau in linked_class(sigma):
                assert connected_classes(tau).blocks == sigma.blocks


def test_linked_classes_cover_ncl():
    # every linked partition appears in exactly one linked class
    for n in range(2, 6):
        total = sum(len(linked_class(s)) for s in enumerate_nc(n))
        assert total == len(enumerate_ncl(n))


def test_linked_class_is_its_slice_of_the_enumeration():
    # built block by block, each class lists exactly the partitions of
    # NCL(n) with those connected classes, in enumeration order
    for n in range(1, 7):
        classes = {}
        for p in enumerate_ncl(n):
            classes.setdefault(connected_classes(p).blocks, []).append(str(p))
        for sigma in enumerate_nc(n):
            assert [str(p) for p in linked_class(sigma)] == classes.pop(sigma.blocks, [])
        assert not classes


def test_linked_class_size_limits():
    with pytest.raises(SizeLimitError):
        linked_class(SetPartition.of(11, [list(range(1, 12))]))
    with pytest.raises(SizeLimitError):
        linked_class(SetPartition.of(0, []))


def test_enumerated_partitions_are_canonical():
    for n in range(1, 6):
        for p in enumerate_ncl(n):
            assert p == LinkedPartition.of(n, reversed(p.blocks))
        for p in enumerate_nc(n):
            assert p == SetPartition.of(n, reversed(p.blocks))


# -- invariants over the whole enumeration ---------------------------------

@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_enumerated_linked_partitions_validate(n):
    for p in enumerate_ncl(n):
        p.validate()
        cover = sorted(x for b in p.blocks for x in b)
        assert set(cover) == set(range(1, n + 1))


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=7, deadline=None)
def test_enumerated_nc_blocks_disjoint_and_noncrossing(n):
    for p in enumerate_nc(n):
        flat = [x for b in p.blocks for x in b]
        assert sorted(flat) == list(range(1, n + 1))
        assert is_noncrossing(p.blocks)


# -- text parsing -----------------------------------------------------------

def test_parse_roundtrip():
    p = parse_partition_text("{{1,2},{2,3},{4}}", linked=True)
    assert str(p) == "{{1,2},{2,3},{4}}"


def test_parse_plain_rejects_overlap():
    with pytest.raises(InvalidInputError):
        parse_partition_text("{{1,2},{2,3}}", linked=False)


def test_parse_garbage():
    with pytest.raises(InvalidInputError):
        parse_partition_text("{1,2", linked=False)


# -- validation errors --------------------------------------------------------

def test_enumerate_nc_size_guard():
    with pytest.raises(SizeLimitError):
        enumerate_nc(13)
    with pytest.raises(SizeLimitError):
        enumerate_nc(0)


def test_enumerate_ncl_size_guard():
    with pytest.raises(SizeLimitError):
        enumerate_ncl(11)


def test_linked_partition_rejects_two_point_overlap():
    with pytest.raises(InvalidInputError):
        LinkedPartition.of(3, [[1, 2, 3], [2, 3]])


def test_linked_partition_rejects_shared_singleton():
    # the sharing block must have at least two elements
    with pytest.raises(InvalidInputError):
        LinkedPartition.of(2, [[1, 2], [2]])


def test_linked_partition_rejects_crossing():
    with pytest.raises(InvalidInputError):
        LinkedPartition.of(4, [[1, 3], [2, 4]])


def test_set_partition_rejects_gap():
    with pytest.raises(InvalidInputError):
        SetPartition.of(3, [[1, 3]])
