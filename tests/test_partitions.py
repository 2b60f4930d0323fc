"""Enumeration and queries for non-crossing and linked partitions.

Counts are pinned against the classic recursions in `infconv.checks`:
Catalan for the plain non-crossing family, large Schroeder (shifted by
one) for the linked family.
"""

import hashlib

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
from infconv.checks import catalan_schroder


# -- counts -------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_nc_counts_match_catalan(n):
    assert len(enumerate_nc(n)) == catalan_schroder(n)[0][n]


@pytest.mark.parametrize("n", range(1, 7))
def test_ncl_counts_match_schroder(n):
    # linked partitions of [n] are counted by the (n-1)st large Schroeder number
    assert len(enumerate_ncl(n)) == catalan_schroder(n)[1][n - 1]


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


# -- pinned enumerations ------------------------------------------------------

# sha256 of the newline-joined text forms: pins contents and order past the
# ranges counted above, up to NC(10), the full block's class at n = 10 and
# NCL(8).
ENUMERATION_DIGESTS = {
    "nc": {
        1: "bd66f9fd26ffef44a3ef380741a9353e9913cf998f69aff2748e213b8fe2d977",
        2: "0d2bfdceca444119b42f834a0fe9d493fbb4b8de8dba79807a7fd1eb5f5bce82",
        3: "95baafd1f3072feaa2a451b6682ccbe15f5c675eddc8edede315c8b2dd40986c",
        4: "98cb64542aff0624c0bcfedd9451b1ff3bd37a165b1d3a36a6f319e5a3645c09",
        5: "b69b38109d3d032d60e0e280e8722a09545d9cf9318a76c327ed5c589851b966",
        6: "278ff182b3e1823cb6872a000f62fc4ee5b47d1c9d144a5124b6a6d6b496eb63",
        7: "fc2409f1f3f1548ce43049805eade4cecf69a133a47bf058d75725fb007e63db",
        8: "6fc3b78698fd68561db36bd5dbedbca01e56a3f6102679e20eb2544e39556102",
        9: "74ccbcb0b7743c01dd5c468f482b153b5c65dd4887f559e2160d139df60e86d3",
        10: "24f33ed4a864b781b8e20a2cb5fd2aad2223121555c32ea5e59ab2724c48338d",
    },
    "full_block_class": {
        1: "bd66f9fd26ffef44a3ef380741a9353e9913cf998f69aff2748e213b8fe2d977",
        2: "83b0523c0eec880ac2300ccd00d040985e63190df9b88d209e2c8be37919b60b",
        3: "128ce4511d2ac86e5cec4e3947c61236acd182223e6a9674b32566956eabeb29",
        4: "8708692751ef242f34464c982ae87acf13c281f9d000c2b1b68d8ac657e4ef5a",
        5: "5208e9a13e45c5d9701150b033cf7a15b26b6556eca0b041303905cc87c30236",
        6: "e54f866c2d1fc411aa4e220c1cd994748479bb09ca0d34f66d20fa564a6c3836",
        7: "b9b0ec1196b58762e09ff50a8cf93c999e52c64605c7bdc819dd36a12b626192",
        8: "f583dbfdba3ee92c94df5de97db47901d1938beaeb4a8886efaff0191497bf56",
        9: "b00ada222bf57a73c638c7e0d4e2fb5a9d8e8eb44f3d1aa819113a7eee3a0b92",
        10: "58b9543e5049700da81040aed0b9c4b79189989010b0301f7646da65857ebd99",
    },
    "ncl": {
        1: "bd66f9fd26ffef44a3ef380741a9353e9913cf998f69aff2748e213b8fe2d977",
        2: "0d2bfdceca444119b42f834a0fe9d493fbb4b8de8dba79807a7fd1eb5f5bce82",
        3: "3f2bd50d5949653db8681ae4746900bfa92f2bb9c9c08b489bd0ce18f0bfd700",
        4: "8673544c0a99a84849f842ccd5e7ec6b85df2629461e8f9ee5b4e12867e58cc9",
        5: "5b7c175ac12e6a3b48f5f703e3a617df09b29c47f6b80930d402d1eb04aab764",
        6: "8ea5eb04aca6a0cf314256ef043eec3e6b061fce4dbd67b42fe4635c022bbbb9",
        7: "dbd65e5fab8fac4e3f84e3c4164c8f7af51d141460919a9dd6cf92d009ad7528",
        8: "142d730816b827394b0485be874fc9c12f41bd5df8e2d89f0cd0db3f922dffa3",
    },
}

ENUMERATIONS = {
    "nc": enumerate_nc,
    "full_block_class": lambda n: linked_class(SetPartition.of(n, [range(1, n + 1)])),
    "ncl": enumerate_ncl,
}


@pytest.mark.parametrize("family", sorted(ENUMERATION_DIGESTS))
def test_enumerations_match_pinned_digests(family):
    for n, want in ENUMERATION_DIGESTS[family].items():
        text = "\n".join(str(p) for p in ENUMERATIONS[family](n))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (family, n)


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
