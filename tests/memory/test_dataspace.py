"""Unit tests for regions, layout, and home policies."""

import numpy as np
import pytest

from repro.memory.dataspace import DataSpace, HomePolicy, Segment


def make_space(nodes=4, block=32):
    return DataSpace(num_nodes=nodes, block_bytes=block)


def test_private_region_basics():
    space = make_space()
    region = space.alloc_private("buf", owner=2, shape=10, dtype=np.float64)
    assert region.segment is Segment.PRIVATE
    assert region.nbytes == 80
    assert region.base % 32 == 0
    assert region.np.shape == (10,)


def test_regions_do_not_overlap():
    space = make_space()
    a = space.alloc_private("a", owner=0, shape=5)
    b = space.alloc_private("b", owner=0, shape=5)
    assert a.end <= b.base


def test_segments_are_disjoint():
    space = make_space()
    private = space.alloc_private("p", owner=1, shape=4)
    shared = space.alloc_shared("s", owner=1, shape=4)
    ranges = sorted([(private.base, private.end), (shared.base, shared.end)])
    assert ranges[0][1] <= ranges[1][0]


def test_duplicate_name_rejected():
    space = make_space()
    space.alloc_private("x", owner=0, shape=1)
    with pytest.raises(ValueError):
        space.alloc_private("x", owner=1, shape=1)


def test_bad_owner_rejected():
    space = make_space(nodes=2)
    with pytest.raises(ValueError):
        space.alloc_private("x", owner=2, shape=1)


def test_addr_of_and_range_of():
    space = make_space()
    region = space.alloc_private("v", owner=0, shape=8, dtype=np.float64)
    assert region.addr_of(0) == region.base
    assert region.addr_of(3) == region.base + 24
    r = region.range_of(2, 6)
    assert r.start == region.base + 16
    assert r.length == 32
    with pytest.raises(IndexError):
        region.addr_of(8)
    with pytest.raises(IndexError):
        region.range_of(5, 3)


def test_round_robin_homes_interleave_blocks():
    space = make_space(nodes=4, block=32)
    region = space.alloc_shared("g", owner=0, shape=16, dtype=np.float64)  # 4 blocks
    homes = [region.home_of_block(region.base + i * 32) for i in range(4)]
    assert homes == [0, 1, 2, 3]


def test_local_policy_homes_on_owner():
    space = make_space(nodes=4)
    region = space.alloc_shared(
        "g", owner=3, shape=16, policy=HomePolicy.LOCAL
    )
    homes = {region.home_of_block(region.base + i * 32) for i in range(4)}
    assert homes == {3}


def test_private_regions_home_on_owner():
    space = make_space(nodes=4)
    region = space.alloc_private("p", owner=2, shape=16)
    assert region.home_of_block(region.base) == 2


def test_home_of_foreign_block_rejected():
    space = make_space()
    region = space.alloc_shared("g", owner=0, shape=4)
    with pytest.raises(ValueError):
        region.home_of_block(region.end + 320)


def test_block_addrs_of_indices_unique_sorted():
    space = make_space(nodes=2, block=32)
    region = space.alloc_shared("g", owner=0, shape=32, dtype=np.float64)
    # Elements 0..3 share block 0; element 4 starts block 1.
    blocks = region.block_addrs_of_indices([3, 0, 4, 1])
    assert list(blocks) == [region.base, region.base + 32]


def test_region_at_lookup():
    space = make_space()
    region = space.alloc_private("p", owner=0, shape=4)
    assert space.region_at(region.base + 8) is region
    assert space.region_at(region.end + 12345) is None


def test_fill_value():
    space = make_space()
    region = space.alloc_private("p", owner=0, shape=4, fill=7.5)
    assert (region.np == 7.5).all()


def test_block_addrs_of_short_lists_match_the_numpy_path():
    """Short lists and tuples are resolved in Python; the result must be
    the numpy path's (an int64 array of unique sorted blocks), whatever
    the order, duplicates or length, up to past the cutoff."""
    from repro.memory.dataspace import SMALL_GATHER

    space = make_space(nodes=2, block=32)
    region = space.alloc_shared("g", owner=0, shape=400, dtype=np.float64)
    rng = np.random.default_rng(5)
    for length in range(SMALL_GATHER + 9):
        indices = [int(i) for i in rng.integers(0, 400, size=length)]
        indices += indices[: length // 3]  # duplicates
        for given in (indices, tuple(indices), indices[::-1]):
            got = region.block_addrs_of_indices(given)
            want = region.block_addrs_of_indices(np.array(given, dtype=np.int64))
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
