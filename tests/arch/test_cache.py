"""Unit tests for the set-associative cache."""

import numpy as np
import pytest

from repro.arch.cache import Cache, CacheError, LineState


def make_cache(size=1024, assoc=2, block=32, seed=0):
    return Cache(size, assoc, block, np.random.default_rng(seed))


def test_geometry():
    cache = make_cache(size=1024, assoc=2, block=32)
    assert cache.num_sets == 16


def test_miss_then_hit():
    cache = make_cache()
    assert cache.lookup(0) is LineState.INVALID
    cache.insert(0, LineState.SHARED)
    assert cache.lookup(0) is LineState.SHARED
    assert cache.misses == 1
    assert cache.hits == 1


def test_peek_does_not_count():
    cache = make_cache()
    cache.peek(0)
    assert cache.hits == 0 and cache.misses == 0


def test_unaligned_address_rejected():
    cache = make_cache()
    with pytest.raises(CacheError):
        cache.lookup(5)


def test_eviction_when_set_full():
    cache = make_cache(size=64, assoc=2, block=32)  # 1 set, 2 ways
    cache.insert(0, LineState.SHARED)
    cache.insert(32, LineState.SHARED)
    victim = cache.insert(64, LineState.SHARED)
    assert victim is not None
    assert victim[0] in (0, 32)
    assert cache.resident_blocks() == 2


def test_eviction_callback_fires():
    cache = make_cache(size=64, assoc=2, block=32)
    evicted = []
    cache.on_evict = lambda addr, state: evicted.append((addr, state))
    cache.insert(0, LineState.EXCLUSIVE)
    cache.insert(32, LineState.SHARED)
    cache.insert(64, LineState.SHARED)
    assert len(evicted) == 1
    assert evicted[0][1] in (LineState.EXCLUSIVE, LineState.SHARED)


def test_insert_existing_updates_state_without_eviction():
    cache = make_cache(size=64, assoc=2, block=32)
    cache.insert(0, LineState.SHARED)
    cache.insert(32, LineState.SHARED)
    victim = cache.insert(0, LineState.EXCLUSIVE)
    assert victim is None
    assert cache.peek(0) is LineState.EXCLUSIVE


def test_set_state_on_missing_line_raises():
    cache = make_cache()
    with pytest.raises(CacheError):
        cache.set_state(0, LineState.EXCLUSIVE)


def test_invalidate_returns_prior_state():
    cache = make_cache()
    cache.insert(0, LineState.EXCLUSIVE)
    assert cache.invalidate(0) is LineState.EXCLUSIVE
    assert cache.invalidate(0) is LineState.INVALID
    assert cache.peek(0) is LineState.INVALID


def test_insert_invalid_rejected():
    cache = make_cache()
    with pytest.raises(CacheError):
        cache.insert(0, LineState.INVALID)


def test_blocks_map_to_distinct_sets():
    cache = make_cache(size=1024, assoc=2, block=32)  # 16 sets
    # 17 consecutive blocks: the first and the 17th share a set.
    for i in range(16):
        cache.insert(i * 32, LineState.SHARED)
    assert cache.resident_blocks() == 16
    cache.insert(16 * 32, LineState.SHARED)
    # Same set as block 0, which may or may not be evicted; others intact.
    assert cache.resident_blocks() == 16 or cache.resident_blocks() == 17


def test_random_replacement_is_seeded():
    def churn(seed):
        cache = make_cache(size=64, assoc=2, block=32, seed=seed)
        victims = []
        cache.on_evict = lambda addr, _s: victims.append(addr)
        for i in range(40):
            cache.insert(i * 32, LineState.SHARED)
        return victims

    assert churn(1) == churn(1)
    assert churn(1) != churn(2)


def test_flush_empties_cache():
    cache = make_cache()
    cache.insert(0, LineState.SHARED)
    cache.flush()
    assert cache.resident_blocks() == 0


def test_version_counts_state_changes_only():
    """Probe-verdict memos rely on: hits never move the version."""
    cache = make_cache()
    v = cache.version
    cache.insert(0, LineState.SHARED)
    assert cache.version > v
    v = cache.version
    cache.lookup(0)  # hit: no state change
    assert cache.version == v
    cache.set_state(0, LineState.EXCLUSIVE)
    assert cache.version > v
    v = cache.version
    cache.invalidate(0)
    assert cache.version > v
    v = cache.version
    cache.invalidate(0)  # already invalid: nothing changed
    assert cache.version == v
    cache.flush()
    assert cache.version > v


@pytest.mark.parametrize("assoc", [2, 4])
def test_chunked_victim_draws_equal_scalar_draws(assoc):
    """The cache draws replacement victims ahead, 256 at a time; on
    numpy's PCG64 that gives exactly the victims of one scalar
    ``integers(assoc)`` per eviction. 600 evictions cross two chunk
    boundaries."""
    seed = 29
    cache = make_cache(size=assoc * 32, assoc=assoc, block=32, seed=seed)  # one set
    rng = np.random.default_rng(seed)
    resident = {}  # the set's lines, in the cache's candidate order
    got, want = [], []
    for i in range(600 + assoc):
        block = i * 32
        if len(resident) == assoc:
            victim = list(resident)[int(rng.integers(assoc))]
            del resident[victim]
            want.append(victim)
        resident[block] = None
        evicted = cache.insert(block, LineState.SHARED)
        if evicted is not None:
            got.append(evicted[0])
    assert cache.evictions == 600
    assert got == want
