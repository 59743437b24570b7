"""Unit tests for the semantic store buffers (relaxed consistency)."""

import numpy as np
import pytest

from repro.arch.params import MEMORY_MODELS
from repro.arch.write_buffer import StoreBuffer


class _Region:
    """Minimal stand-in: the buffer only compares regions by identity."""

    name = "r"


def test_memory_models_registry():
    assert MEMORY_MODELS == ("sc", "tso", "pc")


def test_fifo_commits_in_program_order():
    region = _Region()
    sb = StoreBuffer(ordering="fifo")
    a = sb.push_range(region, 0, np.array([1.0]), now=0)
    b = sb.push_range(region, 8, np.array([2.0]), now=0)
    assert sb.next_entry() is a
    sb.remove(a)
    assert sb.next_entry() is b
    sb.remove(b)
    assert sb.next_entry() is None
    assert sb.commits == 2 and sb.pushes == 2 and sb.max_depth == 2


def test_relaxed_reorders_across_locations_only():
    """The relaxed ordering nominates the earliest-ready *eligible*
    entry: cross-location reorder is allowed, same-location is not."""
    region = _Region()
    rng = np.random.default_rng(0)
    sb = StoreBuffer(ordering="relaxed", rng=rng, delay_bands=((0, 0),))
    older = sb.push_range(region, 0, np.array([1.0]), now=0)
    newer_same = sb.push_range(region, 0, np.array([2.0]), now=0)
    newer_other = sb.push_range(region, 50, np.array([3.0]), now=0)
    # Force the cross-location entry to look ready first.
    older.ready_time = 100
    newer_same.ready_time = 0
    newer_other.ready_time = 0
    nominee = sb.next_entry()
    assert nominee is newer_other  # same-location entry stays behind older
    assert sb.is_oldest_conflicting(newer_other)
    assert not sb.is_oldest_conflicting(newer_same)
    assert sb.is_oldest_conflicting(older)


def test_read_own_write_forwarding_range():
    region = _Region()
    sb = StoreBuffer()
    sb.push_range(region, 2, np.array([10.0, 11.0]), now=0)
    base = np.zeros(4)
    got = sb.apply_pending(region, 0, 4, base)
    assert got is not base  # copy on overlap
    assert list(got) == [0.0, 0.0, 10.0, 11.0]
    # Disjoint window: base returned untouched.
    assert sb.apply_pending(region, 10, 14, base) is base
    assert sb.forwards == 1


def test_forwarding_applies_entries_in_program_order():
    region = _Region()
    sb = StoreBuffer()
    sb.push_range(region, 0, np.array([1.0]), now=0)
    sb.push_range(region, 0, np.array([2.0]), now=0)
    got = sb.apply_pending(region, 0, 1, np.zeros(1))
    assert got[0] == 2.0  # the newer store wins


def test_gather_forwarding_scatter_entries():
    region = _Region()
    sb = StoreBuffer()
    sb.push_scatter(
        region, np.array([1, 3, 1]), np.array([5.0, 6.0, 7.0]), now=0
    )
    got = sb.apply_pending_gather(region, np.array([0, 1, 3]), np.zeros(3))
    # Repeated index 1: the scatter's own last write (7.0) wins.
    assert list(got) == [0.0, 7.0, 6.0]


def test_on_empty_fires_at_drain_and_immediately_when_empty():
    region = _Region()
    sb = StoreBuffer()
    fired = []
    sb.on_empty(lambda: fired.append("now"))
    assert fired == ["now"]  # already empty: immediate
    entry = sb.push_range(region, 0, np.array([1.0]), now=0)
    sb.on_empty(lambda: fired.append("drained"))
    assert fired == ["now"]
    sb.remove(entry)
    assert fired == ["now", "drained"]


def test_bad_ordering_and_delay_bands_rejected():
    with pytest.raises(ValueError, match="ordering"):
        StoreBuffer(ordering="weird")
    with pytest.raises(ValueError, match="delay band"):
        StoreBuffer(delay_bands=((5, 2),))
