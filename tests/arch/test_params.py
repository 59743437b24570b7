"""Transcription checks against the paper's Tables 1-3."""

import pytest

from repro.arch.params import CommonParams, MachineParams, MpParams, SmParams


def test_table1_common_hardware():
    p = CommonParams()
    assert p.cache_bytes == 256 * 1024
    assert p.cache_assoc == 4
    assert p.block_bytes == 32
    assert p.tlb_entries == 64
    assert p.page_bytes == 4096
    assert p.network_latency == 100
    assert p.barrier_latency == 100
    assert p.local_miss_cycles == 11
    assert p.dram_cycles == 10


def test_table1_derived_quantities():
    p = CommonParams()
    assert p.cache_sets == 2048
    assert p.local_miss_total_cycles == 21


def test_table2_message_passing():
    p = MpParams()
    assert p.replacement_cycles == 1
    assert p.ni_status_cycles == 5
    assert p.ni_write_tag_dest_cycles == 5
    assert p.ni_send_5_words_cycles == 15
    assert p.ni_recv_5_words_cycles == 15
    assert p.packet_bytes == 20
    assert p.packet_payload_bytes == 16
    assert p.packet_header_bytes == 4
    assert p.send_packet_cycles == 20
    assert p.recv_packet_cycles == 15


def test_table3_shared_memory():
    p = SmParams()
    assert p.self_message_cycles == 10
    assert p.shared_miss_cycles == 19
    assert p.invalidate_cycles == 3
    assert p.replacement_private_cycles == 1
    assert p.replacement_shared_clean_cycles == 5
    assert p.replacement_shared_dirty_cycles == 13
    assert p.directory_base_cycles == 10
    assert p.directory_recv_block_cycles == 8
    assert p.directory_send_msg_cycles == 5
    assert p.directory_send_block_cycles == 8
    assert p.message_bytes == 40
    assert p.block_message_control_bytes == 8


def test_paper_machine_defaults():
    m = MachineParams.paper()
    assert m.common.num_processors == 32


def test_with_cache_bytes_override():
    m = MachineParams.paper().with_cache_bytes(1024 * 1024)
    assert m.common.cache_bytes == 1024 * 1024
    assert m.common.cache_sets == 8192
    # Original untouched (frozen dataclasses).
    assert MachineParams.paper().common.cache_bytes == 256 * 1024


def test_with_processors_override():
    m = MachineParams.paper().with_processors(8)
    assert m.common.num_processors == 8


def test_invalid_cache_geometry_rejected():
    with pytest.raises(ValueError):
        CommonParams(cache_bytes=1000)  # not a multiple of assoc * block


# -- machine presets and two-level topology ----------------------------------


def test_machine_presets_registry():
    from repro.arch.params import MACHINE_PRESETS, machine_preset

    assert MACHINE_PRESETS == ("paper", "multicore", "cluster")
    for name in MACHINE_PRESETS:
        params = machine_preset(name, num_processors=16)
        assert params.common.num_processors == 16
    with pytest.raises(ValueError, match="unknown machine preset"):
        machine_preset("cray")


def test_paper_preset_is_the_paper_machine():
    from repro.arch.params import machine_preset

    assert machine_preset("paper") == MachineParams.paper()


def test_multicore_preset_shape():
    """On-chip network is cheap; DRAM is dear (the memory wall)."""
    paper = MachineParams.paper().common
    multi = MachineParams.multicore().common
    assert multi.network_latency < paper.network_latency
    assert multi.dram_cycles > paper.dram_cycles
    assert multi.cache_bytes > paper.cache_bytes
    # Flat topology: no two-level latency.
    assert multi.intra_cluster_latency is None


def test_cluster_preset_two_level_latency():
    c = MachineParams.cluster().common
    assert c.cluster_size == 8
    assert c.intra_cluster_latency is not None
    # Same cluster: cheap on-chip cost; cross-cluster: the full wire.
    assert c.message_latency(0, 7) == c.intra_cluster_latency
    assert c.message_latency(0, 8) == c.network_latency
    assert c.message_latency(8, 15) == c.intra_cluster_latency
    assert c.message_latency(7, 8) == c.network_latency


def test_flat_message_latency_matches_network_latency():
    """cluster_size=1 / intra=None is inert: the paper's flat machine."""
    c = MachineParams.paper().common
    for src, dest in ((0, 1), (0, 31), (5, 6)):
        assert c.message_latency(src, dest) == c.network_latency


def test_bad_cluster_size_rejected():
    with pytest.raises(ValueError, match="cluster_size"):
        CommonParams(cluster_size=0)


@pytest.mark.parametrize(
    "name, least",
    [
        ("num_processors", 1),
        ("tlb_entries", 1),
        ("cache_assoc", 1),
        ("block_bytes", 1),
        ("network_latency", 0),
        ("barrier_latency", 0),
        ("local_miss_cycles", 0),
        ("dram_cycles", 0),
        ("tlb_miss_cycles", 0),
        ("intra_cluster_latency", 0),
    ],
)
def test_impossible_machine_values_rejected(name, least):
    with pytest.raises(ValueError, match=f"{name} must be >= {least}, got {least - 1}"):
        CommonParams(**{name: least - 1})
    # The least legal value builds: a zero cycle count is a free cost
    # (em3d-latency sweeps net_latency=0), not an impossible one.
    assert getattr(CommonParams(**{name: least}), name) == least


@pytest.mark.parametrize(
    "name, value",
    [
        ("num_processors", 0),
        ("cache_bytes", 0),
        ("tlb_entries", 0),
        ("page_bytes", 0),
        ("num_processors", "2"),
    ],
)
def test_impossible_machine_sizes_rejected(name, value):
    """A machine with no processors, a zero-byte cache or page, or no TLB
    cannot exist; a count must be an int (a worker divides by it)."""
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value!r}"):
        CommonParams(**{name: value})
