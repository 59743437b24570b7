"""Tests for the frozen experiment configurations."""

import pickle

import pytest

from repro.apps.gauss.common import GaussConfig
from repro.core.experiments import EXPERIMENTS
from repro.runner.config import ExperimentConfig


def test_options_are_sorted_and_frozen():
    config = ExperimentConfig(
        exp_id="x", options=(("zeta", 1), ("alpha", 2))
    )
    assert config.options == (("alpha", 2), ("zeta", 1))
    assert config.opt("alpha") == 2
    assert config.opt("missing", 7) == 7
    with pytest.raises(Exception):
        config.procs = 3  # frozen


def test_machine_params_resolution():
    config = ExperimentConfig(exp_id="x", procs=4, cache_bytes=8192)
    params = config.machine_params()
    assert params.common.num_processors == 4
    assert params.common.cache_bytes == 8192
    # No cache override -> the paper's default.
    default = ExperimentConfig(exp_id="x", procs=4).machine_params()
    assert default.common.cache_bytes == 256 * 1024
    # An explicit processor count wins (the contention sweep's lever).
    assert config.machine_params(procs=16).common.num_processors == 16


def test_with_overrides_top_level():
    base = EXPERIMENTS["gauss"].config
    swept = base.with_overrides({"procs": 4, "seed": 7})
    assert (swept.procs, swept.seed) == (4, 7)
    assert base.procs == 8  # original untouched
    assert swept.app == base.app


def test_with_overrides_app_mapping():
    base = EXPERIMENTS["gauss"].config
    swept = base.with_overrides({"app": {"n": 32}})
    assert swept.app.n == 32
    assert swept.app.seed == base.app.seed
    replaced = base.with_overrides({"app": GaussConfig(n=16)})
    assert replaced.app.n == 16


def test_with_overrides_options_merge():
    base = EXPERIMENTS["lcp"].config
    swept = base.with_overrides({"options": {"asynchronous": True}})
    assert swept.opt("asynchronous") is True
    assert base.opt("asynchronous") is False


def test_with_overrides_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown gauss config override"):
        EXPERIMENTS["gauss"].config.with_overrides({"nope": 1})


def test_with_overrides_suggests_close_match():
    with pytest.raises(ValueError, match="did you mean 'procs'"):
        EXPERIMENTS["gauss"].config.with_overrides({"prcs": 4})
    with pytest.raises(ValueError, match="did you mean 'n'"):
        EXPERIMENTS["gauss"].config.with_overrides({"app": {"nn": 8}})


def test_with_overrides_unknown_option_rejected():
    """An options override must name an option the experiment has: a
    typo would otherwise simulate the default under a new cache key."""
    with pytest.raises(
        ValueError,
        match=r"unknown alcp option 'asynchronus' \(did you mean 'asynchronous'\?\)",
    ):
        EXPERIMENTS["alcp"].config.with_overrides({"options": {"asynchronus": False}})


def test_with_overrides_machine_channel():
    base = EXPERIMENTS["em3d"].config
    swept = base.with_overrides({"machine": {"network_latency": 50}})
    assert swept.machine == (("network_latency", 50),)
    assert swept.machine_params().common.network_latency == 50
    # The base config's resolved params are untouched.
    assert base.machine_params().common.network_latency != 50
    # Merging keeps earlier machine overrides, later ones win per key.
    merged = swept.with_overrides(
        {"machine": {"network_latency": 75, "block_bytes": 64}}
    )
    assert dict(merged.machine) == {"network_latency": 75, "block_bytes": 64}


def test_with_overrides_unknown_machine_field_rejected():
    with pytest.raises(ValueError, match="unknown machine override"):
        EXPERIMENTS["em3d"].config.with_overrides(
            {"machine": {"network_latncy": 50}}
        )


def test_machine_override_changes_cache_identity():
    from repro.runner.cache import cache_key

    base = EXPERIMENTS["em3d"].config
    swept = base.with_overrides({"machine": {"network_latency": 50}})
    assert cache_key(base) != cache_key(swept)
    data = swept.to_jsonable()
    # The override's effect is contained in the resolved params, which
    # to_jsonable already serializes — no new payload field needed.
    assert data["machine"]["common"]["network_latency"] == 50


def test_app_override_without_app_rejected():
    with pytest.raises(ValueError):
        EXPERIMENTS["validation"].config.with_overrides({"app": {"n": 1}})


def test_configs_are_picklable():
    for spec in EXPERIMENTS.values():
        clone = pickle.loads(pickle.dumps(spec.config))
        assert clone == spec.config


def test_to_jsonable_includes_machine_params():
    data = EXPERIMENTS["em3d"].config.to_jsonable()
    assert data["machine"]["common"]["cache_bytes"] == 16 * 1024
    assert data["app"]["__type__"] == "Em3dConfig"
    assert data["seed"] == 1994


def test_registry_configs_match_ids():
    for exp_id, spec in EXPERIMENTS.items():
        assert spec.config.exp_id == exp_id


def test_backend_field_validated_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'batched'"):
        ExperimentConfig(exp_id="x", backend="bathced")
    with pytest.raises(ValueError, match="unknown backend 'fast'"):
        ExperimentConfig(exp_id="x", backend="fast")


def test_backend_override_changes_cache_identity():
    from repro.runner.cache import cache_key

    base = EXPERIMENTS["mse"].config
    assert base.backend == "batched"
    reference = base.with_overrides({"backend": "reference"})
    assert reference.backend == "reference"
    # The two backends are bit-identical in simulated facts, but records
    # must still say which backend produced them.
    assert cache_key(base) != cache_key(reference)
    assert base.to_jsonable()["backend"] == "batched"
    assert reference.to_jsonable()["backend"] == "reference"


def test_consistency_field_validated_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'tso'"):
        ExperimentConfig(exp_id="x", consistency="tsso")
    with pytest.raises(ValueError, match="unknown consistency 'weak'"):
        ExperimentConfig(exp_id="x", consistency="weak")


def test_preset_field_validated_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'multicore'"):
        ExperimentConfig(exp_id="x", preset="multicre")
    with pytest.raises(ValueError, match="unknown preset 'cm5'"):
        ExperimentConfig(exp_id="x", preset="cm5")


def test_consistency_override_changes_cache_identity():
    """Unlike backend, the model changes simulated results — it must be
    both validated and cache-keyed."""
    from repro.runner.cache import cache_key

    base = EXPERIMENTS["mse"].config
    assert base.consistency == "sc"
    tso = base.with_overrides({"consistency": "tso"})
    assert tso.consistency == "tso"
    assert cache_key(base) != cache_key(tso)
    assert base.to_jsonable()["consistency"] == "sc"
    assert tso.to_jsonable()["consistency"] == "tso"


def test_preset_override_flows_through_machine_params():
    """`preset` needs no cache-key entry of its own: its whole effect is
    the resolved machine table, which is already keyed."""
    from repro.arch.params import MachineParams
    from repro.runner.cache import cache_key

    base = EXPERIMENTS["mse"].config
    multi = base.with_overrides({"preset": "multicore"})
    assert multi.machine_params().common.dram_cycles == (
        MachineParams.multicore().common.dram_cycles
    )
    assert cache_key(base) != cache_key(multi)
    # `machine` overrides still apply on top of the preset table.
    tuned = multi.with_overrides({"machine": {"network_latency": 45}})
    assert tuned.machine_params().common.network_latency == 45
    assert tuned.machine_params().common.dram_cycles == (
        MachineParams.multicore().common.dram_cycles
    )


def test_impossible_machine_rejected_where_the_config_is_built():
    """A config that exists can run: an impossible machine fails at
    resolution, not in a worker."""
    from repro.runner.api import resolve_config

    with pytest.raises(ValueError, match="num_processors must be >= 1, got 0"):
        resolve_config("validation", {"procs": 0})
    with pytest.raises(ValueError, match="cache_bytes must be >= 1, got 0"):
        ExperimentConfig(exp_id="x", cache_bytes=0)
    # Per-experiment and per-app limits, on the condition each run checks.
    with pytest.raises(ValueError, match="validation needs at least 2 processors, got 1"):
        resolve_config("validation", {"procs": 1})
    for app in ({"n": 0}, {"n": 4}):
        with pytest.raises(ValueError, match="need at least one row per processor"):
            resolve_config("gauss", {"procs": 8, "app": app})
    with pytest.raises(ValueError, match="remote edges require at least two processors"):
        resolve_config("em3d", {"procs": 1})
    # gauss_contention's SM sides run at each of its proc_counts.
    with pytest.raises(ValueError, match="n=96, 128 processors"):
        resolve_config("gauss_contention", {"options": {"proc_counts": (4, 128)}})
    # What the runs accept stays accepted.
    resolve_config("gauss", {"procs": 8, "app": {"n": 8}})
    resolve_config("em3d", {"procs": 1, "app": {"remote_frac": 0.0}})
    resolve_config("validation", {"procs": 2})


def test_unknown_experiment_suggests():
    from repro.core.experiments import get_experiment

    with pytest.raises(KeyError, match="did you mean 'em3d'"):
        get_experiment("em3")


def test_unknown_builds_the_did_you_mean_error():
    from repro.runner.config import unknown

    error = unknown("preset", "multicre", ("paper", "multicore", "cluster"))
    assert isinstance(error, ValueError)
    assert str(error) == (
        "unknown preset 'multicre' (did you mean 'multicore'?); "
        "known: ['cluster', 'multicore', 'paper']"
    )
