"""YAML spec loading: validation errors, search path, globs."""

import textwrap

import pytest

from repro.specs import (
    SpecError,
    discovered_sweeps,
    expand_glob,
    get_sweep,
    list_specs,
    load_spec,
    load_spec_file,
    load_sweep,
)

TINY_SWEEP = textwrap.dedent(
    """\
    kind: sweep
    id: {id}
    experiment: em3d
    description: tiny
    base_overrides: {{procs: 2, app: {{nodes_per_proc: 8, degree: 2, iterations: 2}}}}
    axes:
      - axis: net_latency
        values: [0, 50]
    metrics: [mp_total]
    """
)


def _write(tmp_path, name, text, kind="sweeps"):
    sub = tmp_path / kind
    sub.mkdir(parents=True, exist_ok=True)
    path = sub / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Malformed documents fail at load with did-you-mean errors.
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_suggests(tmp_path):
    doc = TINY_SWEEP.format(id="t").replace("metrics:", "metrcs:")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="unknown key 'metrcs'.*did you mean 'metrics'"):
        load_spec_file(path)


def test_unknown_int_key_is_a_spec_error(tmp_path):
    # YAML reads `1:` as an int key; the did-you-mean lookup must not
    # raise TypeError on it.
    doc = TINY_SWEEP.format(id="t").replace("metrics:", "1:")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="unknown key 1;"):
        load_spec_file(path)


def test_unknown_kind_rejected(tmp_path):
    path = _write(tmp_path, "t.yaml", "kind: sweeep\nid: t\n")
    with pytest.raises(SpecError, match="unknown kind 'sweeep'.*did you mean 'sweep'"):
        load_spec_file(path)


def test_unknown_experiment_suggests(tmp_path):
    doc = TINY_SWEEP.format(id="t").replace("experiment: em3d", "experiment: em3dd")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="unknown experiment 'em3dd'.*did you mean 'em3d'"):
        load_spec_file(path)


def test_unknown_metric_suggests(tmp_path):
    doc = TINY_SWEEP.format(id="t").replace("[mp_total]", "[sm_over_mpp]")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="unknown metric 'sm_over_mpp'.*did you mean 'sm_over_mp'"):
        load_spec_file(path)


def test_unknown_checks_callable_suggests(tmp_path):
    doc = TINY_SWEEP.format(id="t") + "checks: em3d-latencyy\n"
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="did you mean 'em3d-latency'"):
        load_spec_file(path)


def test_unknown_axis_fails_at_load_not_mid_sweep(tmp_path):
    doc = TINY_SWEEP.format(id="t").replace("net_latency", "net_latencey")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="net_latencey"):
        load_spec_file(path)


def test_impossible_axis_value_fails_at_load(tmp_path, monkeypatch):
    """Every grid point is resolved at load, not only each axis's first
    value: a negative latency later in the list names the file."""
    doc = TINY_SWEEP.format(id="bad-latency").replace("[0, 50]", "[0, -50]")
    path = _write(tmp_path, "bad.yaml", doc)
    monkeypatch.setenv("REPRO_SPECS_DIR", str(tmp_path))
    with pytest.raises(
        SpecError, match=f"{path}: network_latency must be >= 0, got -50"
    ):
        load_spec("bad-latency")


def test_invalid_yaml_syntax_names_the_file(tmp_path):
    path = _write(tmp_path, "t.yaml", "kind: [unclosed\n")
    with pytest.raises(SpecError, match="invalid YAML"):
        load_spec_file(path)
    with pytest.raises(SpecError, match="t.yaml"):
        load_spec_file(path)


def test_non_mapping_document_rejected(tmp_path):
    path = _write(tmp_path, "t.yaml", "- just\n- a list\n")
    with pytest.raises(SpecError, match="must be a YAML mapping"):
        load_spec_file(path)


def test_missing_required_key_named(tmp_path):
    doc = "\n".join(
        line for line in TINY_SWEEP.format(id="t").splitlines()
        if not line.startswith("id:")
    )
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="missing required key 'id'"):
        load_spec_file(path)


def test_empty_axes_rejected(tmp_path):
    doc = TINY_SWEEP.format(id="t")
    doc = doc[: doc.index("axes:")] + "axes: []\nmetrics: [mp_total]\n"
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError, match="'axes' must be a non-empty list"):
        load_spec_file(path)


def test_bad_override_key_suggests(tmp_path):
    doc = TINY_SWEEP.format(id="t").replace("procs: 2", "prcs: 2")
    path = _write(tmp_path, "t.yaml", doc)
    with pytest.raises(SpecError):
        load_spec_file(path)


# ---------------------------------------------------------------------------
# Discovery and the search path.
# ---------------------------------------------------------------------------


def test_duplicate_id_within_one_directory_errors(tmp_path, monkeypatch):
    _write(tmp_path, "a.yaml", TINY_SWEEP.format(id="dup"))
    _write(tmp_path, "b.yaml", TINY_SWEEP.format(id="dup"))
    monkeypatch.setenv("REPRO_SPECS_DIR", str(tmp_path))
    with pytest.raises(SpecError, match="duplicate spec id 'dup'"):
        discovered_sweeps()


def test_user_dir_shadows_shipped_spec(tmp_path, monkeypatch):
    _write(tmp_path, "mine.yaml", TINY_SWEEP.format(id="em3d-latency"))
    monkeypatch.setenv("REPRO_SPECS_DIR", str(tmp_path))
    spec = discovered_sweeps()["em3d-latency"]
    assert spec.description == "tiny"
    assert spec.axes == (("net_latency", (0, 50)),)


def test_user_dir_adds_new_spec(tmp_path, monkeypatch):
    _write(tmp_path, "mine.yaml", TINY_SWEEP.format(id="my-sweep"))
    monkeypatch.setenv("REPRO_SPECS_DIR", str(tmp_path))
    sweeps = discovered_sweeps()
    assert "my-sweep" in sweeps
    assert "em3d-latency" in sweeps  # shipped specs still visible


def test_list_specs_covers_all_shipped_ids():
    ids = {(info.kind, info.id) for info in list_specs()}
    assert {
        ("sweep", "em3d-latency"),
        ("sweep", "em3d-cache"),
        ("sweep", "em3d-modern"),
        ("sweep", "gauss-speedup"),
        ("experiment", "em3d-small"),
        ("experiment", "em3d-multicore"),
        ("experiment", "em3d-cluster"),
        ("experiment", "gauss-n64"),
    } <= ids


# ---------------------------------------------------------------------------
# Resolution: ids, paths, globs.
# ---------------------------------------------------------------------------


def test_load_spec_by_id_and_by_path_agree(tmp_path):
    path = _write(tmp_path, "t.yaml", TINY_SWEEP.format(id="t"))
    by_path = load_spec(str(path))
    assert by_path.name == "t"
    assert load_spec("em3d-latency") == discovered_sweeps()["em3d-latency"]


def test_load_spec_unknown_ref_suggests():
    with pytest.raises(SpecError, match="unknown spec 'em3d-latencey'.*did you mean 'em3d-latency'"):
        load_spec("em3d-latencey")


def test_load_spec_missing_path_errors():
    with pytest.raises(SpecError, match="no spec file at"):
        load_spec("no/such/file.yaml")


def test_load_sweep_rejects_experiment_specs():
    with pytest.raises(SpecError, match="experiment spec, not a sweep"):
        load_sweep("em3d-small")


def test_get_sweep_typo_matches_cli_contract():
    with pytest.raises(ValueError) as excinfo:
        get_sweep("em3d-latencyy")
    message = str(excinfo.value)
    assert "did you mean 'em3d-latency'" in message
    assert "available:" in message


def test_expand_glob_falls_back_to_shipped_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no ./specs here; fallback anchor kicks in
    paths = expand_glob("specs/sweeps/em3d-*.yaml")
    names = {p.stem for p in paths}
    assert {"em3d-latency", "em3d-cache", "em3d-modern"} <= names


def test_expand_glob_no_match_returns_empty():
    assert expand_glob("specs/sweeps/zzz-nothing-*.yaml") == []
