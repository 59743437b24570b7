"""SweepSpec validation, axis replacement, and grid expansion."""

import pytest

from repro.sweep.spec import SweepSpec


def _spec(**kwargs):
    defaults = dict(
        name="t",
        exp_id="em3d",
        axes=(("net_latency", (0, 50)),),
        metrics=("sm_over_mp",),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_spec_validates_axis_count():
    with pytest.raises(ValueError, match="one or two axes"):
        _spec(axes=())
    with pytest.raises(ValueError, match="one or two axes"):
        _spec(axes=(("a", (1,)), ("b", (1,)), ("c", (1,))))


def test_spec_rejects_empty_axis_and_missing_metrics():
    with pytest.raises(ValueError, match="axis 'x' is empty"):
        _spec(axes=(("x", ()),))
    with pytest.raises(ValueError, match="no metrics"):
        _spec(metrics=())


def test_with_axes_replaces_in_place_and_appends():
    spec = _spec(axes=(("net_latency", (0, 50)),))
    widened = spec.with_axes({"net_latency": (0, 100, 200)})
    assert widened.axes == (("net_latency", (0, 100, 200)),)
    two = spec.with_axes({"cache_kb": (4, 16)})
    assert two.axes == (
        ("net_latency", (0, 50)),
        ("cache_kb", (4, 16)),
    )
    assert spec.with_axes(None) is spec


def test_grid_1d_order_and_overrides():
    spec = _spec(
        axes=(("net_latency", (0, 50)),),
        base_overrides={"procs": 4},
    )
    points = spec.grid()
    assert [p.coords for p in points] == [
        {"net_latency": 0},
        {"net_latency": 50},
    ]
    assert points[0].overrides == {
        "procs": 4,
        "machine": {"network_latency": 0},
    }


def test_grid_2d_row_major_first_axis_outermost():
    spec = _spec(axes=(("net_latency", (0, 50)), ("cache_kb", (4, 8))))
    points = spec.grid()
    assert [p.coords for p in points] == [
        {"net_latency": 0, "cache_kb": 4},
        {"net_latency": 0, "cache_kb": 8},
        {"net_latency": 50, "cache_kb": 4},
        {"net_latency": 50, "cache_kb": 8},
    ]
    assert points[0].overrides == {
        "machine": {"network_latency": 0},
        "cache_bytes": 4096,
    }


def test_grid_refuses_a_second_axis_on_a_checked_spec():
    """Shape checks read one series along one axis, so a checked spec
    takes no second axis; the points still resolve first."""
    spec = _spec(checks=lambda result: [])
    with pytest.raises(ValueError, match=(
        r"sweep 't' has checks, which need a one-axis sweep; "
        r"got axes \['net_latency', 'cache_kb'\]"
    )):
        spec.with_axes({"cache_kb": (4, 8)}).grid()
    with pytest.raises(ValueError, match="did you mean"):
        spec.with_axes({"cache_kbb": (4,)}).grid()


def test_grid_rejects_unknown_axis_before_any_simulation():
    spec = _spec(axes=(("network_latncy", (0,)),))
    with pytest.raises(ValueError, match="did you mean"):
        spec.grid()


def test_point_label():
    spec = _spec()
    point = spec.grid()[0]
    assert point.label() == "net_latency=0"


def test_grid_key_stable_and_sensitive():
    spec = _spec()
    assert spec.grid_key() == _spec().grid_key()
    assert spec.grid_key() != spec.with_axes({"net_latency": (0,)}).grid_key()
    assert spec.grid_key() != _spec(base_overrides={"procs": 2}).grid_key()
    # The checks callable is behavioural, not identity: same grid.
    assert spec.grid_key() == _spec(checks=lambda r: []).grid_key()
