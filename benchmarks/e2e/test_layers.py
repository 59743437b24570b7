"""The module -> layer map covers the source tree exactly."""

from collections import Counter
from pathlib import Path

from benchmarks.e2e.layers import LAYERS, MODULES, Classifier, fold, repro_modules

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_repro_module_maps_to_exactly_one_layer():
    listed = Counter(module for modules in MODULES.values() for module in modules)
    assert [m for m, n in listed.items() if n > 1] == []
    found = set(repro_modules(str(PACKAGE)))
    assert sorted(found - set(listed)) == [], "modules with no layer"
    assert sorted(set(listed) - found) == [], "layer map lists missing modules"


def test_fold_attributes_self_time_and_calls_to_layers():
    classify = Classifier(str(PACKAGE))
    stats = {
        (str(PACKAGE / "sim" / "engine.py"), 1, "run"): (3, 3, 0.5, 0.9, {}),
        (str(PACKAGE / "sm" / "directory.py"), 1, "request"): (2, 4, 0.25, 0.25, {}),
        (str(PACKAGE / "__init__.py"), 1, "<module>"): (1, 1, 0.125, 0.125, {}),
        ("~", 0, "<method 'acquire' of '_thread.lock' objects>"): (2, 2, 1.0, 1.0, {}),
        ("~", 0, "<built-in method numpy.asarray>"): (5, 5, 0.0625, 0.0625, {}),
        ("~", 0, "<built-in method builtins.len>"): (7, 7, 0.03125, 0.03125, {}),
        ("/usr/lib/python3/json/decoder.py", 10, "decode"): (1, 1, 0.5, 0.5, {}),
        ("/usr/lib/python3/multiprocessing/resource_tracker.py", 9, "main"): (1, 1, 2.0, 2.0, {}),
    }
    layers = fold(stats, classify)
    assert set(layers) == set(LAYERS)
    assert layers["sim.engine"] == {"self_s": 0.5, "calls": 3}
    assert layers["sm.directory"] == {"self_s": 0.25, "calls": 4}
    assert layers["runner"] == {"self_s": 0.125, "calls": 1}
    assert layers["wait"] == {"self_s": 3.0, "calls": 3}
    assert layers["numpy"] == {"self_s": 0.0625, "calls": 5}
    assert layers["builtins"] == {"self_s": 0.03125, "calls": 7}
    assert layers["other"] == {"self_s": 0.5, "calls": 1}
    assert sum(row["self_s"] for row in layers.values()) == 4.46875
