"""repro — reproduction of "Where is Time Spent in Message-Passing and
Shared-Memory Programs?" (Chandra, Larus, Rogers; ASPLOS 1994).

Public surface (each name lives in the module given):

* machines: :class:`repro.mp.machine.MpMachine` (CM-5-like message
  passing) and :class:`repro.sm.machine.SmMachine` (Dir_nNB
  cache-coherent shared memory);
* hardware configuration: :class:`repro.arch.params.MachineParams`
  (the paper's Tables 1-3);
* applications: :mod:`repro.apps` (MSE, Gauss, EM3D, LCP — each as an
  MP/SM pair, with its workload config in the app's package);
* the comparative study harness: :mod:`repro.core.study` (pair
  results), :mod:`repro.core.breakdown` (breakdowns and counts) and
  :mod:`repro.core.experiments` (the registry covering every table and
  figure of the paper's evaluation);
* the run harness: :mod:`repro.runner` (parameterized configs, a
  content-addressed on-disk result cache, and a multiprocessing
  executor behind ``python -m repro run --jobs N``);
* sensitivity sweeps: :mod:`repro.sweep` (declarative grids over
  latency/cache/procs axes with machine-checked curve shapes);
* the stable programmatic facade: :mod:`repro.api` — import from
  there, not from the implementing modules.

``from repro import MachineParams, MpMachine, SmMachine`` still works:
those three names load on first use, so importing :mod:`repro.api` or
the CLI does not load numpy or the simulator.

Quick taste::

    from repro import api
    pair = api.run_raw("gauss")
    print(f"Gauss-MP runs at {100 * pair.mp_relative_to_sm:.0f}% of Gauss-SM")
    result = api.sweep("em3d-latency")

or, from a shell::

    python -m repro list
    python -m repro run em3d --jobs 4
    python -m repro sweep em3d-latency
    python -m repro cache ls
"""

__version__ = "1.0.0"

#: The lazily loaded top-level names, and the modules that define them.
_LAZY = {
    "MachineParams": "repro.arch.params",
    "MpMachine": "repro.mp.machine",
    "SmMachine": "repro.sm.machine",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["MachineParams", "MpMachine", "SmMachine", "__version__"]
