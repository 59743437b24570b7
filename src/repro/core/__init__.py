"""The paper's core contribution: the comparative measurement study.

``repro.core`` packages the methodology — equal-algorithm program pairs
on two machines with a common hardware base, a time-breakdown taxonomy,
and per-processor event counts — into a reusable harness:

* :mod:`repro.core.breakdown` — the MP and SM breakdown/count records;
* :mod:`repro.core.study` — run a program pair, produce a PairResult;
* :mod:`repro.core.experiments` — the registry mapping every table and
  figure of the paper's evaluation to a runnable configuration;
* :mod:`repro.core.tables` — paper-style rendering.

Execution (parallel workers, the on-disk result cache, serializable
run records) lives in :mod:`repro.runner`. Import from the submodules:
this package re-exports nothing, so loading the registry does not load
the simulator.
"""
