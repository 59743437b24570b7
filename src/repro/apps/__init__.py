"""The paper's four application pairs.

Each application has a machine-independent numeric core (``common``)
plus a message-passing and a shared-memory program built on the same
algorithm — the paper's methodology for comparable measurements. The
app's frozen workload config (``MseConfig``, ``GaussConfig``, ...)
lives in the app package itself, which imports nothing else, so the
experiment registry builds configs without loading numpy or the
simulator:

* :mod:`repro.apps.mse` — microstructure electrostatics (boundary
  integral, asynchronous Jacobi with an interaction schedule);
* :mod:`repro.apps.gauss` — Gaussian elimination with partial pivoting
  (software reductions and broadcasts);
* :mod:`repro.apps.em3d` — electromagnetic wave propagation on a
  bipartite E/H graph (producer-consumer communication);
* :mod:`repro.apps.lcp` — linear complementarity by multi-sweep SOR
  (synchronous and asynchronous variants).
"""
