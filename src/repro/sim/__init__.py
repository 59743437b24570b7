"""Discrete-event simulation kernel.

This package is the reproduction's substitute for the Wisconsin Wind
Tunnel: a deterministic, process-oriented discrete-event simulator.
Simulated processors are Python generators that yield primitive commands
(``Delay``, ``Wait``; see :mod:`repro.sim.process`) to the kernel;
everything above that — memory accesses, network-interface operations,
barriers, locks — is built as generator subroutines in the machine
packages.
"""
