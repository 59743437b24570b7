"""The simulated message-passing machine (CM-5-like).

Programs on this machine access a memory-mapped network interface with
20-byte packets (paper Table 2) directly, or through the re-implemented
active-message layer (:mod:`repro.mp.active_messages`), the CMMD-style
channel library (:mod:`repro.mp.cmmd`), and software collective trees
(:mod:`repro.mp.collectives`).
"""
