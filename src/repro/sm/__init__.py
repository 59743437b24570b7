"""The simulated cache-coherent shared-memory machine.

Implements the full-map, write-invalidate ``Dir_nNB`` protocol (Agarwal
et al.) on the common hardware base: every node's memory is globally
addressable, a per-node directory keeps a full sharer map for its local
blocks, and misses/upgrades travel as request-response protocol
messages with the cycle costs of paper Table 3. Synchronization comes
from the hardware barrier, an atomic swap/compare-and-swap, MCS queue
locks, and MCS-style combining reductions — all implemented *on top of*
the simulated shared memory so their protocol traffic is paid for.
"""
