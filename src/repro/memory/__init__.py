"""Simulated memory regions backed by real numpy arrays.

Applications in this reproduction compute on real data. A
:class:`~repro.memory.dataspace.Region` couples a numpy array with a
simulated address range so that every access both (a)
produces/consumes real values and (b) drives the cache, TLB, and
coherence-protocol simulation at cache-block granularity.
"""
