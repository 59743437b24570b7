"""Common hardware model shared by both simulated machines.

Transcribes the paper's Tables 1 (common hardware), 2 (message-passing
machine), and 3 (shared-memory machine), and provides the structural
models — set-associative cache, FIFO TLB, write buffer — that both
machines are built from.
"""
