"""Cycle-category accounting and paper-style reporting.

Every simulated processor carries a
:class:`~repro.stats.collector.ProcStats`: cycle counts per
category (the rows of the paper's time-breakdown tables), event counters
(the rows of its event-count tables), and phase totals (the
initialization / main-loop split of the EM3D tables and the
broadcast/reduction grouping of the Gauss table).
"""
