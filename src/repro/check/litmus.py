"""Litmus tests: the memory-model oracle for the SM machine.

The simulated shared-memory machine is sequentially consistent by
default — one numpy array backs each region and the Dir_nNB protocol
invalidates every copy before a write completes — and the paper's cycle
attribution assumes exactly that. These tests pin the property: each
classic litmus shape (message passing, store buffering, IRIW, coherence
order, ...) runs as a real multi-processor program on the real machine,
many times under different per-operation timing jitter, and its
*forbidden* outcome must never appear. A future change that reorders
protocol completion against memory update would surface here first.

With the relaxed models (``consistency="tso"|"pc"``, see
:mod:`repro.sm.relaxed`) the suite becomes a **model × shape verdict
matrix**: each shape declares, via ``permitted_under``, which models
permit its relaxed outcome, and :func:`run_litmus` asserts *both*
directions — a forbidden outcome must never be observed, and a
permitted outcome must actually show up within a seed budget. The
matrix is what distinguishes the models behaviorally:

========================  ====  ====  ====
shape                      sc    tso   pc
========================  ====  ====  ====
mp_message_passing        forb  forb  PERM
sb_store_buffering        forb  PERM  PERM
lb_load_buffering         forb  forb  forb
iriw_independent_reads    forb  forb  forb
corr_coherent_read_read   forb  forb  forb
coww_coherent_write_write forb  forb  forb
w2plus2_write_serialization forb forb PERM
wrc_write_read_causality  forb  forb  forb
rmw_atomicity             forb  forb  forb
========================  ====  ====  ====

Grounding: loads block in program order on this machine, so LB never
relaxes; commits are single memory-write instants serialized by the
directory, so IRIW/WRC (store atomicity) hold everywhere; the store
buffer is per-location FIFO under both relaxed models, so CoRR/CoWW
hold; atomics fence, so RMW holds. TSO's FIFO drain preserves MP and
2+2W but permits SB (both stores parked while both loads run); PC's
cross-location commit jitter additionally permits MP and 2+2W.

The DSL is four operation types — :class:`St`, :class:`Ld`,
:class:`Pause`, :class:`CasInc` — composed into one program (a tuple of
operations) per processor:

    MP = LitmusTest(
        name="mp_message_passing",
        programs=(
            (St("x", 1), St("y", 1)),            # producer
            (Ld("y", "r0"), Ld("x", "r1")),      # consumer
        ),
        forbidden=lambda o: o["1:r0"] == 1 and o["1:r1"] == 0,
    )

Each variable becomes its own one-block shared region; loads record
``"pid:reg"`` entries in the outcome, and final memory is exposed as
``"mem:var"``. ``run_litmus`` executes the shape once per seed with
deterministic per-(processor, op) delays drawn from the seed, asserts
``forbidden`` never holds, and returns the histogram of observed
outcomes. Runs execute under an installed :class:`~repro.check.Checker`
(reusing the active one if any), so every litmus execution also
exercises the SWMR/agreement/oracle monitors.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro import check
from repro.arch.params import MEMORY_MODELS, MachineParams
from repro.check.errors import CheckError
from repro.sim import installed
from repro.sm.machine import SmMachine


@dataclass(frozen=True)
class St:
    """Store ``value`` to variable ``var``."""

    var: str
    value: int


@dataclass(frozen=True)
class Ld:
    """Load variable ``var`` into outcome register ``reg``."""

    var: str
    reg: str


@dataclass(frozen=True)
class Pause:
    """Compute for a fixed number of cycles (shapes timing windows)."""

    cycles: int = 50


@dataclass(frozen=True)
class CasInc:
    """Atomically increment ``var`` ``times`` times via a CAS loop."""

    var: str
    times: int = 1


Op = Union[St, Ld, Pause, CasInc]
Outcome = Dict[str, int]


@dataclass(frozen=True)
class LitmusTest:
    """One litmus shape: per-processor programs plus the SC-forbidden outcome.

    ``permitted_under`` lists the memory models under which the shape's
    "forbidden" outcome is in fact allowed (and must be *observable* —
    :func:`run_litmus` checks both directions). Empty means the outcome
    is forbidden under every model the machine implements.
    """

    name: str
    programs: Tuple[Tuple[Op, ...], ...]
    forbidden: Callable[[Outcome], bool]
    description: str = ""
    permitted_under: Tuple[str, ...] = ()

    @property
    def nprocs(self) -> int:
        return len(self.programs)

    def variables(self) -> Tuple[str, ...]:
        seen = []
        for program in self.programs:
            for op in program:
                var = getattr(op, "var", None)
                if var is not None and var not in seen:
                    seen.append(var)
        return tuple(seen)


#: Maximum jitter inserted before each operation, in cycles. Spans the
#: machine's interesting reorder window: network latency is 100 cycles,
#: so delays in [0, 120] move operations across transaction boundaries.
MAX_JITTER_CYCLES = 120

#: Relaxed runs keep the same op window: the races that distinguish the
#: models come from the store buffer's own residency draws (see
#: ``PC_DRAIN_BANDS``), not from sliding the operations further — a
#: wider window would delay the producer's two ops more than the
#: consumer's one, systematically hiding the commit-vs-load races.

DEFAULT_SEEDS: Tuple[int, ...] = tuple(range(6))


def _jitter(seed: int, nprocs: int, lengths: Sequence[int]) -> list:
    """Deterministic per-(processor, op) delays for one execution."""
    rng = random.Random(seed)
    return [
        [rng.randrange(MAX_JITTER_CYCLES + 1) for _ in range(length)]
        for length in lengths
    ]


def _litmus_program(ctx, test: LitmusTest, regions: Dict[str, object],
                    delays: list, outcome: Outcome):
    ops = test.programs[ctx.pid]
    my_delays = delays[ctx.pid]
    for i, op in enumerate(ops):
        if my_delays[i]:
            yield from ctx.compute(my_delays[i])
        if isinstance(op, St):
            yield from ctx.write(
                regions[op.var], 0, values=np.array([float(op.value)])
            )
        elif isinstance(op, Ld):
            values = yield from ctx.read(regions[op.var], 0, 1)
            outcome[f"{ctx.pid}:{op.reg}"] = int(values[0].item())
        elif isinstance(op, CasInc):
            region = regions[op.var]
            for _ in range(op.times):
                while True:
                    current = yield from ctx.read(region, 0, 1)
                    current = int(current[0].item())
                    swapped = yield from ctx.atomic_cas(
                        region, 0, current, current + 1
                    )
                    if swapped:
                        break
        elif isinstance(op, Pause):
            yield from ctx.compute(op.cycles)
        else:
            raise TypeError(f"unknown litmus op {op!r}")


def _run_once(
    test: LitmusTest,
    seed: int,
    backend: str = "batched",
    consistency: str = "sc",
) -> Outcome:
    machine = SmMachine(
        MachineParams.paper(num_processors=test.nprocs),
        seed=1994 + seed,
        backend=backend,
        consistency=consistency,
    )
    regions = {}
    for var in test.variables():
        # One 4-element float64 row: exactly one 32-byte cache block, so
        # distinct variables never share a line.
        region = machine.space.alloc_shared(
            f"lit.{var}", owner=0, shape=4, dtype=np.float64, fill=0.0
        )
        machine.index_region(region)
        regions[var] = region
    delays = _jitter(seed, test.nprocs, [len(p) for p in test.programs])
    outcome: Outcome = {}
    machine.run(_litmus_program, test, regions, delays, outcome)
    for var, region in regions.items():
        outcome[f"mem:{var}"] = int(region.np.reshape(-1)[0])
    return outcome


#: Total seeded runs a *permitted* relaxed outcome gets to show itself
#: in before run_litmus declares the model unable to produce it. The
#: default 6-seed pass extends deterministically (seeds 0, 1, 2, ...)
#: up to this many runs, stopping at the first observation.
OBSERVE_SEED_BUDGET = 48


def run_litmus(
    test: LitmusTest,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    check_invariants: bool = True,
    backend: str = "batched",
    consistency: str = "sc",
    observe_budget: int = OBSERVE_SEED_BUDGET,
) -> Counter:
    """Run one shape across ``seeds``; returns the outcome histogram.

    Asserts the model × shape verdict in both directions. If
    ``consistency`` is *not* in the shape's ``permitted_under``, a
    :class:`CheckError` is raised the moment the relaxed outcome is
    observed (or any runtime invariant trips mid-run). If it *is*
    permitted, the relaxed outcome must be observed — the seed pool is
    extended deterministically up to ``observe_budget`` total runs, and
    never seeing it raises too (a model that cannot exhibit its own
    relaxations is mislabeled or broken). ``backend`` selects the
    execution backend — the differential suite runs the shapes under
    both to show the verdicts hold identically.
    """
    if consistency not in MEMORY_MODELS:
        raise ValueError(
            f"unknown consistency {consistency!r}; "
            f"known: {list(MEMORY_MODELS)}"
        )
    mislabeled = set(test.permitted_under) - set(MEMORY_MODELS)
    if mislabeled:
        raise CheckError(
            "litmus",
            f"{test.name}: permitted_under names unknown model(s) "
            f"{sorted(mislabeled)}; known: {list(MEMORY_MODELS)}",
        )
    permitted = consistency in test.permitted_under
    observed: Counter = Counter()
    relaxed_seen = 0

    def observe(seed: int) -> bool:
        nonlocal relaxed_seen
        if check_invariants and installed(check.Checker) is None:
            with check.checking():
                outcome = _run_once(
                    test, seed, backend=backend, consistency=consistency
                )
        else:
            outcome = _run_once(
                test, seed, backend=backend, consistency=consistency
            )
        if test.forbidden(outcome):
            if not permitted:
                raise CheckError(
                    "litmus",
                    f"{test.name}: forbidden outcome {outcome} under seed "
                    f"{seed} (consistency={consistency})",
                )
            relaxed_seen += 1
        observed[tuple(sorted(outcome.items()))] += 1
        return relaxed_seen > 0

    for seed in seeds:
        observe(seed)
    if permitted and not relaxed_seen:
        tried = set(seeds)
        for seed in range(observe_budget):
            if seed in tried:
                continue
            if len(tried) >= observe_budget:
                break
            tried.add(seed)
            if observe(seed):
                break
        if not relaxed_seen:
            raise CheckError(
                "litmus",
                f"{test.name}: relaxed outcome is permitted under "
                f"{consistency} but was never observed in "
                f"{sum(observed.values())} seeded runs",
            )
    return observed


def run_suite(
    tests: Sequence[LitmusTest] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    backend: str = "batched",
    consistency: str = "sc",
) -> Dict[str, Counter]:
    """Run every shape under one model; returns ``{name: histogram}``."""
    results = {}
    for test in LITMUS_TESTS if tests is None else tests:
        results[test.name] = run_litmus(
            test, seeds=seeds, backend=backend, consistency=consistency
        )
    return results


def run_matrix(
    tests: Sequence[LitmusTest] = None,
    models: Sequence[str] = MEMORY_MODELS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    backend: str = "batched",
    observe_budget: int = OBSERVE_SEED_BUDGET,
) -> List[Dict[str, Any]]:
    """The full model × shape verdict matrix, one record per cell.

    Each record carries the expected verdict (``"permitted"`` /
    ``"forbidden"``), the number of runs, the number of distinct
    outcomes, and how often the relaxed outcome was observed. Any cell
    whose behavior contradicts its label raises :class:`CheckError`
    inside :func:`run_litmus` — a completed matrix *is* the regression
    gate.
    """
    rows: List[Dict[str, Any]] = []
    for model in models:
        for test in LITMUS_TESTS if tests is None else tests:
            observed = run_litmus(
                test,
                seeds=seeds,
                backend=backend,
                consistency=model,
                observe_budget=observe_budget,
            )
            relaxed = sum(
                n
                for outcome, n in observed.items()
                if test.forbidden(dict(outcome))
            )
            rows.append(
                {
                    "model": model,
                    "test": test.name,
                    "expected": (
                        "permitted"
                        if model in test.permitted_under
                        else "forbidden"
                    ),
                    "runs": sum(observed.values()),
                    "distinct_outcomes": len(observed),
                    "relaxed_observed": relaxed,
                }
            )
    return rows


#: Increments per processor in the RMW-atomicity shape.
_RMW_INCREMENTS = 8

LITMUS_TESTS: Tuple[LitmusTest, ...] = (
    LitmusTest(
        name="mp_message_passing",
        programs=(
            (St("x", 1), St("y", 1)),
            (Ld("y", "r0"), Ld("x", "r1")),
        ),
        forbidden=lambda o: o["1:r0"] == 1 and o["1:r1"] == 0,
        description="Seeing the flag (y) implies seeing the data (x).",
        # TSO's FIFO drain commits x before y; only PC's cross-location
        # commit reorder lets the flag overtake the data.
        permitted_under=("pc",),
    ),
    LitmusTest(
        name="sb_store_buffering",
        programs=(
            (St("x", 1), Ld("y", "r0")),
            (St("y", 1), Ld("x", "r1")),
        ),
        forbidden=lambda o: o["0:r0"] == 0 and o["1:r1"] == 0,
        description="Both processors cannot miss each other's store "
        "(the signature relaxation of any store buffer).",
        # Both stores park in their buffers while both loads run: the
        # defining observable of TSO, inherited by PC.
        permitted_under=("tso", "pc"),
    ),
    LitmusTest(
        name="lb_load_buffering",
        programs=(
            (Ld("x", "r0"), St("y", 1)),
            (Ld("y", "r1"), St("x", 1)),
        ),
        forbidden=lambda o: o["0:r0"] == 1 and o["1:r1"] == 1,
        description="Loads cannot observe stores that are program-order "
        "after the loads that would justify them.",
    ),
    LitmusTest(
        name="iriw_independent_reads",
        programs=(
            (St("x", 1),),
            (St("y", 1),),
            (Ld("x", "r0"), Ld("y", "r1")),
            (Ld("y", "r2"), Ld("x", "r3")),
        ),
        forbidden=lambda o: (
            o["2:r0"] == 1
            and o["2:r1"] == 0
            and o["3:r2"] == 1
            and o["3:r3"] == 0
        ),
        description="Two readers cannot disagree on the order of two "
        "independent writes (write atomicity).",
    ),
    LitmusTest(
        name="corr_coherent_read_read",
        programs=(
            (St("x", 1),),
            (Ld("x", "r0"), Ld("x", "r1")),
        ),
        forbidden=lambda o: o["1:r0"] == 1 and o["1:r1"] == 0,
        description="Per-location coherence: a later read of x cannot go "
        "back in time.",
    ),
    LitmusTest(
        name="coww_coherent_write_write",
        programs=(
            (St("x", 1), St("x", 2)),
            (Ld("x", "r0"), Pause(30), Ld("x", "r1")),
        ),
        forbidden=lambda o: (
            (o["1:r0"] == 2 and o["1:r1"] == 1) or o["mem:x"] != 2
        ),
        description="Same-location stores serialize in program order; the "
        "second store must win.",
    ),
    LitmusTest(
        name="w2plus2_write_serialization",
        programs=(
            (St("x", 1), St("y", 2)),
            (St("y", 1), St("x", 2)),
        ),
        forbidden=lambda o: o["mem:x"] == 1 and o["mem:y"] == 1,
        description="2+2W: the two first-writes cannot both finish last.",
        # Under FIFO drains the four commits cannot form the required
        # cycle (x1<y2, y1<x2, x2<x1, y2<y1); PC's per-entry jitter can.
        permitted_under=("pc",),
    ),
    LitmusTest(
        name="wrc_write_read_causality",
        programs=(
            (St("x", 1),),
            (Ld("x", "r0"), St("y", 1)),
            (Ld("y", "r1"), Ld("x", "r2")),
        ),
        forbidden=lambda o: (
            o["1:r0"] == 1 and o["2:r1"] == 1 and o["2:r2"] == 0
        ),
        description="Causality through an intermediate processor: reading "
        "y=1 implies the write of x is visible.",
    ),
    LitmusTest(
        name="rmw_atomicity",
        programs=(
            (CasInc("x", _RMW_INCREMENTS),),
            (CasInc("x", _RMW_INCREMENTS),),
        ),
        forbidden=lambda o: o["mem:x"] != 2 * _RMW_INCREMENTS,
        description="CAS-loop increments never lose updates.",
    ),
)
