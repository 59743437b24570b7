"""Experiment registry: every table and figure of the paper's evaluation.

Each :class:`ExperimentSpec` names the paper tables it regenerates,
carries the paper's reported values (for EXPERIMENTS.md and the shape
checks), a default :class:`~repro.runner.config.ExperimentConfig`, and
a runner. Runners are **top-level functions of an explicit config** —
parameterizable, and declaring the machine simulations (:class:`Side`)
they read — so the :mod:`repro.runner` harness can simulate each
distinct side once, in worker processes, sweep runners with overrides,
and cache their results content-addressed on disk.

The stable programmatic surface is :mod:`repro.api`
(``run_raw``/``record_for``/``execute``/``sweep``);
``python -m repro run`` goes through the full harness.

Loading the registry loads no simulator: each side imports its app
program and machine when it first runs, so listing experiments,
resolving configs and serving cached records never load numpy.

Scale: the paper's runs are hundreds of millions to billions of target
cycles on 32 processors; a pure-Python event simulation reproduces
*fractions and ratios*, which are scale-stable, at workloads a few
hundred times smaller (see DESIGN.md section 2.8). Cache sizes are
scaled with the working sets so that capacity effects (EM3D Tables
16/17) keep the paper's geometry.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.apps.em3d import Em3dConfig
from repro.apps.gauss import GaussConfig
from repro.apps.lcp import LcpConfig
from repro.apps.mse import MseConfig
from repro.core.study import PairResult
from repro.runner.config import ExperimentConfig, jsonable, unknown

if TYPE_CHECKING:  # annotations only: the registry loads no simulator
    from repro.mp.machine import MpMachine
    from repro.sm.machine import SmMachine

#: A shape check: (description, passed, detail-string).
ShapeCheck = Tuple[str, bool, str]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment from the paper's evaluation."""

    id: str
    title: str
    paper_tables: str
    description: str
    runner: Callable[[ExperimentConfig], Any]
    config: ExperimentConfig
    #: The shape checks: ``shape(result, *baselines)``, with one
    #: baseline raw result per ``after`` entry.
    shape: Callable[..., List[ShapeCheck]]
    paper: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    #: Baselines this experiment's shape checks compare against, run on
    #: this run's backend, memory model and preset
    #: (:func:`repro.runner.api.baselines`); the runner simulates their
    #: sides with this experiment's and passes their raw results to
    #: ``shape``.
    after: Tuple[str, ...] = ()
    #: Check names that pin claims specific to the paper's 1994 machine
    #: (latency/overhead ratios that legitimately flip under the modern
    #: presets). Waived — recorded as passing with a "waived" detail —
    #: when the run's ``preset`` is not ``"paper"``.
    paper_only: Tuple[str, ...] = ()
    #: The fewest processors the experiment runs on; a config below it
    #: is refused where it is resolved (:func:`check_runnable`).
    min_procs: int = 1


def get_experiment(exp_id: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(str(unknown("experiment", exp_id, EXPERIMENTS))) from None


# ---------------------------------------------------------------------------
# Scaled workload configurations (see module docstring).
# ---------------------------------------------------------------------------

_SEED = 1994

# The paper's MSE working set slightly exceeds what its 256 KB cache
# holds comfortably (local misses are 4-5% of time, and private misses
# dwarf the schedule-driven shared misses). 8 KB against this scaled
# run's ~8 KB of positions + vectors keeps both properties.
MSE_CONFIG = ExperimentConfig(
    exp_id="mse",
    procs=8,
    seed=_SEED,
    cache_bytes=8 * 1024,
    app=MseConfig(bodies=32, elements_per_body=6, iterations=8, seed=_SEED),
)

GAUSS_CONFIG = ExperimentConfig(
    exp_id="gauss", procs=8, seed=_SEED, app=GaussConfig(n=224, seed=_SEED)
)

# The strategy study uses more processors than the breakdown runs: the
# lop-sided tree's advantage over a binary tree grows with the machine
# (the paper ran 32 processors).
GAUSS_COLLECTIVES_CONFIG = ExperimentConfig(
    exp_id="gauss_collectives",
    procs=16,
    seed=_SEED,
    app=GaussConfig(n=96, seed=_SEED),
    options=(("strategies", ("flat", "binary", "lopsided")),),
)

GAUSS_CONTENTION_CONFIG = ExperimentConfig(
    exp_id="gauss_contention",
    procs=16,
    seed=_SEED,
    app=GaussConfig(n=96, seed=_SEED),
    options=(("proc_counts", (4, 8, 16)),),
)

EM3D_CACHE = 16 * 1024  # ~2/3 of the per-processor working set (paper: ~45%)
EM3D_BIG_CACHE = 4 * EM3D_CACHE  # the paper's 256KB -> 1MB step
_EM3D_APP = Em3dConfig(
    nodes_per_proc=100, degree=6, remote_frac=0.20, iterations=6, seed=_SEED
)

EM3D_CONFIG = ExperimentConfig(
    exp_id="em3d", procs=8, seed=_SEED, cache_bytes=EM3D_CACHE, app=_EM3D_APP
)
EM3D_BIGCACHE_CONFIG = ExperimentConfig(
    exp_id="em3d_bigcache",
    procs=8,
    seed=_SEED,
    cache_bytes=EM3D_BIG_CACHE,
    app=_EM3D_APP,
)
EM3D_LOCALALLOC_CONFIG = ExperimentConfig(
    exp_id="em3d_localalloc",
    procs=8,
    seed=_SEED,
    cache_bytes=EM3D_CACHE,
    app=_EM3D_APP,
    options=(("policy", "local"),),  # HomePolicy.LOCAL
)
EM3D_PROTOCOLS_CONFIG = ExperimentConfig(
    exp_id="em3d_protocols",
    procs=8,
    seed=_SEED,
    cache_bytes=EM3D_CACHE,
    app=_EM3D_APP,
    options=(("variants", ("base", "flush", "update")),),
)

# band/stride chosen so rows couple across block boundaries the way the
# paper's matrices evidently did: the asynchronous variant's extra
# traffic (paper Table 23: 4.7x) needs real cross-processor reuse.
_LCP_APP = LcpConfig(n=256, band=6, stride_couples=2, tolerance=1e-7, seed=_SEED)

LCP_CONFIG = ExperimentConfig(
    exp_id="lcp", procs=8, seed=_SEED, app=_LCP_APP,
    options=(("asynchronous", False),),
)
ALCP_CONFIG = ExperimentConfig(
    exp_id="alcp", procs=8, seed=_SEED, app=_LCP_APP,
    options=(("asynchronous", True),),
)

VALIDATION_CONFIG = ExperimentConfig(exp_id="validation", procs=2, seed=_SEED)


# ---------------------------------------------------------------------------
# Sides and runners.
#
# A side is one machine simulation, the unit the runner simulates,
# memoizes and ships to a worker. A registered runner declares its sides
# and assembles its raw result from their runs, so two experiments that
# run the same simulation (em3d's MP side and em3d_localalloc's) share
# one run in an invocation. A runner that declares none (validation, a
# test's fake) is one side: the whole runner on the whole config.
#
# A side keeps no machine. Its run is reduced to the board, elapsed
# cycles and event count (_machine_free), plus the extras read from the
# machine before it goes, and each machine is built by
# _mp_machine/_sm_machine, which first reclaim every earlier one:
# machines are reference cycles (engine, processes, generator frames,
# contexts) that only the cycle collector frees. So a worker holds one
# machine at a time, and a side the memo keeps costs only its board. The
# validation microbenchmarks are exempt: their three machines have two
# processors each.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Side:
    """One machine simulation of an experiment.

    ``app`` names the app package and ``kind`` the machine, ``"mp"`` or
    ``"sm"``; a ``"run"`` side is a whole runner, and ``app`` is then
    its experiment id. The side runs ``config``'s workload on
    ``config``'s machine, on ``procs`` processors if given. ``machine``
    holds the machine's keywords (``collective_strategy``,
    ``allocation_policy``) and ``program`` the app entry point's
    (``variant``, ``asynchronous``), with their defaults written out.
    """

    app: str
    kind: str
    config: ExperimentConfig
    procs: Optional[int] = None
    machine: Tuple[Tuple[str, Any], ...] = ()
    program: Tuple[Tuple[str, Any], ...] = ()

    def key(self) -> str:
        """A digest of everything the simulation reads: the machine
        params, the workload, seed, backend, memory model (SM only: the
        MP machine has none) and both keyword sets. A ``"run"`` side
        reads its whole config."""
        config = self.config
        if self.kind == "run":
            read: Dict[str, Any] = {"run": self.app, "config": config.to_jsonable()}
        else:
            read = {
                "app": self.app,
                "kind": self.kind,
                "params": jsonable(config.machine_params(self.procs)),
                "workload": jsonable(config.app),
                "seed": config.seed,
                "backend": config.backend,
                "consistency": config.consistency if self.kind == "sm" else None,
                "machine": jsonable(dict(self.machine)),
                "program": jsonable(dict(self.program)),
            }
        return hashlib.sha256(json.dumps(read, sort_keys=True).encode()).hexdigest()

    def check(self) -> None:
        """Raise :class:`ValueError` where the app would refuse this run
        (an app config without ``check`` refuses nothing). The app's
        check reads the processor count, the machine kind and the
        program's keywords."""
        check = getattr(self.config.app, "check", None)
        if self.kind != "run" and check is not None:
            check(self.procs or self.config.procs, kind=self.kind, **dict(self.program))


@dataclass
class SideRun:
    """What one side's simulation leaves: its machine-free result, the
    extras read from its machine, and its wall time. Several records
    may read one run, so nothing mutates it."""

    result: Any
    extra: Dict[str, Any]
    seconds: float


def declares(sides: Callable[[ExperimentConfig], Dict[Any, Side]]):
    """Make ``assemble(config, runs)`` a runner that declares ``sides``.

    The runner keeps the assembler's name, so it stays a top-level
    function. Called on a config, it simulates every side in this
    process, unshared (as ``repro trace`` does); the harness reads its
    ``sides`` and ``assemble`` to share and ship the sides instead.
    """

    def decorate(assemble: Callable[[ExperimentConfig, Dict[Any, SideRun]], Any]):
        @functools.wraps(assemble)
        def runner(config: ExperimentConfig) -> Any:
            return assemble(
                config, {name: run_side(side) for name, side in sides(config).items()}
            )

        runner.sides, runner.assemble = sides, assemble  # type: ignore[attr-defined]
        return runner

    return decorate


def sides_of(spec: "ExperimentSpec", config: ExperimentConfig) -> Dict[Any, Side]:
    """The sides ``spec``'s run of ``config`` simulates, by name."""
    declared = getattr(spec.runner, "sides", None)
    if declared is None:
        return {"run": Side(spec.id, "run", config)}
    return declared(config)


def assemble(spec: "ExperimentSpec", config: ExperimentConfig,
             runs: Dict[Any, SideRun]) -> Any:
    """``spec``'s raw result from the runs of its sides."""
    if getattr(spec.runner, "sides", None) is None:
        return runs["run"].result
    return spec.runner.assemble(config, runs)  # type: ignore[attr-defined]


def check_runnable(spec: "ExperimentSpec", config: ExperimentConfig) -> None:
    """Raise :class:`ValueError` for a config whose run the experiment
    or an app would refuse, on the condition it would refuse it by."""
    if config.procs < spec.min_procs:
        raise ValueError(
            f"{spec.id} needs at least {spec.min_procs} processors, got {config.procs}"
        )
    for side in sides_of(spec, config).values():
        side.check()


def run_side(side: Side) -> SideRun:
    """Simulate one side in this process.

    Must stay a top-level function: it is pickled by name when shipped
    to a spawned worker.
    """
    start = time.perf_counter()
    if side.kind == "run":
        result, extra = get_experiment(side.app).runner(side.config), {}
    else:
        result, extra = _simulate(side)
    return SideRun(result, extra, time.perf_counter() - start)


def _simulate(side: Side) -> Tuple[Any, Dict[str, Any]]:
    """Run one declared side on a fresh machine."""
    program = getattr(
        importlib.import_module(f"repro.apps.{side.app}.{side.kind}"),
        f"run_{side.app}_{side.kind}",
    )
    kwargs = dict(side.machine)
    if side.kind == "mp":
        machine = _mp_machine(side.config, **kwargs)
    else:
        from repro.memory.dataspace import HomePolicy

        kwargs["allocation_policy"] = HomePolicy(kwargs["allocation_policy"])
        machine = _sm_machine(side.config, procs=side.procs, **kwargs)
    run = program(machine, side.config.app, **dict(side.program))
    extra: Dict[str, Any] = {}
    if side.kind == "sm":
        extra["directory_queue_delay"] = machine.directory_contention()
    if side.app == "lcp":
        extra["steps"] = run[2]
    return _machine_free(run), extra


def _mp_machine(config: ExperimentConfig, **kwargs: Any) -> MpMachine:
    """A message-passing machine for ``config``, built once every earlier
    machine is reclaimed."""
    from repro.mp.machine import MpMachine

    gc.collect()
    return MpMachine(
        config.machine_params(), seed=config.seed, backend=config.backend, **kwargs
    )


def _sm_machine(
    config: ExperimentConfig, procs: Optional[int] = None, **kwargs: Any
) -> SmMachine:
    """A shared-memory machine for ``config`` (on ``procs`` processors, if
    given), built once every earlier machine is reclaimed."""
    from repro.sm.machine import SmMachine

    gc.collect()
    return SmMachine(
        config.machine_params(procs), seed=config.seed, backend=config.backend,
        consistency=config.consistency, **kwargs,
    )


def _machine_free(run: Tuple[Any, ...]) -> Any:
    """An app run's result without its machine or program outputs (views
    of the machine's memory); its board, elapsed cycles and event count
    still feed the checks and the record."""
    return replace(run[0], machine=None, outputs=[])


def _mp_side(app: str, config: ExperimentConfig, strategy: str = "lopsided",
             **program: Any) -> Side:
    return Side(app, "mp", config, machine=(("collective_strategy", strategy),),
                program=tuple(sorted(program.items())))


def _sm_side(app: str, config: ExperimentConfig, procs: Optional[int] = None,
             policy: str = "round_robin", **program: Any) -> Side:
    return Side(app, "sm", config, procs=procs,
                machine=(("allocation_policy", policy),),
                program=tuple(sorted(program.items())))


def _pair_sides(app: str) -> Callable[[ExperimentConfig], Dict[Any, Side]]:
    """An app pair's two sides at the registered machine defaults."""
    return lambda config: {"mp": _mp_side(app, config), "sm": _sm_side(app, config)}


def _pair(name: str, runs: Dict[Any, SideRun], **extra: Any) -> PairResult:
    return PairResult(
        name=name, mp_result=runs["mp"].result, sm_result=runs["sm"].result,
        phases=["init", "main"], extra=extra,
    )


@declares(_pair_sides("mse"))
def run_mse_pair(config: ExperimentConfig, runs: Dict[Any, SideRun]) -> PairResult:
    return _pair("MSE", runs)


@declares(_pair_sides("gauss"))
def run_gauss_pair(config: ExperimentConfig, runs: Dict[Any, SideRun]) -> PairResult:
    return _pair(
        "Gauss", runs, directory_queue_delay=runs["sm"].extra["directory_queue_delay"]
    )


def _collectives_sides(config: ExperimentConfig) -> Dict[Any, Side]:
    return {
        strategy: _mp_side("gauss", config, strategy)
        for strategy in config.opt("strategies", ("flat", "binary", "lopsided"))
    }


@declares(_collectives_sides)
def run_gauss_collectives(
    config: ExperimentConfig, runs: Dict[Any, SideRun]
) -> Dict[str, float]:
    """The text's strategy study: flat vs binary vs lop-sided trees."""
    return {strategy: run.result.board.mean_total() for strategy, run in runs.items()}


def _contention_sides(config: ExperimentConfig) -> Dict[Any, Side]:
    return {
        nprocs: _sm_side("gauss", config, procs=nprocs)
        for nprocs in config.opt("proc_counts", (4, 8, 16))
    }


@declares(_contention_sides)
def run_gauss_contention(
    config: ExperimentConfig, runs: Dict[Any, SideRun]
) -> Dict[int, Dict[str, float]]:
    """Section 5.2's scalability remark, measured.

    "These delays [directory queuing] ... will become untenable for
    larger systems": rerun Gauss-SM at growing processor counts (fixed
    problem size) and record the mean directory queue delay and the
    average cost of a shared miss.
    """
    return {nprocs: _contention_point(run) for nprocs, run in runs.items()}


def _contention_point(run: SideRun) -> Dict[str, float]:
    """One Gauss-SM run of the contention study."""
    from repro.stats.categories import SmCat

    board = run.result.board
    misses = board.mean_count("shared_misses_remote") + board.mean_count(
        "shared_misses_local"
    )
    return {
        "queue_delay": run.extra["directory_queue_delay"],
        "miss_cost": board.mean_cycles(SmCat.SHARED_MISS) / max(misses, 1),
        "total": board.mean_total(),
    }


def _em3d_sides(config: ExperimentConfig) -> Dict[Any, Side]:
    policy = config.opt("policy", "round_robin")
    return {
        "mp": _mp_side("em3d", config),
        "sm": _sm_side("em3d", config, policy=policy, variant="base"),
    }


@declares(_em3d_sides)
def run_em3d_pair(config: ExperimentConfig, runs: Dict[Any, SideRun]) -> PairResult:
    return _pair("EM3D", runs)


def _protocols_sides(config: ExperimentConfig) -> Dict[Any, Side]:
    sides = {"mp": _mp_side("em3d", config)}
    for variant in config.opt("variants", ("base", "flush", "update")):
        sides[variant] = _sm_side("em3d", config, variant=variant)
    return sides


@declares(_protocols_sides)
def run_em3d_protocols(
    config: ExperimentConfig, runs: Dict[Any, SideRun]
) -> Dict[str, Any]:
    """Section 5.3.4's suggested fixes, implemented and measured.

    Runs EM3D-SM under the base invalidation protocol, with consumer
    flushes, and with the bulk-update protocol, against the EM3D-MP
    baseline (the base protocol's SM side is em3d's).
    """
    return {name: run.result for name, run in runs.items()}


def _lcp_sides(config: ExperimentConfig) -> Dict[Any, Side]:
    asynchronous = bool(config.opt("asynchronous", False))
    return {
        "mp": _mp_side("lcp", config, asynchronous=asynchronous),
        "sm": _sm_side("lcp", config, asynchronous=asynchronous),
    }


@declares(_lcp_sides)
def run_lcp_pair(config: ExperimentConfig, runs: Dict[Any, SideRun]) -> PairResult:
    return _pair(
        "ALCP" if config.opt("asynchronous", False) else "LCP", runs,
        mp_steps=runs["mp"].extra["steps"], sm_steps=runs["sm"].extra["steps"],
    )


def run_validation_micro(config: ExperimentConfig) -> Dict[str, Dict[str, float]]:
    """Section 4.1's validation, adapted: measured vs analytic latencies.

    The paper validated its simulator against a physical CM-5 (within
    14-27%). Without the machine, we validate that the simulated
    latencies of the primitive operations compose to the Table 1-3
    costs they are built from.
    """
    from repro.memory.dataspace import HomePolicy
    from repro.mp.machine import MpMachine
    from repro.sm.machine import SmMachine

    checks: Dict[str, Dict[str, float]] = {}
    params = config.machine_params()

    # Message-passing: one-way active-message latency.
    mp_machine = MpMachine(params, seed=config.seed, backend=config.backend)
    times = {}

    def on_ping(ctx, packet):
        times["arrived"] = ctx.engine.now
        return
        yield

    def mp_program(ctx):
        ctx.am.register("ping", on_ping)
        if ctx.pid == 0:
            times["sent"] = ctx.engine.now
            yield from ctx.am.send(1, "ping")
        else:
            yield from ctx.poll_wait(lambda: "arrived" in times)

    mp_machine.run(mp_program)
    mp = mp_machine.params.mp
    # Topology-aware: the ping crosses 0 -> 1, which is an on-node hop
    # under the cluster preset (flat machines: == network_latency).
    expected = (
        mp.lib_am_send_cycles + mp.send_packet_cycles
        + mp_machine.params.common.message_latency(0, 1)
        + mp.ni_status_cycles + mp.recv_packet_cycles + mp.lib_am_handler_cycles
    )
    checks["am_one_way"] = {
        "measured": times["arrived"] - times["sent"],
        "expected": expected,
    }

    # Barrier release latency.
    bar_machine = MpMachine(params, seed=config.seed, backend=config.backend)
    release = {}

    def barrier_program(ctx):
        start = ctx.engine.now
        yield from ctx.barrier()
        release[ctx.pid] = ctx.engine.now - start

    bar_machine.run(barrier_program)
    checks["barrier"] = {
        "measured": max(release.values()),
        "expected": bar_machine.params.common.barrier_latency,
    }

    # Shared memory: remote miss to idle data (the paper's ~250 cycles).
    sm_machine = SmMachine(params, seed=config.seed, backend=config.backend, consistency=config.consistency)
    miss = {}

    def sm_program(ctx):
        if ctx.pid == 0:
            ctx.gmalloc("g", 4, policy=HomePolicy.LOCAL)
        yield from ctx.barrier()
        if ctx.pid == 1:
            start = ctx.engine.now
            yield from ctx.read(ctx.machine.regions[0], 0, 1)
            miss["cycles"] = ctx.engine.now - start

    sm_machine.run(sm_program)
    sm = sm_machine.params.sm
    common = sm_machine.params.common
    # 19 + 100 + (10 + dram + 5 + 8) + 100, ignoring TLB (measured run
    # includes a TLB miss; keep it in the measured-vs-expected margin).
    # Both hops are 1 <-> 0 (the region is homed at processor 0), so the
    # expectation uses the same two-level latency the machine charges.
    expected_miss = (
        sm.shared_miss_cycles + 2 * common.message_latency(0, 1)
        + sm.directory_base_cycles + common.dram_cycles
        + sm.directory_send_msg_cycles + sm.directory_send_block_cycles
    )
    checks["sm_remote_miss_idle"] = {
        "measured": miss["cycles"],
        "expected": expected_miss,
    }
    return checks


# ---------------------------------------------------------------------------
# Shape checks.
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool, detail: str) -> ShapeCheck:
    return (name, bool(ok), detail)


def _mse_shape(pair: PairResult) -> List[ShapeCheck]:
    mp, sm = pair.mp_breakdown(), pair.sm_breakdown()
    rel = pair.mp_relative_to_sm
    return [
        _check("near-parity", 0.70 <= rel <= 1.30,
               f"MP/SM = {rel:.2f} (paper: 0.98)"),
        _check("MP computation-bound", mp.computation / mp.total > 0.6,
               f"compute share {mp.computation / mp.total:.0%} (paper: 90%)"),
        _check("SM computation-bound", sm.computation / sm.total > 0.6,
               f"compute share {sm.computation / sm.total:.0%} (paper: 82%)"),
        _check("SM start-up imbalance visible",
               sm.startup_wait + sm.barriers > 0,
               f"startup+barrier {(sm.startup_wait + sm.barriers) / 1e3:.1f}K"),
        _check("shared misses a small fraction",
               pair.sm_counts().shared_misses
               < 0.25 * pair.sm_counts().private_misses
               + pair.sm_counts().shared_misses,
               f"shared {pair.sm_counts().shared_misses:.0f} vs private "
               f"{pair.sm_counts().private_misses:.0f}"),
    ]


def _gauss_shape(pair: PairResult) -> List[ShapeCheck]:
    mp, sm = pair.mp_breakdown(), pair.sm_breakdown()
    rel = pair.mp_relative_to_sm
    comm_share = mp.communication / mp.total
    return [
        _check("near-parity", 0.65 <= rel <= 1.5,
               f"MP/SM = {rel:.2f} (paper: 0.98)"),
        _check("MP communication substantial", 0.2 <= comm_share <= 0.7,
               f"comm share {comm_share:.0%} (paper: 42%)"),
        _check("SM misses + sync substantial",
               (sm.data_access + sm.synchronization) / sm.total > 0.25,
               f"share {(sm.data_access + sm.synchronization) / sm.total:.0%} "
               "(paper: 46%)"),
        _check("directory contention observed",
               pair.extra["directory_queue_delay"] > 0,
               f"mean queue delay {pair.extra['directory_queue_delay']:.0f} "
               "cycles (paper: ~200)"),
        _check("SM misses mostly remote",
               pair.sm_counts().remote_fraction > 0.8,
               f"remote fraction {pair.sm_counts().remote_fraction:.0%} "
               "(paper: 97%)"),
    ]


def _collectives_shape(totals: Dict[str, float]) -> List[ShapeCheck]:
    return [
        _check("lop-sided beats binary", totals["lopsided"] < totals["binary"],
               f"{totals['lopsided'] / 1e6:.2f}M vs {totals['binary'] / 1e6:.2f}M "
               "(paper: 30.1M vs 40.9M)"),
        _check("binary beats flat", totals["binary"] < totals["flat"],
               f"{totals['binary'] / 1e6:.2f}M vs {totals['flat'] / 1e6:.2f}M "
               "(paper: 40.9M vs 119.3M)"),
    ]


def _contention_scaling_shape(results: Dict[int, Dict[str, float]]) -> List[ShapeCheck]:
    procs = sorted(results)
    delays = [results[p]["queue_delay"] for p in procs]
    costs = [results[p]["miss_cost"] for p in procs]
    return [
        _check("queue delay grows with the machine",
               delays[0] < delays[-1],
               f"{delays[0]:.0f} -> {delays[-1]:.0f} cycles over {procs} procs"),
        _check("per-miss cost grows with the machine",
               costs[0] < costs[-1],
               f"{costs[0]:.0f} -> {costs[-1]:.0f} cycles (paper: ~700 "
               "contended vs ~250 idle at 32 procs)"),
    ]


def _em3d_shape(pair: PairResult) -> List[ShapeCheck]:
    sm = pair.sm_breakdown()
    rel = pair.sm_relative_to_mp
    data_share = sm.data_access / sm.total
    return [
        _check("MP substantially faster", rel > 1.5,
               f"SM/MP = {rel:.2f} (paper: 2.0)"),
        _check("SM dominated by data access", data_share > 0.4,
               f"data-access share {data_share:.0%} (paper: 64%)"),
        _check("SM misses mostly remote",
               pair.sm_counts(phase="main").remote_fraction > 0.8,
               f"remote {pair.sm_counts(phase='main').remote_fraction:.0%} "
               "(paper: 97%)"),
        _check("MP bulk transfers",
               pair.mp_counts(phase="main").channel_writes
               < 0.1 * pair.sm_counts(phase="main").shared_misses,
               f"{pair.mp_counts(phase='main').channel_writes:.0f} channel "
               f"writes vs {pair.sm_counts(phase='main').shared_misses:.0f} "
               "SM misses (paper: 200 vs 330K)"),
        _check("SM locks only in initialization",
               pair.sm_breakdown(phase="init").locks > 0
               and pair.sm_breakdown(phase="main").locks == 0,
               "locks charged in init phase only"),
    ]


def _em3d_bigcache_shape(pair: PairResult, base: PairResult) -> List[ShapeCheck]:
    base_sm = base.sm_breakdown(phase="main")
    big_sm = pair.sm_breakdown(phase="main")
    base_misses = base.sm_counts(phase="main").shared_misses
    big_misses = pair.sm_counts(phase="main").shared_misses
    return [
        _check("main-loop time drops", big_sm.total < base_sm.total,
               f"{big_sm.total / 1e6:.2f}M vs {base_sm.total / 1e6:.2f}M "
               "(paper: 61.0M vs 130.0M)"),
        _check("misses drop sharply", big_misses < 0.6 * base_misses,
               f"{big_misses:.0f} vs {base_misses:.0f} (paper: ~1/3)"),
    ]


def _em3d_localalloc_shape(pair: PairResult, base: PairResult) -> List[ShapeCheck]:
    base_remote = base.sm_counts(phase="main").remote_fraction
    local_remote = pair.sm_counts(phase="main").remote_fraction
    base_total = base.sm_breakdown(phase="main").total
    local_total = pair.sm_breakdown(phase="main").total
    return [
        _check("remote fraction collapses",
               local_remote < 0.5 * base_remote,
               f"{local_remote:.0%} vs {base_remote:.0%} "
               "(paper: 10% vs 97%)"),
        _check("main loop faster", local_total < base_total,
               f"{local_total / 1e6:.2f}M vs {base_total / 1e6:.2f}M "
               "(paper: 86.3M vs 130.0M, ~2/3)"),
    ]


def _em3d_protocols_shape(results: Dict[str, Any]) -> List[ShapeCheck]:
    mp_main = results["mp"].board.mean_total(phase="main")
    ratios = {
        variant: results[variant].board.mean_total(phase="main") / mp_main
        for variant in ("base", "flush", "update")
    }
    base_invals = results["base"].board.mean_count(
        "invalidations_received", phase="main"
    )
    flush_invals = results["flush"].board.mean_count(
        "invalidations_received", phase="main"
    )
    return [
        _check("flush cuts invalidations", flush_invals < 0.5 * base_invals,
               f"{flush_invals:.0f} vs {base_invals:.0f} per processor"),
        _check("flush does not regress", ratios["flush"] <= ratios["base"] * 1.02,
               f"SM/MP {ratios['flush']:.2f} vs base {ratios['base']:.2f}"),
        _check("bulk update closes the gap", ratios["update"] < ratios["base"],
               f"SM/MP {ratios['update']:.2f} vs base {ratios['base']:.2f} "
               "(paper: 'performed equivalently with EM3D-MP')"),
    ]


def _lcp_shape(pair: PairResult) -> List[ShapeCheck]:
    rel = pair.mp_relative_to_sm
    return [
        _check("MP modestly faster", rel < 1.05,
               f"MP/SM = {rel:.2f} (paper: 0.86)"),
        _check("same convergence steps",
               pair.extra["mp_steps"] == pair.extra["sm_steps"],
               f"steps {pair.extra['mp_steps']} vs {pair.extra['sm_steps']} "
               "(same algorithm)"),
        _check("SM synchronization visible",
               pair.sm_breakdown().synchronization / pair.sm_total > 0.03,
               f"sync share {pair.sm_breakdown().synchronization / pair.sm_total:.0%} "
               "(paper: 17%)"),
    ]


def _alcp_shape(pair: PairResult, sync: PairResult) -> List[ShapeCheck]:
    sync_steps = sync.extra["sm_steps"]
    async_steps = pair.extra["sm_steps"]
    sync_intensity = sync.mp_counts().comp_cycles_per_data_byte
    async_intensity = pair.mp_counts().comp_cycles_per_data_byte
    sync_pstep = sync.mp_counts().bytes_transmitted / sync.extra["mp_steps"]
    async_pstep = pair.mp_counts().bytes_transmitted / pair.extra["mp_steps"]
    return [
        _check("fewer steps to converge", async_steps <= sync_steps,
               f"{async_steps} vs {sync_steps} (paper: 34 vs 43)"),
        _check("more traffic per step", async_pstep > 1.5 * sync_pstep,
               f"{async_pstep:.0f} vs {sync_pstep:.0f} bytes/step"),
        _check("communication intensity collapses",
               async_intensity < 0.6 * sync_intensity,
               f"comp/data-byte {async_intensity:.1f} vs {sync_intensity:.1f} "
               "(paper: 6 vs 29)"),
    ]


def _validation_shape(checks: Dict[str, Dict[str, float]]) -> List[ShapeCheck]:
    results = []
    for name, values in checks.items():
        measured, expected = values["measured"], values["expected"]
        error = abs(measured - expected) / expected
        results.append(
            _check(name, error <= 0.27,
                   f"measured {measured:.0f} vs expected {expected:.0f} "
                   f"({error:.0%}; the paper's CM-5 validation was within 27%)")
        )
    return results


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in [
        ExperimentSpec(
            id="mse",
            title="Microstructure Electrostatics (MSE-MP vs MSE-SM)",
            paper_tables="Tables 4, 5, 6, 7",
            description="Computation-bound boundary-integral code with "
                        "schedule-driven communication.",
            runner=run_mse_pair,
            config=MSE_CONFIG,
            shape=_mse_shape,
            paper={
                "mp_total_Mcycles": 1241.1, "sm_total_Mcycles": 1267.8,
                "mp_relative": 0.98, "mp_compute_share": 0.90,
                "sm_compute_share": 0.82,
                "mp_comp_per_data_byte": 1452, "sm_comp_per_data_byte": 985,
            },
        ),
        ExperimentSpec(
            id="gauss",
            title="Gaussian Elimination (Gauss-MP vs Gauss-SM)",
            paper_tables="Tables 8, 9, 10, 11",
            description="Reduction/broadcast-dominated elimination; software "
                        "collectives vs shared-memory broadcast with "
                        "directory contention.",
            runner=run_gauss_pair,
            config=GAUSS_CONFIG,
            shape=_gauss_shape,
            paper={
                "mp_total_Mcycles": 71.0, "sm_total_Mcycles": 72.7,
                "mp_relative": 0.98, "mp_comm_share": 0.42,
                "sm_miss_share": 0.23, "directory_queue_delay": 200,
                "mp_comp_per_data_byte": 78, "sm_comp_per_data_byte": 47,
            },
        ),
        ExperimentSpec(
            id="gauss_collectives",
            title="Collective strategies in Gauss-MP",
            paper_tables="Section 5.2 text (119.3M / 40.9M / 30.1M cycles)",
            description="Flat vs binary-tree vs lop-sided (LogP) broadcast "
                        "and reduction.",
            runner=run_gauss_collectives,
            config=GAUSS_COLLECTIVES_CONFIG,
            shape=_collectives_shape,
            paper={"flat_M": 119.3, "binary_M": 40.9, "lopsided_M": 30.1},
            # The lop-sided tree's edge over binary depends on the
            # CM-5's send-overhead/latency ratio; the cluster preset's
            # cheap on-node hops flip it.
            paper_only=("lop-sided beats binary",),
        ),
        ExperimentSpec(
            id="gauss_contention",
            title="Directory contention vs. machine size (Gauss-SM)",
            paper_tables="Section 5.2 text (~200-cycle queue delay, "
                         "~700-cycle contended miss; 'untenable for "
                         "larger systems')",
            description="Fixed problem, growing processor count: queue "
                        "delay and per-miss cost at the directories.",
            runner=run_gauss_contention,
            config=GAUSS_CONTENTION_CONFIG,
            shape=_contention_scaling_shape,
            paper={"queue_delay_32p": 200, "contended_miss_32p": 700,
                   "idle_miss": 250},
        ),
        ExperimentSpec(
            id="em3d",
            title="EM3D (EM3D-MP vs EM3D-SM)",
            paper_tables="Tables 12, 13, 14, 15",
            description="Producer-consumer bipartite graph computation: the "
                        "paper's clearest message-passing win.",
            runner=run_em3d_pair,
            config=EM3D_CONFIG,
            shape=_em3d_shape,
            paper={
                "mp_total_Mcycles": 86.4, "sm_total_Mcycles": 172.1,
                "sm_relative": 2.00, "sm_data_access_share": 0.64,
                "mp_channel_writes_main": 200, "sm_shared_misses_main": 330044,
                "mp_comp_per_data_byte": 20, "sm_comp_per_data_byte": 2,
            },
            notes="Scaled run lands at SM/MP ~ 2.5-4.0 (paper 2.0): the "
                  "block-layout details that gave the paper's SM version "
                  "half the misses of MP are not recoverable from the text.",
        ),
        ExperimentSpec(
            id="em3d_bigcache",
            title="EM3D-SM with a 4x larger cache",
            paper_tables="Table 16",
            description="Capacity misses vanish; SM main loop drops below "
                        "MP's in the paper.",
            runner=run_em3d_pair,
            config=EM3D_BIGCACHE_CONFIG,
            shape=_em3d_bigcache_shape,
            paper={"sm_main_Mcycles": 61.0, "base_sm_main_Mcycles": 130.0},
            after=("em3d",),
        ),
        ExperimentSpec(
            id="em3d_localalloc",
            title="EM3D-SM with local allocation",
            paper_tables="Table 17",
            description="Local placement turns remote misses local: "
                        "97% -> 10% remote, main loop to ~2/3.",
            runner=run_em3d_pair,
            config=EM3D_LOCALALLOC_CONFIG,
            shape=_em3d_localalloc_shape,
            paper={"sm_main_Mcycles": 86.3, "remote_fraction": 0.10},
            after=("em3d",),
            # Under the modern presets' memory wall (dram_cycles 150 vs
            # 10) local allocation makes the main loop slower than em3d
            # on the same preset (cluster: 2.99M vs 1.74M cycles; 0.73M
            # vs 0.74M with dram_cycles 10), even as the remote
            # fraction still collapses.
            paper_only=("main loop faster",),
        ),
        ExperimentSpec(
            id="em3d_protocols",
            title="EM3D-SM protocol extensions: flush and bulk update",
            paper_tables="Section 5.3.4 discussion (design-choice ablation)",
            description="Consumer flushes turn 2-message invalidations "
                        "into 1-message replacements; the bulk-update "
                        "protocol replaces invalidate+miss with one push.",
            runner=run_em3d_protocols,
            config=EM3D_PROTOCOLS_CONFIG,
            shape=_em3d_protocols_shape,
            paper={"update_vs_mp": "equivalent (Falsafi et al. [6])"},
            notes="Not a paper table: the paper discusses these fixes and "
                  "cites Falsafi et al.'s measurement; this ablation "
                  "implements them.",
        ),
        ExperimentSpec(
            id="lcp",
            title="Synchronous LCP (LCP-MP vs LCP-SM)",
            paper_tables="Tables 18, 19 and the synchronous columns of 22, 23",
            description="Multi-sweep SOR with per-step solution exchange.",
            runner=run_lcp_pair,
            config=LCP_CONFIG,
            shape=_lcp_shape,
            paper={
                "mp_total_Mcycles": 56.8, "sm_total_Mcycles": 66.0,
                "mp_relative": 0.86, "steps": 43,
                "mp_comp_per_data_byte": 29, "sm_comp_per_data_byte": 26,
            },
        ),
        ExperimentSpec(
            id="alcp",
            title="Asynchronous LCP (ALCP-MP vs ALCP-SM)",
            paper_tables="Tables 20, 21 and the asynchronous columns of 22, 23",
            description="Publish-every-sweep variant: fewer steps, far more "
                        "communication.",
            runner=run_lcp_pair,
            config=ALCP_CONFIG,
            shape=_alcp_shape,
            paper={
                "mp_total_Mcycles": 92.7, "sm_total_Mcycles": 98.7,
                "steps_mp": 35, "steps_sm": 34,
                "mp_comp_per_data_byte": 6, "sm_comp_per_data_byte": 4,
            },
            notes="At the scaled problem the asynchronous variant converges "
                  "proportionally faster than in the paper, so total time "
                  "does not regress; per-step traffic and the intensity "
                  "collapse reproduce.",
            after=("lcp",),
        ),
        ExperimentSpec(
            id="validation",
            title="Simulator validation microbenchmarks",
            paper_tables="Section 4.1 (simulator within 14-27% of a CM-5)",
            description="Measured primitive latencies vs their analytic "
                        "compositions of the Table 1-3 costs.",
            runner=run_validation_micro,
            config=VALIDATION_CONFIG,
            shape=_validation_shape,
            paper={"tolerance": 0.27},
            min_procs=2,  # processor 0 pings 1, and 1 misses on 0's data
        ),
    ]
}
