#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from live runs of every experiment.

Usage:  python tools/generate_experiments_md.py [output-path]
        python tools/generate_experiments_md.py --sensitivity-only [output-path]

Runs the full experiment registry and writes a paper-vs-measured report:
for every table and figure of the paper's evaluation section, the
paper's reported values, the scaled run's values, and the shape checks;
plus a sensitivity section generated from the shipped ``repro sweep``
specs. ``--sensitivity-only`` regenerates just that section in place
(between the sweep markers), leaving the per-experiment sections alone.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

from repro.api import run_raw
from repro.core.experiments import EXPERIMENTS
from repro.core.study import PairResult
from repro.core.tables import render_pair
from repro.runner.api import baselines

SWEEP_BEGIN = "<!-- sweep-sensitivity:begin -->"
SWEEP_END = "<!-- sweep-sensitivity:end -->"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation section of
*Where is Time Spent in Message-Passing and Shared-Memory Programs?*
(Chandra, Larus, Rogers; ASPLOS 1994).

**How to read this file.** The paper ran 32-processor simulations at
full problem sizes (hundreds of millions to billions of target cycles).
This reproduction runs the same algorithms on the same pair of machine
models at workloads a few hundred times smaller (8-16 processors,
scaled inputs, cache scaled with the working set — see DESIGN.md
section 2.8). Absolute cycle counts are therefore not comparable; the
reproduced quantities are the paper's *qualitative results*: who wins,
by roughly what factor, which category dominates, and where the
crossovers fall. Each experiment lists the paper's reported values,
the measured scaled values, and the machine-checked shape assertions
(`pytest benchmarks/ --benchmark-only` enforces the same checks).

Regenerate with `python tools/generate_experiments_md.py`.
"""


def render_experiment(exp_id: str) -> str:
    spec = EXPERIMENTS[exp_id]
    start = time.time()
    result = run_raw(exp_id)
    elapsed = time.time() - start
    lines = [
        f"## {spec.title}",
        "",
        f"*Regenerates:* {spec.paper_tables}  ",
        f"*Bench target:* see `benchmarks/` (experiment id `{exp_id}`)  ",
        f"*Scaled run wall time:* {elapsed:.1f}s",
        "",
        spec.description,
        "",
        "**Paper's reported values:**",
        "",
    ]
    for key, value in spec.paper.items():
        lines.append(f"- `{key}` = {value}")
    lines += ["", "**Measured (scaled run):**", ""]
    paper_key = {
        "mse": "mse", "gauss": "gauss", "em3d": "em3d_total",
        "lcp": "lcp", "alcp": "alcp",
    }.get(exp_id)
    if isinstance(result, PairResult):
        lines.append("```")
        if paper_key is not None:
            from repro.core.tables import render_share_comparison

            lines.append(render_share_comparison(result, paper_key))
            lines.append("")
        lines.append(render_pair(result, phases=bool(result.phases)))
        lines.append("```")
    elif isinstance(result, dict) and exp_id == "gauss_collectives":
        lines.append("```")
        for strategy, total in result.items():
            lines.append(f"{strategy:>9}: {total / 1e6:8.2f}M cycles")
        lines.append("```")
    elif isinstance(result, dict) and exp_id == "validation":
        lines.append("```")
        for name, values in result.items():
            error = abs(values["measured"] - values["expected"]) / values["expected"]
            lines.append(
                f"{name:>22}: measured {values['measured']:6.0f}  "
                f"expected {values['expected']:6.0f}  ({error:.0%})"
            )
        lines.append("```")
    elif isinstance(result, dict) and exp_id == "em3d_protocols":
        mp_main = result["mp"].board.mean_total(phase="main")
        lines.append("```")
        lines.append(f"EM3D-MP main loop: {mp_main / 1e3:.0f}K cycles")
        for variant in ("base", "flush", "update"):
            board = result[variant].board
            main = board.mean_total(phase="main")
            lines.append(
                f"EM3D-SM {variant:<7}: {main / 1e3:6.0f}K cycles "
                f"({main / mp_main:.1f}x MP), "
                f"{board.mean_count('invalidations_received', phase='main'):.0f} "
                f"invalidations/processor"
            )
        lines.append("```")
    lines += ["", "**Shape checks:**", ""]
    for name, ok, detail in spec.shape(result, *baselines(exp_id, spec.config)):
        mark = "PASS" if ok else "FAIL"
        lines.append(f"- [{mark}] {name} — {detail}")
    if spec.notes:
        lines += ["", f"*Note:* {spec.notes}"]
    lines.append("")
    return "\n".join(lines)


def render_fidelity() -> str:
    from repro.core.fidelity import assess_all, render_scorecard

    return "\n".join(
        [
            "## Fidelity scorecard",
            "",
            "Category shares (scale-stable quantities) across all five",
            "application pairs, paper vs. this reproduction. Regenerate",
            "interactively with `python -m repro fidelity`.",
            "",
            "```",
            render_scorecard(assess_all()),
            "```",
            "",
        ]
    )


def render_sensitivity() -> str:
    """The sweep-driven sensitivity section, marker-delimited."""
    from repro.api import sweep
    from repro.specs import list_specs

    lines = [
        SWEEP_BEGIN,
        "## Sensitivity sweeps",
        "",
        "The paper's sensitivity conclusions (section 5) as declarative",
        "sweeps over the same harness: each spec pins a curve shape as a",
        "machine-checked assertion. Rerun any of them with",
        "`python -m repro sweep <name>`; widen an axis with `--axis`.",
        "",
    ]
    specs = {info.id: info for info in list_specs("sweep")}
    for name in sorted(specs):
        print(f"sweeping {name} ...", flush=True)
        result = sweep(name)
        lines += [
            f"### `{name}` — {result.exp_id}",
            "",
            specs[name].description,
            "",
            "```",
            result.render_table(),
            "```",
            "",
        ]
        for probe in result.crossovers:
            mark = "x" if probe["crossed"] else "-"
            lines.append(f"- [{mark}] crossover `{probe['name']}` — {probe['detail']}")
        for check_name, ok, detail in result.checks:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"- [{mark}] {check_name} — {detail}")
        lines.append("")
    lines.append(SWEEP_END)
    return "\n".join(lines)


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    sensitivity_only = "--sensitivity-only" in argv
    argv = [a for a in argv if a != "--sensitivity-only"]
    output = Path(argv[0]) if argv else Path("EXPERIMENTS.md")

    if sensitivity_only:
        text = output.read_text()
        block = re.compile(
            re.escape(SWEEP_BEGIN) + r".*?" + re.escape(SWEEP_END), re.S
        )
        if not block.search(text):
            print(f"no sweep markers in {output}; run a full regeneration first")
            return 1
        output.write_text(block.sub(lambda _m: render_sensitivity(), text))
        print(f"rewrote sensitivity section of {output}")
        return 0

    sections = [HEADER]
    for exp_id in EXPERIMENTS:
        print(f"running {exp_id} ...", flush=True)
        sections.append(render_experiment(exp_id))
    sections.append(render_sensitivity())
    sections.append("")
    sections.append(render_fidelity())
    output.write_text("\n".join(sections))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
