"""One-shot reproduction reports.

:func:`generate_report` regenerates every figure and extension scenario
and writes a browsable directory:

* ``figure_N.txt`` — the numeric table plus an ASCII chart;
* ``figure_N.json`` — the machine-readable twin (diffable, archivable);
* ``scenario_<name>.txt`` / ``.json`` — each extension scenario;
* ``INDEX.md`` — what was run, with which parameters.

Used by ``python -m repro report`` and directly scriptable.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..exec import TrialRunner
from . import figures as figs
from . import scenarios
from .persistence import figure_to_json, save_json
from .plotting import render_series
from .results import Table

__all__ = ["ReportConfig", "generate_report"]


@dataclass
class ReportConfig:
    """Fidelity knobs for the simulated parts of a report."""

    trials: int = 2
    duration: float = 15.0
    seed: int = 0
    #: subset of scenario names to run (None = all)
    scenarios: Optional[List[str]] = None
    #: execution layer for the trial-shaped parts (None = serial,
    #: uncached); worker count and cache state never change results
    runner: Optional[TrialRunner] = None


#: name -> (callable taking a ReportConfig, short description)
SCENARIOS: Dict[str, tuple] = {
    "hidden-terminal": (
        lambda cfg: scenarios.hidden_terminal_experiment(
            duration=cfg.duration, seed=cfg.seed, runner=cfg.runner
        ),
        "listening vs hidden terminals (mesh vs star)",
    ),
    "efficiency": (
        lambda cfg: {
            "aff_9bit": scenarios.measured_efficiency(
                "aff", id_bits=9, duration=cfg.duration, seed=cfg.seed
            ).efficiency,
            "static_32bit": scenarios.measured_efficiency(
                "static", id_bits=32, duration=cfg.duration, seed=cfg.seed
            ).efficiency,
        },
        "measured end-to-end efficiency, AFF vs static",
    ),
    "dynamic-alloc": (
        lambda cfg: scenarios.dynamic_allocation_overhead(seed=cfg.seed),
        "claim/defend address allocation cost under churn",
    ),
    "interest": (
        lambda cfg: scenarios.interest_scenario(
            duration=cfg.duration, seed=cfg.seed
        ),
        "interest reinforcement misdirection",
    ),
    "codebook": (
        lambda cfg: scenarios.codebook_scenario(seed=cfg.seed),
        "attribute-codebook compression",
    ),
    "density-estimation": (
        lambda cfg: scenarios.density_estimation_accuracy(
            duration=cfg.duration, seed=cfg.seed
        ),
        "estimating T from overheard introductions",
    ),
    "flooding": (
        lambda cfg: scenarios.flooding_scenario(seed=cfg.seed),
        "flood duplicate suppression coverage",
    ),
    "density-tracking": (
        lambda cfg: {
            k: v
            for k, v in scenarios.density_step_tracking(
                phase_seconds=cfg.duration, seed=cfg.seed
            ).items()
            if k != "samples"
        },
        "online T estimate tracking a load step",
    ),
    "massive-flow": (
        lambda cfg: scenarios.massive_flow_scenario(
            horizon=max(4 * cfg.duration, 60.0), seed=cfg.seed, runner=cfg.runner
        ),
        "10k-node flow-level run with a hybrid burst cross-check",
    ),
}


def _figure_text(figure: "figs.FigureResult", x_log: bool = False) -> str:
    plottable = [s for s in figure.series if any(not math.isnan(v) for v in s.y)]
    chart = render_series(plottable, title=figure.name, x_log=x_log)
    return figure.table.render() + "\n\n" + chart + "\n"


def generate_report(
    output_dir: Union[str, pathlib.Path],
    config: Optional[ReportConfig] = None,
    runner: Optional[TrialRunner] = None,
) -> List[pathlib.Path]:
    """Regenerate everything into ``output_dir``.  Returns written paths.

    With a :class:`repro.exec.TrialRunner` (and its result cache), a
    re-run only computes trials whose inputs changed — everything else
    is served from the cache, byte-identical.  Unknown scenario names
    raise :class:`KeyError` before any figure work or file write.
    """
    config = config or ReportConfig()
    selected = config.scenarios or sorted(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario {unknown[0]!r}; valid: {', '.join(sorted(SCENARIOS))}"
        )
    if runner is not None:
        config = ReportConfig(
            trials=config.trials,
            duration=config.duration,
            seed=config.seed,
            scenarios=config.scenarios,
            runner=runner,
        )
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[pathlib.Path] = []
    index_lines = [
        "# Reproduction report",
        "",
        f"- simulated fidelity: {config.trials} trials x "
        f"{config.duration:.0f}s (paper protocol: 10 x 120s)",
        f"- base seed: {config.seed}",
        "",
        "## Figures",
        "",
    ]

    figure_makers = [
        (1, lambda: figs.figure_1(), False),
        (2, lambda: figs.figure_2(), False),
        (3, lambda: figs.figure_3(), True),
        (
            4,
            lambda: figs.figure_4(
                trials=config.trials, duration=config.duration,
                seed=config.seed, runner=config.runner,
            ),
            False,
        ),
    ]
    for number, make, x_log in figure_makers:
        result = make()
        text_path = out / f"figure_{number}.txt"
        text_path.write_text(_figure_text(result, x_log=x_log))
        written.append(text_path)
        json_path = out / f"figure_{number}.json"
        save_json(json_path, figure_to_json(result))
        written.append(json_path)
        index_lines.append(
            f"- [{result.name}](figure_{number}.txt) "
            f"([json](figure_{number}.json))"
        )

    index_lines += ["", "## Scenarios", ""]
    for name in selected:
        runner, description = SCENARIOS[name]
        outcome = runner(config)
        table = Table(f"scenario: {name} — {description}", ["metric", "value"])
        for key, value in outcome.items():
            table.add_row(key, value)
        stem = f"scenario_{name.replace('-', '_')}"
        text_path = out / f"{stem}.txt"
        text_path.write_text(table.render() + "\n")
        written.append(text_path)
        json_path = out / f"{stem}.json"
        save_json(json_path, dict(outcome))
        written.append(json_path)
        index_lines.append(f"- [{name}]({stem}.txt): {description}")

    index_path = out / "INDEX.md"
    index_path.write_text("\n".join(index_lines) + "\n")
    written.append(index_path)
    return written
