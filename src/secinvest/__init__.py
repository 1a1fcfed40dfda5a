"""Optimal cyber-security investment over multiple periods, with support
for a disruptive-technology discontinuity and scenario comparison."""

from .analysis import (
    DEFAULT_DISRUPTION_THRESHOLD,
    DeltaZReport,
    classify_disruptive,
    delta_z,
    dominance_check,
    productivity_ratio,
    optimum_shift_sweep,
)
from .errors import (
    ContractError,
    DomainError,
    ModelError,
    NumericError,
    ParseError,
)
from .model import (
    InvestmentPlan,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    ebis_eval,
    ebis_mix_curve,
    enbis_eval,
    mix_jump,
    sbpf_eval,
)
from .optimize import (
    OptimizationResult,
    closed_form_optimum,
    golden_section_optimum,
    grid_oracle,
    optimize_period,
    optimize_scenario,
)
from .scenario_io import (
    emit_curve_csv,
    emit_mix_csv,
    parse_scenario,
    render_curve_svg,
    scenario_to_json,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # run_cli is loaded on first use: importing the package leaves the CLI
    # unloaded, and ``python -m secinvest.cli`` runs cli.py only once
    if name == "run_cli":
        from .cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ContractError",
    "DEFAULT_DISRUPTION_THRESHOLD",
    "DeltaZReport",
    "DomainError",
    "InvestmentPlan",
    "ModelError",
    "NumericError",
    "OptimizationResult",
    "ParseError",
    "PeriodSpec",
    "Scenario",
    "TechnologyProfile",
    "classify_disruptive",
    "closed_form_optimum",
    "delta_z",
    "dominance_check",
    "ebis_eval",
    "ebis_mix_curve",
    "emit_curve_csv",
    "emit_mix_csv",
    "enbis_eval",
    "golden_section_optimum",
    "grid_oracle",
    "mix_jump",
    "optimize_period",
    "optimize_scenario",
    "parse_scenario",
    "productivity_ratio",
    "optimum_shift_sweep",
    "render_curve_svg",
    "run_cli",
    "sbpf_eval",
    "scenario_to_json",
]
