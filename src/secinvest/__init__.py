"""Optimal cyber-security investment over multiple periods, with support
for a disruptive-technology discontinuity and scenario comparison."""

import importlib

# the library modules load with the package (these two pull in errors, model and
# optimize): loading them on first use instead raised cold calls' peak RSS 0.2-0.4 MB
from . import analysis, scenario_io  # noqa: F401

__version__ = "0.1.0"

# each public name, in the order of __all__, and the module that defines it
_HOME = {
    "ContractError": "errors",
    "DEFAULT_DISRUPTION_THRESHOLD": "analysis",
    "DeltaZReport": "analysis",
    "DomainError": "errors",
    "InvestmentPlan": "model",
    "ModelError": "errors",
    "NumericError": "errors",
    "OptimizationResult": "optimize",
    "ParseError": "errors",
    "PeriodSpec": "model",
    "Scenario": "model",
    "TechnologyProfile": "model",
    "classify_disruptive": "analysis",
    "closed_form_optimum": "optimize",
    "delta_z": "analysis",
    "dominance_check": "analysis",
    "ebis_eval": "model",
    "ebis_mix_curve": "model",
    "emit_curve_csv": "scenario_io",
    "emit_mix_csv": "scenario_io",
    "enbis_eval": "model",
    "golden_section_optimum": "optimize",
    "grid_oracle": "optimize",
    "optimize_period": "optimize",
    "optimize_scenario": "optimize",
    "parse_scenario": "scenario_io",
    "productivity_ratio": "analysis",
    "optimum_shift_sweep": "analysis",
    "render_curve_svg": "scenario_io",
    "run_cli": "cli",
    "sbpf_eval": "model",
}
__all__ = list(_HOME)


def __getattr__(name: str):
    # a name is read from its module when used, so importing the package leaves the CLI unloaded
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
