"""Requirement-guided configuration tuning with a co-evolved auxiliary
performance requirement."""

from .entropy import differential_entropy, silverman_bandwidth
from .ga import Member
from .landscape import (
    BudgetExhausted,
    BudgetMeter,
    Landscape,
    OptionSpec,
    load_csv,
    measure,
    satisfiability_fraction,
    synth,
    write_csv,
)
from .requirement import Fragment, Proposition, PropositionError, validate
from .tuners import TunerParams, TunerResult, cotune_run, ga_run, random_run

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "BudgetMeter",
    "Fragment",
    "Landscape",
    "Member",
    "OptionSpec",
    "Proposition",
    "PropositionError",
    "TunerParams",
    "TunerResult",
    "cotune_run",
    "differential_entropy",
    "ga_run",
    "load_csv",
    "measure",
    "random_run",
    "satisfiability_fraction",
    "silverman_bandwidth",
    "synth",
    "validate",
    "write_csv",
]
