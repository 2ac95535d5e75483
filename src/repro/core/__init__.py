"""EpiSimdemics core: disease model, per-day algorithm, interventions.

This package implements the paper's Section II — the agent-based
contagion simulation itself:

* :mod:`repro.core.disease` — the PTTS health-state machine,
* :mod:`repro.core.transmission` — the exposure→infection probability,
* :mod:`repro.core.des` — the per-location DES of step 3 as blocked
  S×I interval overlaps, and :mod:`repro.core.exposure` — the location
  phase built on it,
* :mod:`repro.core.interventions` — the intervention DSL (vaccination,
  school closure, ...),
* :mod:`repro.core.day` — the six-step per-day algorithm, once: phase
  functions over one ``EpidemicState`` that every backend calls,
* :mod:`repro.core.simulator` — the sequential reference simulator
  running those phases over everything,
* :mod:`repro.core.parallel` — the same phases as chares on the
  simulated Charm-like runtime (imported lazily to avoid a hard
  dependency cycle with :mod:`repro.charm`).
"""

from repro.core.disease import (
    DiseaseModel,
    HealthState,
    DwellDistribution,
    Transition,
    influenza_model,
    sir_model,
)
from repro.core.transmission import TransmissionModel
from repro.core.interventions import (
    Intervention,
    Vaccination,
    SchoolClosure,
    WorkClosure,
    StayHomeWhenSymptomatic,
    WeekendSchedule,
    InterventionSchedule,
    parse_intervention_script,
)
from repro.core.pttsl import parse_ptts, format_ptts
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator, DayResult, SimulationResult

__all__ = [
    "DiseaseModel",
    "HealthState",
    "DwellDistribution",
    "Transition",
    "influenza_model",
    "sir_model",
    "TransmissionModel",
    "Intervention",
    "Vaccination",
    "SchoolClosure",
    "WorkClosure",
    "StayHomeWhenSymptomatic",
    "WeekendSchedule",
    "InterventionSchedule",
    "parse_intervention_script",
    "parse_ptts",
    "format_ptts",
    "Scenario",
    "SequentialSimulator",
    "DayResult",
    "SimulationResult",
]
