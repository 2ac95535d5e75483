"""repro.scenarios — pluggable disease/intervention model components.

The paper's intervention DSL (§II-A) describes *composable* epidemic
scenarios: vaccination campaigns, behavioural changes, co-circulating
strains.  This package generalises the repo's hardcoded intervention
pair into a model-component layer over the existing PTTS machinery:

* :mod:`~repro.scenarios.models` — PTTS templates with the extra
  states components need (waning immunity, hospital overflow,
  per-variant lanes), compiled into the same flat arrays every
  exposure kernel and backend consumes;
* :mod:`~repro.scenarios.components` — the components themselves,
  hooked into the day loop's three phases with keyed RNG so every
  backend reproduces the same epidemic bit for bit;
* :mod:`~repro.scenarios.registry` — named scenario definitions
  (``repro scenarios list``), overridable parameters included, which
  :class:`repro.spec.RunSpec`'s ``scenario`` / ``scenario_params``
  fields name and the lab sweeps over.

>>> from repro.scenarios import names, build_components
>>> disease, components = build_components("waning-vaccination")
>>> "V" in disease.index
True
"""

from repro.scenarios.components import (
    DemographicTurnover,
    HospitalCapacity,
    ModelComponent,
    TestTraceQuarantine,
    VariantAssignment,
    WaningVaccination,
)
from repro.scenarios.models import hospital_model, two_variant_model, waning_model
from repro.scenarios.registry import (
    ScenarioDefinition,
    build_components,
    build_scenario,
    get,
    names,
    register,
)

__all__ = [
    "ModelComponent",
    "WaningVaccination",
    "TestTraceQuarantine",
    "HospitalCapacity",
    "DemographicTurnover",
    "VariantAssignment",
    "waning_model",
    "hospital_model",
    "two_variant_model",
    "ScenarioDefinition",
    "register",
    "get",
    "names",
    "build_components",
    "build_scenario",
]
