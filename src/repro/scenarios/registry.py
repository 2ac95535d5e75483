"""The named-scenario registry.

A *scenario definition* bundles a PTTS template with the model
components that animate it, under a stable name with overridable
default parameters.  The registry is what the CLI surfaces
(``repro run --scenario <name>``, ``repro scenarios list``), what
:class:`repro.spec.RunSpec` resolves its ``scenario`` field against,
and what the differential oracle's scenario cells
(:func:`repro.validate.oracle.run_scenario_matrix`) iterate: each
registered scenario on seq kernels, charm and smp, every run record
diffed against the sequential one.

>>> sorted(names())
['contact-tracing', 'hospital-capacity', 'turnover', 'two-variant', 'waning-vaccination']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.disease import DiseaseModel, influenza_model, sir_model
from repro.core.interventions import Intervention, InterventionSchedule
from repro.scenarios.components import (
    DemographicTurnover,
    HospitalCapacity,
    TestTraceQuarantine,
    VariantAssignment,
    WaningVaccination,
)
from repro.scenarios.models import hospital_model, two_variant_model, waning_model

__all__ = [
    "ScenarioDefinition",
    "register",
    "get",
    "names",
    "build_components",
    "build_scenario",
]


@dataclass(frozen=True)
class ScenarioDefinition:
    """One named, parameterised scenario.

    ``builder(**params)`` returns ``(disease_model, components)``;
    ``defaults`` names every accepted parameter with its default value
    (overrides of unknown parameters are rejected, which is what makes
    a :class:`repro.spec.RunSpec`'s scenario choice validatable without
    building anything).

    >>> get("turnover").params()["rate"]
    0.1
    """

    name: str
    description: str
    builder: Callable[..., tuple[DiseaseModel, list[Intervention]]]
    defaults: dict = field(default_factory=dict)

    def params(self, **overrides) -> dict:
        """Defaults merged with ``overrides`` (unknown keys rejected)."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown} "
                f"(accepted: {sorted(self.defaults)})"
            )
        return {**self.defaults, **overrides}

    def build(self, **overrides) -> tuple[DiseaseModel, list[Intervention]]:
        """Fresh ``(disease, components)`` for one run."""
        return self.builder(**self.params(**overrides))


_REGISTRY: dict[str, ScenarioDefinition] = {}


def register(defn: ScenarioDefinition) -> ScenarioDefinition:
    """Add a definition to the registry (name must be unused).

    >>> register(get("turnover"))
    Traceback (most recent call last):
    ...
    ValueError: scenario 'turnover' is already registered
    """
    if defn.name in _REGISTRY:
        raise ValueError(f"scenario {defn.name!r} is already registered")
    _REGISTRY[defn.name] = defn
    return defn


def get(name: str) -> ScenarioDefinition:
    """Look a definition up by name.

    >>> get("waning-vaccination").name
    'waning-vaccination'
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (registered: {sorted(_REGISTRY)})"
        ) from None


def names() -> list[str]:
    """Sorted registered scenario names.

    >>> "two-variant" in names()
    True
    """
    return sorted(_REGISTRY)


def build_components(
    name: str, **overrides
) -> tuple[DiseaseModel, list[Intervention]]:
    """``(disease, components)`` for the named scenario.

    >>> disease, components = build_components("hospital-capacity", beds=3)
    >>> components[0].beds
    3
    """
    return get(name).build(**overrides)


def build_scenario(
    name: str,
    graph,
    *,
    n_days: int = 16,
    seed: int = 0,
    initial_infections: int = 10,
    transmissibility: float = 2.0e-4,
    params: dict | None = None,
    extra_interventions: list[Intervention] | None = None,
):
    """A full :class:`~repro.core.scenario.Scenario` for the named entry.

    Model components come first in the schedule, then any
    ``extra_interventions`` (behavioural interventions compose freely
    with scenario components).

    >>> from repro.spec import PopulationSpec
    >>> g = PopulationSpec(n_persons=60, name="doc").build()
    >>> sc = build_scenario("turnover", g, n_days=2)
    >>> len(sc.interventions)
    1
    """
    from repro.core.scenario import Scenario
    from repro.core.transmission import TransmissionModel

    disease, components = build_components(name, **(params or {}))
    return Scenario(
        graph=graph,
        disease=disease,
        transmission=TransmissionModel(transmissibility),
        interventions=InterventionSchedule(
            components + list(extra_interventions or [])
        ),
        n_days=n_days,
        seed=seed,
        initial_infections=initial_infections,
    )


# ----------------------------------------------------------------------
# the built-in scenarios
# ----------------------------------------------------------------------
def _waning(coverage, day, efficacy, wane_lo, wane_hi):
    disease = waning_model(efficacy=efficacy, wane_lo=wane_lo, wane_hi=wane_hi)
    return disease, [WaningVaccination(coverage=coverage, day=day)]


def _tracing(detection, report_delay, quarantine_days, compliance):
    return influenza_model(), [
        TestTraceQuarantine(
            detection=detection,
            report_delay=report_delay,
            quarantine_days=quarantine_days,
            compliance=compliance,
        )
    ]


def _hospital(beds, hospitalization, mortality, overflow_mortality):
    disease = hospital_model(
        hospitalization=hospitalization,
        mortality=mortality,
        overflow_mortality=overflow_mortality,
    )
    return disease, [HospitalCapacity(beds=beds)]


def _turnover(rate):
    return sir_model(), [DemographicTurnover(rate=rate)]


def _two_variant(cross_immunity, variant_b_infectivity, bias):
    disease = two_variant_model(
        cross_immunity=cross_immunity,
        variant_b_infectivity=variant_b_infectivity,
    )
    return disease, [VariantAssignment(bias=bias)]


register(ScenarioDefinition(
    name="waning-vaccination",
    description="vaccinate into a partially immune state that wanes "
                "back to susceptible on its own clock",
    builder=_waning,
    defaults={"coverage": 0.6, "day": 2, "efficacy": 0.6,
              "wane_lo": 4, "wane_hi": 8},
))
register(ScenarioDefinition(
    name="contact-tracing",
    description="symptomatic testing with reporting delay, household "
                "tracing and quarantine compliance",
    builder=_tracing,
    defaults={"detection": 0.5, "report_delay": 2,
              "quarantine_days": 7, "compliance": 0.8},
))
register(ScenarioDefinition(
    name="hospital-capacity",
    description="finite hospital ward; overflow patients take the "
                "higher-mortality branch",
    builder=_hospital,
    defaults={"beds": 5, "hospitalization": 0.3, "mortality": 0.1,
              "overflow_mortality": 0.4},
))
register(ScenarioDefinition(
    name="turnover",
    description="births and deaths: terminal-state persons are "
                "replaced by fresh susceptibles",
    builder=_turnover,
    defaults={"rate": 0.1},
))
register(ScenarioDefinition(
    name="two-variant",
    description="two co-circulating variants with partial "
                "cross-immunity and frequency-dependent takeover",
    builder=_two_variant,
    defaults={"cross_immunity": 0.7, "variant_b_infectivity": 1.3,
              "bias": 0.5},
))
