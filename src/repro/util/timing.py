"""Virtual-cost accounting for the simulated machine.

*Virtual time* — the modelled execution time of the simulated parallel
machine — is accumulated by :class:`CostAccumulator` instances owned by
simulated PEs.  Keeping it in its own type prevents the classic bug of
adding seconds of Python interpretation (wall time, which
:mod:`repro.observe` measures) to seconds of modelled Cray time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostAccumulator"]


@dataclass
class CostAccumulator:
    """Accumulates virtual (modelled) costs, bucketed by category.

    Categories in use: ``"compute"``, ``"comm"``, ``"sync"``, ``"idle"``.
    The scheduler reads :attr:`total` as the PE's busy time; the scaling
    analysis reads the per-category breakdown for the ablation benches.
    """

    buckets: dict = field(default_factory=dict)

    def add(self, category: str, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative cost {amount!r} for category {category!r}")
        self.buckets[category] = self.buckets.get(category, 0.0) + amount

    def get(self, category: str) -> float:
        return self.buckets.get(category, 0.0)

    @property
    def total(self) -> float:
        return sum(self.buckets.values())

    def merge(self, other: "CostAccumulator") -> None:
        """Fold another accumulator's buckets into this one."""
        for k, v in other.buckets.items():
            self.buckets[k] = self.buckets.get(k, 0.0) + v

    def reset(self) -> None:
        self.buckets.clear()
