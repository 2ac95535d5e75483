"""CostAccumulator behaviour."""

import pytest

from repro.util.timing import CostAccumulator


class TestCostAccumulator:
    def test_accumulates_by_category(self):
        c = CostAccumulator()
        c.add("compute", 1.0)
        c.add("compute", 2.0)
        c.add("comm", 0.5)
        assert c.get("compute") == 3.0
        assert c.get("comm") == 0.5
        assert c.total == 3.5

    def test_unknown_category_is_zero(self):
        assert CostAccumulator().get("nope") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostAccumulator().add("compute", -1.0)

    def test_merge(self):
        a, b = CostAccumulator(), CostAccumulator()
        a.add("compute", 1.0)
        b.add("compute", 2.0)
        b.add("idle", 4.0)
        a.merge(b)
        assert a.get("compute") == 3.0
        assert a.get("idle") == 4.0

    def test_reset(self):
        c = CostAccumulator()
        c.add("x", 1.0)
        c.reset()
        assert c.total == 0.0
