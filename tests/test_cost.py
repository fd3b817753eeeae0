import random

import pytest

from nsim.cost import (
    PriceSpec,
    builtin_catalog_path,
    completion_increase,
    find_price,
    load_price_catalog,
    relative_increase,
    run_cost,
)
from nsim.simengine import SimResult


def res(completion):
    return SimResult(completion=completion, per_rank_completion=(completion,),
                     draws_used=0)


HOUR_NS = 3_600_000_000_000


class TestRunCost:
    def test_one_hour_four_nodes(self):
        price = PriceSpec(per_node_hour=3.88, label="on_demand", provider="aws")
        assert run_cost(HOUR_NS, 4, price) == pytest.approx(15.52)

    def test_zero_runtime(self):
        price = PriceSpec(per_node_hour=3.88, label="on_demand", provider="aws")
        assert run_cost(0, 16, price) == 0.0

    def test_half_hour_two_nodes(self):
        price = PriceSpec(per_node_hour=1.73, label="on_demand", provider="daint")
        assert run_cost(HOUR_NS // 2, 2, price) == pytest.approx(1.73)

    def test_linearity_fuzz(self):
        rng = random.Random(20220718)
        price = PriceSpec(per_node_hour=2.5, label="committed", provider="x")
        for _ in range(1000):
            t = rng.randrange(0, 10**15)
            nodes = rng.randrange(1, 20000)
            k = rng.randrange(1, 7)
            base = run_cost(t, nodes, price)
            assert run_cost(k * t, nodes, price) == pytest.approx(k * base, rel=1e-12)
            assert run_cost(t, k * nodes, price) == pytest.approx(k * base, rel=1e-12)

    def test_invalid_nodes(self):
        price = PriceSpec(per_node_hour=1.0, label="on_demand", provider="x")
        with pytest.raises(ValueError):
            run_cost(1, 0, price)


class TestPriceSpec:
    def test_rejects_free_lunch(self):
        with pytest.raises(ValueError):
            PriceSpec(per_node_hour=0.0, label="on_demand", provider="x")

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            PriceSpec(per_node_hour=1.0, label="spot", provider="x")


class TestRelativeIncrease:
    def test_double_runtime_is_plus_100_percent(self):
        assert relative_increase([res(200)], res(100)) == [1.0]

    def test_equal_runtime_is_zero(self):
        assert relative_increase([res(100)], res(100)) == [0.0]

    def test_elementwise(self):
        out = relative_increase([res(150), res(100), res(300)], res(100))
        assert out == [0.5, 0.0, 2.0]

    def test_invariant_under_price_and_nodes(self):
        # the ratio never sees price or node count; cross-check via run_cost
        noisy, base = res(180), res(120)
        for price_val, nodes in [(1.0, 3), (9.99, 4096)]:
            price = PriceSpec(per_node_hour=price_val, label="on_demand", provider="p")
            cost_ratio = run_cost(noisy.completion, nodes, price) / run_cost(
                base.completion, nodes, price)
            assert relative_increase([noisy], base)[0] == pytest.approx(cost_ratio - 1)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_increase([res(1)], res(0))

    def test_completion_increase_is_the_same_rule_on_integers(self):
        assert completion_increase([150, 100, 300], 100) == [0.5, 0.0, 2.0]
        assert completion_increase([7, 9], 3) == relative_increase([res(7), res(9)], res(3))
        with pytest.raises(ValueError, match="baseline completion must be > 0, got -1"):
            completion_increase([1], -1)


class TestCatalog:
    def test_builtin_fixture_loads(self):
        catalog = load_price_catalog(builtin_catalog_path())
        aws = find_price(catalog, "aws", "on_demand", "c5n.18xlarge")
        assert aws.per_node_hour == 3.88
        daint = find_price(catalog, "daint", "on_demand")
        assert daint.per_node_hour == 1.73

    def test_ambiguous_without_instance(self):
        catalog = load_price_catalog(builtin_catalog_path())
        with pytest.raises(ValueError, match="ambiguous"):
            find_price(catalog, "aws", "on_demand")

    def test_missing_combination(self):
        catalog = load_price_catalog(builtin_catalog_path())
        with pytest.raises(ValueError, match="no price"):
            find_price(catalog, "oracle", "committed")

    def test_bad_file(self, tmp_path):
        p = tmp_path / "catalog.csv"
        p.write_text("provider,instance,label,usd_per_hour\nx,y,spot,1.0\n")
        with pytest.raises(ValueError):
            load_price_catalog(p)
