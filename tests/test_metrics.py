"""Tests for the performance and complexity measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.chain import ActivityChain, ActivityNode, ProcessModel
from ctxflow.fragments import FragmentRepository
from ctxflow.graph import ContextGraph
from ctxflow.metrics import (
    CostParams,
    HalsteadCounts,
    execution_time,
    extended_counts,
    halstead,
    structural_metrics,
)

from oracles import halstead_oracle


def bare_model(n):
    chain = ActivityChain.from_nodes(
        [ActivityNode(id="a%d" % i, sub_goal="s%d" % i) for i in range(n)]
    )
    return ProcessModel(
        ContextGraph.build([], []),
        chain,
        FragmentRepository((), {}),
        (),
        {},
    )


class TestExecutionTime:
    def test_zero_activities(self):
        assert execution_time(CostParams(n=0)) == 0

    def test_unit_costs_give_five_per_activity(self):
        assert execution_time(CostParams(n=5)) == 25

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostParams(n=1, t_a=-1)

    @given(
        n=st.integers(0, 100),
        costs=st.tuples(*[st.floats(0, 100) for _ in range(5)]),
    )
    @settings(max_examples=100)
    def test_linearity(self, n, costs):
        ta, tp, tcm, tth, cct = costs
        p1 = CostParams(n, ta, tp, tcm, tth, cct)
        p2 = CostParams(2 * n, ta, tp, tcm, tth, cct)
        assert execution_time(p2) == pytest.approx(2 * execution_time(p1))
        assert execution_time(p1) == pytest.approx(
            n * (ta + tp + tcm + tth + cct)
        )


class TestStructuralMetrics:
    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_mcc_extra_is_constant_two(self, n):
        assert structural_metrics(bare_model(n), n)["mcc_extra"] == 2

    def test_ideal_state_has_no_extra_activities(self):
        report = structural_metrics(bare_model(5), base_activity_count=5)
        assert report["noa_extra"] == 0
        assert set(report) == {"n", "noa_extra", "mcc_extra", "cfc"}

    def test_adapted_model_counts_additions(self):
        report = structural_metrics(bare_model(8), base_activity_count=5)
        assert report["noa_extra"] == 3

    def test_cfc_equals_base_split_branches(self):
        report = structural_metrics(bare_model(3), 3, base_split_branches=4)
        assert report["cfc"] == 4

    def test_no_gateways_means_zero_cfc(self):
        assert structural_metrics(bare_model(3), 3)["cfc"] == 0


class TestHalstead:
    def test_documented_example(self):
        out = halstead(HalsteadCounts(3, 2, 6, 4))
        assert out["length"] == pytest.approx(6.75488, abs=1e-4)
        assert out["volume"] == pytest.approx(23.21928, abs=1e-4)
        assert out["difficulty"] == pytest.approx(3.0)

    def test_unit_counts_give_zero_length(self):
        assert halstead(HalsteadCounts(1, 1, 1, 1))["length"] == 0

    def test_difficulty_collapses_when_totals_equal_uniques(self):
        out = halstead(HalsteadCounts(6, 3, 9, 3))
        assert out["difficulty"] == pytest.approx(3.0)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            HalsteadCounts(0, 1, 1, 1)
        with pytest.raises(ValueError):
            HalsteadCounts(2, 1, 1, 1)

    @given(
        n1=st.integers(1, 50),
        n2=st.integers(1, 50),
        extra1=st.integers(0, 50),
        extra2=st.integers(0, 50),
    )
    @settings(max_examples=200)
    def test_matches_independent_evaluation(self, n1, n2, extra1, extra2):
        counts = HalsteadCounts(n1, n2, n1 + extra1, n2 + extra2)
        got = halstead(counts)
        want = halstead_oracle(n1, n2, n1 + extra1, n2 + extra2)
        for key in ("length", "volume", "difficulty"):
            assert got[key] == pytest.approx(want[key], rel=1e-9)

    def test_extended_counts_add_one_unique_construct(self):
        base = HalsteadCounts(3, 2, 6, 4)
        out = extended_counts(base, n=5)
        assert (out.n1, out.n2, out.N1, out.N2) == (4, 3, 11, 9)
