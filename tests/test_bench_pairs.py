"""tools/bench_pairs.py: its pairs alternate the side that runs first, and
on synthetic pairs whose first side reads high by a known factor, the
order-balanced ratio of its summary is the true ratio."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(true_ratio, first_factor, bases):
    """Alternating pairs: the change reads true_ratio times the parent, and
    the side that runs first reads first_factor times its value."""
    pairs = []
    for i, base in enumerate(bases):
        first = ("parent", "change")[i % 2]
        values = {"parent": base, "change": true_ratio * base}
        values[first] *= first_factor
        pairs.append({"first": first, **{side: {"s": v} for side, v in values.items()}})
    return pairs


@pytest.mark.parametrize("true_ratio, first_factor", [(0.85, 1.1), (1.0, 1.1), (1.2, 0.93), (0.5, 1.0)])
def test_order_balanced_ratio_cancels_the_first_side(true_ratio, first_factor):
    compare = _bench_pairs().compare
    summary = compare(_pairs(true_ratio, first_factor, [1.0, 1.3, 0.9, 1.1, 1.2, 0.95, 1.05, 1.0, 0.8, 1.15]), "s")
    by_first = summary["pair_ratio_median_by_first"]
    assert by_first["parent"] == pytest.approx(true_ratio / first_factor, abs=1e-3)
    assert by_first["change"] == pytest.approx(true_ratio * first_factor, abs=1e-3)
    assert summary["order_balanced_ratio"] == pytest.approx(true_ratio, abs=1e-3)
    assert summary["change_lower"] == sum(r < 1 for r in summary["pair_ratios"])


def test_order_balanced_ratio_needs_both_orders():
    summary = _bench_pairs().compare(_pairs(0.9, 1.1, [1.0]), "s")
    assert summary["pair_ratio_median_by_first"] == {"parent": pytest.approx(0.818, abs=1e-3), "change": None}
    assert summary["order_balanced_ratio"] is None


def test_pairs_alternate_from_the_parent_and_hold_both_sides():
    """fresh_pairs runs one pair per run through pair: the parent first in
    even pairs, the change first in odd ones, each record both sides."""
    calls = []

    def measure(side):
        calls.append(side)
        return {"s": len(calls)}

    pairs = _bench_pairs().fresh_pairs({"parent": "P", "change": "C"}, "fake", 4, measure)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert pairs[1] == {"first": "change", "change": {"s": 3}, "parent": {"s": 4}}
    assert all(set(p) == {"first", "parent", "change"} for p in pairs)
