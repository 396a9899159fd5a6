"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest perfbench/test_perfbench.py

Each run starts the log service in a child process, as the benchmark does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
import report  # noqa: E402
from pkisn.validation import Reason  # noqa: E402

# Every size of a workload is multiplied by this in the tests.
SCALE = 0.1


def small(name: str) -> harness.Workload:
    return harness.WORKLOADS[name].scaled(SCALE)


def counts(result: harness.RunResult) -> dict[str, float]:
    units = dict(report.PER_LAYER)
    return {k: v for k, (v, unit) in report.per_layer(result).items() if units[k] in ("count", "bytes")}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_gives_same_counts_and_roots(name, tmp_path):
    w = small(name)
    first = harness.run(w, 7, 1.0, tmp_path / "a", trace=True, periods=3)
    second = harness.run(w, 7, 1.0, tmp_path / "b", trace=True, periods=3)
    assert first.checks.failed == 0, first.checks.messages
    assert second.checks.failed == 0, second.checks.messages
    assert counts(first) == counts(second)
    assert counts(first)["crypto.verify_per_chain"] == 3
    assert counts(first)["timetree.append_calls_per_sync"] == first.samples.full_sync_entries
    assert first.final_root == second.final_root
    other = harness.run(w, 8, 1.0, tmp_path / "c", trace=False, periods=3)
    assert other.final_root != first.final_root


def test_wrong_expectation_is_counted_as_a_failure(tmp_path, monkeypatch):
    honest = harness.run(small("monitor-catchup"), 3, 1.0, tmp_path / "a", periods=2)
    assert honest.checks.failed == 0, honest.checks.messages

    expected = inputs.expected_reason

    def wrong(info, now):
        return Reason.LEAF_REVOKED if expected(info, now) is None else None

    monkeypatch.setattr(harness.inputs, "expected_reason", wrong)
    result = harness.run(small("monitor-catchup"), 3, 1.0, tmp_path / "b", periods=2)
    assert result.checks.attempted == honest.checks.attempted
    assert result.checks.failed > 0
    assert any(m.startswith(("verdict", "tcrl verdict")) for m in result.checks.messages)
