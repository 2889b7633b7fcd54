"""The benchmark's quick rounds run on the program as it is.

``perfbench/workloads.py`` calls the program through names such as
``membership.membership_report``, ``catalog.FamilyRecord(membership=...)``
and ``NormalizationPlan.eliminated``.  A refactor that drops one of them
passes every other test and fails only the benchmark run; each round here
runs in-process on its quick inputs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_round_has_no_problems(workload, tmp_path):
    state = workloads.prepare(workload, 0, quick=True)
    state["out"] = tmp_path
    rnd = workloads.ROUNDS[workload](state)
    assert rnd.problems == []
    assert "error" not in rnd.detail
    assert rnd.attempted > 0
