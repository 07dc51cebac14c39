"""The checked-in perf trajectory and the script that appends to it."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "append_trajectory", REPO / "scripts" / "append_trajectory.py")
append_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(append_trajectory)


def result_lines(metric, unit, values, correct=True, failed=0) -> str:
    return "".join(
        json.dumps({"correct": correct, "attempted": 9, "failed": failed,
                    "metrics": {metric: {"value": v, "unit": unit}}}) + "\n"
        for v in values)


def test_row_from_two_result_files(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    # Pairs: win, win, tie, loss, win -- the tie counts for neither.
    parent.write_text(result_lines("ops_per_mcalop", "op/mcalop",
                                   [100.0, 102.0, 104.0, 106.0, 108.0]))
    change.write_text(result_lines("ops_per_mcalop", "op/mcalop",
                                   [110.0, 103.0, 104.0, 101.0, 120.0]))
    row = append_trajectory.make_row(17, "abc1234", "engine-heuristic",
                                     "ops_per_mcalop", parent, change)
    assert row == {
        "pr": 17, "commit": "abc1234", "workload": "engine-heuristic",
        "metric": "ops_per_mcalop", "unit": "op/mcalop",
        "parent": {"median": 104.0, "q1": 101.0, "q3": 107.0},
        "change": {"median": 104.0, "q1": 102.0, "q3": 115.0},
        "pairs": 5, "pairs_won": 3, "claimed": False}

    # A lower-is-better metric flips who wins a pair.
    parent.write_text(result_lines("setup_s", "s", [0.9, 0.8, 0.7]))
    change.write_text(result_lines("setup_s", "s", [0.8, 0.8, 0.9]))
    row = append_trajectory.make_row(17, "abc1234", "grid-pool", "setup_s",
                                     parent, change)
    assert (row["pairs"], row["pairs_won"], row["unit"]) == (3, 1, "s")

    change.write_text(result_lines("setup_s", "s", [0.8, 0.8]))
    with pytest.raises(SystemExit, match="pair up"):
        append_trajectory.make_row(17, "abc1234", "grid-pool", "setup_s",
                                   parent, change)


@pytest.mark.parametrize("broken", [{"correct": False}, {"failed": 1}],
                         ids=["incorrect", "failed-ops"])
def test_a_broken_run_is_refused_not_counted_as_a_win(tmp_path, broken):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(result_lines("ops_per_mcalop", "op/mcalop",
                                   [100.0, 102.0, 104.0]))
    # The broken run is the fastest of all: counted, it would be a win.
    change.write_text(
        result_lines("ops_per_mcalop", "op/mcalop", [110.0])
        + result_lines("ops_per_mcalop", "op/mcalop", [500.0], **broken)
        + result_lines("ops_per_mcalop", "op/mcalop", [111.0]))
    with pytest.raises(SystemExit, match=f"{change.name}:2: "):
        append_trajectory.make_row(27, "abc1234", "mocc-warm",
                                   "ops_per_mcalop", parent, change)


@pytest.mark.parametrize("pairs", [0, 1])
def test_fewer_than_two_pairs_is_a_clear_refusal(tmp_path, pairs):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(result_lines("ops_per_mcalop", "op/mcalop",
                                   [100.0] * pairs))
    change.write_text(result_lines("ops_per_mcalop", "op/mcalop",
                                   [110.0] * pairs))
    with pytest.raises(SystemExit, match="at least two pairs"):
        append_trajectory.make_row(27, "abc1234", "mocc-warm",
                                   "ops_per_mcalop", parent, change)


def test_checked_in_trajectory_is_what_the_script_writes():
    text = (REPO / "BENCH_trajectory.json").read_text()
    rows = json.loads(text)
    assert append_trajectory.dump_rows(rows) == text
    assert [row["pr"] for row in rows] == sorted(row["pr"] for row in rows)
    assert {row["pr"] for row in rows} >= set(range(11, 18))
    for row in rows:
        assert list(row) == ["pr", "commit", "workload", "metric", "unit",
                             "parent", "change", "pairs", "pairs_won",
                             "claimed"]
        assert list(row["parent"]) == list(row["change"]) == [
            "median", "q1", "q3"]
