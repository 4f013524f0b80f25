"""Unit tests for the A/B protocol's pure helpers (``scripts/ab.py``).

Only the report logic is tested, on canned perfbench output lines; no
benchmark runs here.
"""

import importlib.util
import json
import os
import sys

import pytest

_AB_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "scripts", "ab.py"
)

_spec = importlib.util.spec_from_file_location("ab_script", _AB_PATH)
ab = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("ab_script", ab)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "runs_per_s", "unit": "runs/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _line(runs_per_s, setup_s, rss, failed=0):
    """One perfbench stdout: report lines, then the JSON result line."""
    result = {
        "correct": failed == 0,
        "attempted": 500,
        "failed": failed,
        "metrics": {
            "runs_per_s": {"value": runs_per_s, "unit": "runs/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "perfbench: workload=warm-service\nend-to-end ...\n" + json.dumps(result) + "\n"


def _runs(rows):
    return [ab.parse_result(_line(*row)) for row in rows]


class TestPairTable:
    def test_parse_result_reads_the_last_line(self):
        result = ab.parse_result(_line(10.0, 0.4, 80.0))
        assert result["metrics"]["runs_per_s"]["value"] == 10.0

    def test_quartiles_of_a_sample(self):
        assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_higher_is_better_gain_and_pairs_won(self):
        row = ab.compare_metric([10, 11, 12, 13], [15, 16, 12, 18], "higher", 0.25)
        assert row["won"] == 3  # the tie in the third pair is not a win
        assert row["parent"] == (11.5, 10.75, 12.25)
        assert row["gain"] == pytest.approx(15.5 - 11.5)
        assert row["gain_beyond_iqr"]
        assert row["verdict"].startswith("within")

    def test_lower_is_better_counts_drops_as_wins(self):
        row = ab.compare_metric([0.40, 0.42, 0.41], [0.35, 0.36, 0.43], "lower", 0.25)
        assert row["won"] == 2
        assert row["gain"] == pytest.approx(0.41 - 0.36)

    def test_regression_beyond_bound_and_unresolved_spread(self):
        worse = ab.compare_metric([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "lower", 0.1)
        assert worse["verdict"].startswith("BEYOND")
        wide = ab.compare_metric([0.3, 0.4, 0.6], [0.35, 0.4, 0.45], "lower", 0.25)
        assert wide["verdict"].startswith("unresolved")
        apart = ab.compare_metric([0.3, 0.4, 0.6], [0.2, 0.25, 0.28], "lower", 0.25)
        assert apart["verdict"] == "better in every run"

    def test_table_lists_every_pair_then_one_row_per_metric(self):
        parent = _runs([(1800, 0.40, 86.0), (1900, 0.41, 86.1), (1850, 0.39, 86.0)])
        change = _runs([(3100, 0.40, 87.0), (3300, 0.42, 87.2), (3200, 0.38, 87.1)])
        lines = ab.pair_table(parent, change, END_TO_END, [920, 921, 922])
        assert lines[1].split()[:3] == ["0", "920", "parent"]
        assert lines[2].split()[:3] == ["1", "921", "change"]
        (runs_row,) = [line for line in lines if line.startswith("runs_per_s")]
        assert "change won 3/3" in runs_row and "gain > parent IQR" in runs_row
        (rss_row,) = [line for line in lines if line.startswith("peak_rss_mb")]
        assert "change won 0/3" in rss_row and "within bound 0.1" in rss_row
        assert "parent: failed 0 in all runs, correct in every run: True" in lines

    def test_failed_runs_are_reported(self):
        parent = _runs([(10.0, 0.4, 80.0)])
        change = _runs([(11.0, 0.4, 80.0, 2)])
        lines = ab.pair_table(parent, change, END_TO_END, [0])
        assert "change: failed 2 in all runs, correct in every run: False" in lines


def _layers(**values):
    units = {"us": "us/task", "ns": "ns/step", "count": "frames/step", "share": "fraction"}
    return {
        name: {"value": value, "unit": units[name.split("_")[0]]}
        for name, value in values.items()
    }


class TestLayerDiff:
    def test_names_only_layers_beyond_the_common_drift(self):
        parent = _layers(
            ns_a=100.0, ns_b=200.0, ns_c=300.0, ns_d=400.0, us_hook=1000.0,
            count_frames=3.9, count_publishes=4.3, share_rows=0.0,
        )
        # The host ran 20 % slower for everything, the hook got 2.5x faster,
        # publishes fell as a count, and the dense rows never ran.
        change = _layers(
            ns_a=120.0, ns_b=240.0, ns_c=360.0, ns_d=480.0, us_hook=480.0,
            count_frames=3.9, count_publishes=0.5, share_rows=0.0,
        )
        lines, moved = ab.layer_diff(parent, change)
        assert moved == ["us_hook", "count_publishes"]
        assert lines[0].startswith(
            "common drift: median change/parent ratio of 5 time layers = 1.200"
        )
        assert not any(line.startswith("share_rows") for line in lines)
        assert lines[-1] == "moved beyond the common drift: us_hook, count_publishes"

    def test_one_sided_zero_moved_and_tracer_rows_are_left_out(self):
        parent = _layers(ns_a=100.0, ns_b=100.0, us_new=0.0)
        parent["trace.overhead_share"] = {"value": 0.01, "unit": "fraction"}
        change = _layers(ns_a=101.0, ns_b=99.0, us_new=50.0)
        change["trace.overhead_share"] = {"value": 0.09, "unit": "fraction"}
        _, moved = ab.layer_diff(parent, change)
        assert moved == ["us_new"]
