"""The verdicts of tools/bench_pairs.py: the benchmark's regression rule
per end-to-end metric, and the passes each side ran."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def test_regression_rule_flags_a_metric_past_its_bound():
    # vev-ladder medians of a refused change: faster, yet peak RSS rose 14.3%
    assert bench_pairs.worse_than_bound(32.24, 36.84, METRICS["peak_rss_mb"])
    assert not bench_pairs.worse_than_bound(0.4407, 0.3351, METRICS["wall_s"])
    # within the bound, and at it, is not worse
    assert not bench_pairs.worse_than_bound(32.24, 35.0, METRICS["peak_rss_mb"])
    assert not bench_pairs.worse_than_bound(1.0, 1.25, METRICS["wall_s"])
    higher = dict(METRICS["wall_s"], better="higher")
    assert bench_pairs.worse_than_bound(1.0, 0.7, higher)
    assert not bench_pairs.worse_than_bound(1.0, 1.3, higher)


def _result(rss: float, wall: float, passes: int) -> dict:
    values = dict.fromkeys(METRICS, 1.0) | {"peak_rss_mb": rss, "wall_s": wall}
    return {"metrics": {name: {"value": v} for name, v in values.items()},
            "summary": {"passes": passes}}


def test_summary_reports_the_bound_verdict_and_the_passes():
    pairs = [(_result(32.24, 0.4407, 80), _result(36.84, 0.3351, 105))] * 3
    summary = bench_pairs._summary(pairs, SPEC)
    assert summary["peak_rss_mb"]["worse_than_bound"]
    assert summary["peak_rss_mb"]["bound"] == 0.1
    assert not summary["wall_s"]["worse_than_bound"]
    assert summary["wall_s"]["wins"] == 3
    pairs[1] = (_result(32.24, 0.4407, 90), _result(36.84, 0.3351, 95))
    assert bench_pairs._passes(pairs) == {"parent": 80, "change": 105}
