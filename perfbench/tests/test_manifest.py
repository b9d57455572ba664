"""The result line's metrics agree with ``BENCHMARK.json``.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import sys

import pytest

from perfbench import harness, run

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The workloads import the program, as ``run.main`` lets them.
sys.path.insert(0, str(run.ROOT / "src"))


def test_manifest_names_and_units_match_the_result_line():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_maps_the_headline_and_all_three_layers(workload):
    module = importlib.import_module(run.WORKLOADS[workload])
    assert set(module.HEADLINE) <= set(run.END_TO_END)
    assert set(module.CATEGORY.values()) == {"emissions", "recursion", "orchestration"}


def test_headline_renames_the_workload_figures():
    class Module:
        HEADLINE = {"tokens_per_s": "fit_tokens_per_s", "latency_ms": "decode_p90_ms"}

    out = harness.Outcome()
    out.put("fit_tokens_per_s", 5.0, "tok/s")
    out.put("decode_p90_ms", 2.0, "ms")
    for name in ("accuracy", "setup_s", "peak_rss_mb"):
        out.put(name, 1.0, run.END_TO_END[name])
    shown = run.headline(Module, out)
    assert list(shown) == list(run.END_TO_END)
    assert shown["tokens_per_s"].value == 5.0
    out.put("decode_p90_ms", 2.0, "s")
    with pytest.raises(ValueError):
        run.headline(Module, out)


def test_put_rate_reports_the_slow_percentile_and_keeps_the_samples():
    out = harness.Outcome()
    work = [100.0] * 10
    seconds = [1.0] * 9 + [2.0]  # nine samples at 100/s, one at 50/s
    out.put_rate("rate", work, seconds, "chunks")
    assert out.metrics["rate"].value == pytest.approx(95.0)  # p10 interpolates 50 -> 100
    assert out.metrics["rate"].n == 10
    assert sorted(out.samples["rate"]) == [50.0] + [100.0] * 9
    out.put_time("time", seconds, "calls")
    assert out.metrics["time"].value == pytest.approx(1100.0)  # p90 of ..., 1000, 2000
    assert out.metrics["time"].unit == "ms"
