"""Checks of the benchmark itself, at tiny sizes.

Every workload runs and reports every metric BENCHMARK.json declares,
with its unit; a corrupted output counts as a failed operation; and the
runner refuses to measure when the lobflow sources are missing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
from hostclock import HostClock  # noqa: E402
from lobflow import features  # noqa: E402

TINY = harness.Sizes(
    replay_events=3000, replay_gap_ms=150_000,
    build_events=1500, build_gap_ms=60_000,
    T=10, S=3, warm_count=40,
    learn_train=512, learn_val=128, learn_test=256, learn_gap_ms=400_000,
    layers=(8,), batch_size=64, epochs=4, setup_repeats=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, name, trace=False, tamper=None):
    return harness.measure(name, seed=3, seconds=0, trace=trace, root=ROOT, sizes=TINY,
                           work_root=tmp_path, tamper=tamper)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workload_reports_every_metric(tmp_path, name, trace):
    outcome = _run(tmp_path, name, trace)
    result = outcome.result
    assert result["correct"], outcome.failures
    assert result["failed"] == 0 and result["attempted"] >= 5
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    assert outcome.extra["error_rate"] == (0.0, "ratio")


def test_traced_layers_account_for_their_work(tmp_path):
    m = {k: v["value"] for k, v in _run(tmp_path, "build", trace=True).result["metrics"].items()}
    assert m["feed.events"] == TINY.build_events == m["lob.apply_calls"]
    assert m["lob.snapshot_calls"] == m["lob.apply_calls"] - TINY.warm_count
    assert m["features.samples"] > 0 and 0 < m["features.sample_yield"] <= 1
    assert m["features.window_bytes"] > 0 and m["features.ds_bytes"] > 0
    assert m["net.train_steps"] == 0


def _flip_first_label(name, inp, out, result):
    path = out / f"{harness.PAIR}.orderflow.ds"
    ds = features.load_dataset(path)
    ds.y[0] ^= 1
    features.save_dataset(ds, path)


def _flip_first_prediction(name, inp, out, result):
    path = out / f"pred_{harness.PAIR}__{harness.PAIR}.orderflow.test.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    cols = lines[row].split(",")
    cols[2] = str(1 - int(cols[2]))
    lines[row] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def _inflate_first_day_volume(name, inp, out, result):
    result[0].values[0] += 1.0


@pytest.mark.parametrize("name,tamper,check", [
    ("replay", _inflate_first_day_volume, "daily executed volume"),
    ("build", _flip_first_label, "planted label"),
    ("learn", _flip_first_prediction, "predictions reproduce"),
])
def test_corrupted_output_counts_as_failure(tmp_path, name, tamper, check):
    outcome = _run(tmp_path, name, tamper=tamper)
    result = outcome.result
    assert not result["correct"]
    assert any(check in f for f in outcome.failures), outcome.failures
    assert outcome.extra["error_rate"][0] == result["failed"] / result["attempted"] > 0


def test_refuses_to_measure_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no lobflow sources" in proc.stderr


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_host_clock_times_the_region_and_restores_the_alarm(kernel):
    before = signal.getsignal(signal.SIGALRM)
    value, timing = HostClock(kernel).time(lambda: sum(i * i for i in range(300_000)))
    assert value == sum(i * i for i in range(300_000))
    assert timing.wall_s > 0 and timing.slowdown > 0
    assert timing.ref_s == timing.wall_s / timing.slowdown
    assert signal.getsignal(signal.SIGALRM) is before
