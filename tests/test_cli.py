import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _counting_forks, _cpus, _has_children
from lobflow import cli, container, features, feed, lob, net, shards, stats


def base_config(root: Path, split_ranges=None, n_events=16000):
    return {
        "version": 1,
        "seed": 7,
        "pairs": {
            "AAA": {"input": str(root / "AAA.ofr")},
            "BBB": {"input": str(root / "BBB.ofr")},
        },
        "generator": {
            "n_events": n_events,
            "mean_gap_ms": 90000,   # ~17 days of stream, so the test split covers >3
            "min_gap_ms": 1,
            "planted": feed.PLANTED_LAST_EVENT_SIDE,
        },
        "warm_up": {"count": 100},
        "T": 10,
        "S": 3,
        "split_ranges": split_ranges,
        "model": {"layers": [8], "dense_hidden": [],
                  "emb_dims": {"kind": 2, "side": 2, "hour": 4}, "dropout": 0.05},
        "schedule": {"epochs": 4, "batch_size": 64, "lr": 3e-3, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-8, "patience": 10},
    }


def write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def stream_span(path) -> tuple[int, int]:
    events = list(feed.read_events(path))
    return events[0].timestamp_ms, events[-1].timestamp_ms


def default_ranges(root: Path) -> dict:
    lo, hi = stream_span(root / "AAA.ofr")
    lo2, hi2 = stream_span(root / "BBB.ofr")
    lo, hi = min(lo, lo2), max(hi, hi2) + 1
    a = lo + int((hi - lo) * 0.6)
    b = lo + int((hi - lo) * 0.8)
    return {"train": [lo, a], "validation": [a, b], "test": [b, hi]}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """generate -> build -> train -> evaluate (same + cross pair) -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "out"
    cfgfile = write_config(root / "run.json", base_config(root))
    assert cli.main(["generate", "--config", cfgfile, "--out", str(out)]) == 0

    cfg = base_config(root, split_ranges=default_ranges(root))
    cfgfile = write_config(root / "run.json", cfg)
    assert cli.main(["build", "--config", cfgfile, "--out", str(out)]) == 0
    assert cli.main(["train", "--config", cfgfile, "--out", str(out),
                     "--pair", "AAA", "--variant", "orderflow"]) == 0
    ckpt = out / "AAA.orderflow.ckpt"
    assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--dataset", str(out / "AAA.orderflow.ds"),
                     "--split", "test", "--out", str(out)]) == 0
    assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                     "--dataset", str(out / "BBB.orderflow.ds"),
                     "--split", "test", "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out),
                     "--stream", str(root / "AAA.ofr")]) == 0
    return {"root": root, "out": out, "config": cfg, "cfgfile": cfgfile}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


TRAIN = "train --pair X --variant orderflow"


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.CliError):
            cli.load_config(tmp_path / "nope.json")

    def test_bad_version(self, tmp_path):
        p = write_config(tmp_path / "c.json", {"version": 9, "pairs": {"X": {}}})
        with pytest.raises(cli.CliError):
            cli.load_config(p)

    def test_no_pairs(self, tmp_path):
        p = write_config(tmp_path / "c.json", {"version": 1})
        with pytest.raises(cli.CliError):
            cli.load_config(p)

    def test_seed_override_and_merge(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         {"pairs": {"X": {"input": "x.ofr"}},
                          "schedule": {"lr": 0.5}})
        cfg = cli.load_config(p, seed_override=42)
        assert cfg["seed"] == 42
        assert cfg["schedule"]["lr"] == 0.5
        assert cfg["schedule"]["epochs"] == cli.CONFIG_DEFAULTS["schedule"]["epochs"]

    @pytest.mark.parametrize("patch,key", [
        ({"bogus": 1}, "'bogus'"),
        ({"generator": {"bogus": 1}}, "'generator.bogus'"),
        ({"warm_up": {"bogus": 1}}, "'warm_up.bogus'"),
        ({"model": {"bogus": 1}}, "'model.bogus'"),
        ({"schedule": {"bogus": 1}}, "'schedule.bogus'"),
        ({"pairs": {"X": {"input": "x.ofr", "bogus": 1}}}, "'pairs.X.bogus'"),
    ])
    def test_unknown_key_named(self, tmp_path, patch, key):
        cfg = {"pairs": {"X": {"input": "x.ofr"}}, **patch}
        with pytest.raises(cli.CliError, match=key):
            cli.load_config(write_config(tmp_path / "c.json", cfg))

    def test_free_form_blocks_accepted(self, tmp_path):
        cfg = {"pairs": {"X": {"input": "x.ofr"}},
               "search": {"lr": [1e-3]}, "split_ranges": {"train": [0, 1], "note": "x"}}
        loaded = cli.load_config(write_config(tmp_path / "c.json", cfg))
        assert loaded["search"] == cfg["search"]
        assert loaded["split_ranges"] == cfg["split_ranges"]

    def test_largest_sizes_accepted(self, tmp_path):
        # the bounds are checked on the config alone: nothing is read or built
        cfg = {"pairs": {"X": {"input": "x.ofr"}}, "T": cli.MAX_T, "S": cli.MAX_S,
               "model": {"layers": [net.MAX_WIDTH], "dense_hidden": [net.MAX_WIDTH]}}
        loaded = cli.load_config(write_config(tmp_path / "c.json", cfg))
        assert (loaded["T"], loaded["S"]) == (cli.MAX_T, cli.MAX_S)

    @pytest.mark.parametrize("name", ["AAA", "X", "FIX", "DEMO", "BENCH", "BTC-USD",
                                      "0x", "a.b_c-d"])
    def test_pair_name_accepted(self, tmp_path, name):
        cfg = {"pairs": {name: {"input": "x.ofr"}}}
        assert list(cli.load_config(write_config(tmp_path / "c.json", cfg))["pairs"]) == [name]

    def test_unknown_generator_key_is_error_exit(self, tmp_path, capsys):
        cfg = {"pairs": {"X": {"input": str(tmp_path / "x.ofr")}}, "generator": {"bogus": 1}}
        p = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        rc = cli.main(["generate", "--config", p, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bogus" in err[0]
        assert not (tmp_path / "x.ofr").exists()

    @pytest.mark.parametrize("command,patch,key", [
        ("build", {"S": 0}, "'S'"),
        ("build", {"T": "x"}, "'T'"),
        ("build", {"T": 0}, "'T'"),
        ("build", {"T": True}, "'T'"),
        ("build", {"T": cli.MAX_T + 1}, "'T' must be at most"),
        ("build", {"S": cli.MAX_S + 1}, "'S' must be at most"),
        ("build", {"warm_up": {"count": "x"}}, "'warm_up.count'"),
        ("build", {"warm_up": {"count": -1}}, "'warm_up.count'"),
        ("build", {"warm_up": {"ts": 1.5}}, "unknown config key 'warm_up.ts'"),
        ("build", {"split_ranges": {"train": [0, 1]}}, "'split_ranges.validation'"),
        ("build", {"split_ranges": {"train": [0, 1], "validation": [1, 2], "test": [2]}},
         "'split_ranges.test'"),
        ("build", {"split_ranges": [[0, 1], [1, 2], [2, 3]]}, "split_ranges"),
        ("build", {"split_ranges": {"train": [0, 1.5], "validation": [2, 3], "test": [3, 4]}},
         "'split_ranges.train'"),
        ("build", {"split_ranges": {"train": [1, 0], "validation": [1, 2], "test": [2, 3]}},
         "'split_ranges.train'"),
        ("build", {"split_ranges": {"train": [0, 2], "validation": [1, 3], "test": [3, 4]}},
         "split_ranges train and validation overlap"),
        ("build", {"split_ranges": {"train": [0, 1], "validation": [3, 4], "test": [1, 2]}},
         "split_ranges validation must precede test"),
        ("generate", {"version": True}, "'version'"),
        ("generate", {"version": 1.0}, "'version'"),
        ("generate", {"version": "1"}, "'version'"),
        ("generate", {"generator": {"n_events": "x"}}, "n_events"),
        ("generate", {"generator": {"n_events": 1e3}}, "n_events"),
        ("generate", {"generator": {"prop_cancel": None}}, "prop_cancel"),
        ("generate", {"seed": "x"}, "'seed'"),
        ("generate", {"seed": 1.5}, "'seed'"),
        ("generate", {"seed": -1}, "'seed'"),
        ("build", {"seed": True}, "'seed'"),
        ("generate --seed -1", {}, "'seed'"),
        ("build", {"generator": {"n_events": "x"}}, "'generator': n_events"),
        ("generate", {"generator": {"mean_gap_ms": 0, "min_gap_ms": 1}},
         "'generator': min_gap_ms"),
        ("generate", {"generator": {"mean_gap_ms": 4611686018427387904}},
         "'generator': mean_gap_ms must be at most 2147483647"),
        # the generated ts would pass 2**63 - 1, which `build` refuses
        ("generate", {"generator": {"start_ts": 9223372036854775000}},
         "'generator': start_ts + n_events * 2 * mean_gap_ms"),
        ("generate", {"pairs": {"X": {"generator": {"n_events": 5}}}},
         "unknown config key 'pairs.X.generator'"),
        ("generate", {"pairs": {"X": {"input": 5}}}, "'pairs.X.input'"),
        # a pair name is a file stem, a CSV cell, a `# key=value` line and SVG text
        *[(command, {"pairs": {name: {}}}, f"pair name {name!r}")
          for command in ("generate", "build")
          for name in ("A&B", "A\nB", "A\n", "A/B", "../x", "..", ".x", "-x", "_x",
                       "A B", "A<B", "A,B", "", "\u00c5")],
        (TRAIN, {"model": {"layers": []}}, "'model': layers"),
        (TRAIN, {"model": {"layers": [0]}}, "'model': layers"),
        (TRAIN, {"model": {"layers": [8, net.MAX_WIDTH + 1]}},
         "'model': layers entry must be at most"),
        (TRAIN, {"model": {"dense_hidden": [2.5]}}, "'model': dense_hidden"),
        (TRAIN, {"model": {"emb_dims": {"hour": 0}}}, "'model': emb_dims.hour"),
        (TRAIN, {"model": {"emb_dims": {"hour": 10 ** 9}}},
         "'model': emb_dims.hour must be at most"),
        (TRAIN, {"model": {"emb_dims": {"day": 2}}}, "'model': emb_dims"),
        (TRAIN, {"model": {"dropout": 1.0}}, "'model': dropout"),
        (TRAIN, {"schedule": {"epochs": 0}}, "'schedule': epochs"),
        (TRAIN, {"schedule": {"batch_size": 0}}, "'schedule': batch_size"),
        (TRAIN, {"schedule": {"lr": -1.0}}, "'schedule': lr"),
        (TRAIN, {"schedule": {"lr": "x"}}, "'schedule': lr"),
        (TRAIN, {"schedule": {"patience": None}}, "'schedule': patience"),
        (TRAIN, {"schedule": {"beta1": 1.0}}, "'schedule': beta1"),
        (TRAIN, {"schedule": {"eps": 0}}, "'schedule': eps"),
        (TRAIN, {"search": "x"}, "'search'"),
        (TRAIN, {"search": [1]}, "'search'"),
        (TRAIN, {"search": {"space": {"lr": [1e-3]}}}, "'search'"),
        (TRAIN, {"search": {"budget": 1}}, "'search'"),
        (TRAIN, {"search": {"space": "x", "budget": 1}}, "'search.space'"),
        (TRAIN, {"search": {"space": {"lr": 1e-3}, "budget": 1}}, "'search.space'"),
        (TRAIN, {"search": {"space": {"lr": []}, "budget": 1}}, "'search.space'"),
        (TRAIN, {"search": {"space": {"lr": [1e-3]}, "budget": "x"}}, "'search.budget'"),
        (TRAIN, {"search": {"space": {"lr": [1e-3]}, "budget": 0}}, "'search.budget'"),
        # the dataset sets these, and the run its seed
        *[(TRAIN, {"search": {"space": {key: [value]}, "budget": 1}},
           f"unknown config key 'search.space.{key}'")
          for key, value in (("norm_sd", [1, 1, 1]), ("norm_mean", [0, 0, 0]),
                             ("variant", "bench1"), ("S", 2), ("seed", 3))],
        ("gradcheck --seed -1", {}, "--seed"),
        ("gradcheck --n -1", {}, "--n"),
        ("selftest --seed -1", {}, "--seed"),
        ("selftest --events -1", {}, "--events"),
        (f"selftest --events {feed.MAX_EVENTS + 1}", {}, "n_events"),
    ])
    def test_malformed_value_is_error_exit(self, tmp_path, capsys, command, patch, key):
        cfg = {"pairs": {"X": {"input": str(tmp_path / "x.ofr")}},
               "split_ranges": {"train": [0, 1], "validation": [1, 2], "test": [2, 3]},
               **copy.deepcopy(patch)}
        for pair in cfg["pairs"].values():
            pair.setdefault("input", str(tmp_path / "x.ofr"))
        p = write_config(tmp_path / "c.json", cfg)
        argv = command.split()
        if argv[0] in ("generate", "build", "train"):
            argv += ["--config", p, "--out", str(tmp_path / "out")]
        capsys.readouterr()
        rc = cli.main(argv)
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_unknown_pair_is_error_exit(self, pipeline):
        rc = cli.main(["build", "--config", pipeline["cfgfile"],
                       "--out", str(pipeline["out"]), "--pair", "ZZZ"])
        assert rc == cli.EXIT_ERROR


# ---------------------------------------------------------------------------
# pipeline outputs
# ---------------------------------------------------------------------------


class TestPipelineOutputs:
    def test_generated_streams_exist_and_differ(self, pipeline):
        a = (pipeline["root"] / "AAA.ofr").read_bytes()
        b = (pipeline["root"] / "BBB.ofr").read_bytes()
        assert a and b and a != b

    def test_datasets_built_for_all_variants(self, pipeline):
        for pair in ("AAA", "BBB"):
            for variant in features.VARIANTS:
                ds = features.load_dataset(pipeline["out"] / f"{pair}.{variant}.ds")
                assert ds.n > 200
                assert all(v > 0 for v in ds.split_counts().values())
                assert ds.norm_stats is not None

    def test_build_report_digests_match_files(self, pipeline):
        report = json.loads((pipeline["out"] / "build_report.json").read_text())
        for pair, variants in report["pairs"].items():
            for variant, info in variants.items():
                ds = features.load_dataset(pipeline["out"] / info["path"])
                assert features.dataset_digest(ds) == info["digest"]
                # the `<4sII` prefix ends with the header length; the
                # header ends with the file's hex digest
                data = (pipeline["out"] / info["path"]).read_bytes()
                end = 12 + int.from_bytes(data[8:12], "little")
                assert data[end - 64:end].decode("ascii") == info["digest"]

    def test_checkpoint_and_log(self, pipeline):
        model, extras = net.load_checkpoint(pipeline["out"] / "AAA.orderflow.ckpt")
        assert extras["train_pair"] == "AAA"
        meta, header, rows = cli._read_csv(pipeline["out"] / "AAA.orderflow.train_log.csv")
        assert header == ["epoch", "train_loss", "val_loss", "val_mcc"]
        assert len(rows) >= 1
        # planted rule is learnable: validation MCC should be high
        assert float(rows[-1][3]) > 0.9

    def test_search_saves_the_winning_trial(self, pipeline, tmp_path):
        # one candidate, so the trials differ only in their seeds; trial 0
        # has the run's seed, and here a later trial wins
        cfg = {**pipeline["config"], "search": {"space": {"epochs": [2]}, "budget": 3}}
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_config(tmp_path / "search.json", cfg),
                         "--out", str(out), "--pair", "AAA", "--variant", "orderflow",
                         "--dataset", str(pipeline["out"] / "AAA.orderflow.ds")]) == cli.EXIT_OK
        _, _, rows = cli._read_csv(out / "AAA.orderflow.search_log.csv")
        losses = [float(r[1]) for r in rows]
        assert losses.index(min(losses)) != 0
        _, extras = net.load_checkpoint(out / "AAA.orderflow.ckpt")
        assert extras["best_val_loss"] == min(losses)
        _, _, log = cli._read_csv(out / "AAA.orderflow.train_log.csv")
        assert min(float(r[2]) for r in log) == min(losses)

    def test_predictions_written(self, pipeline):
        same = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        cross = pipeline["out"] / "pred_AAA__BBB.orderflow.test.csv"
        for p in (same, cross):
            meta, header, rows = cli._read_csv(p)
            assert header == ["timestamp_ms", "y", "yhat", "p1"]
            assert len(rows) > 50
            assert meta["variant"] == "orderflow"

    def test_evaluate_bytes_do_not_depend_on_the_cpu_count(self, pipeline, tmp_path,
                                                          monkeypatch):
        ds = pipeline["out"] / "AAA.orderflow.ds"
        assert features.load_dataset(ds).subset("test").n > 2 * net.PREDICT_CHUNK
        started = _counting_forks(monkeypatch)
        written = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert cli.main(["evaluate", "--checkpoint", str(pipeline["out"] / "AAA.orderflow.ckpt"),
                             "--dataset", str(ds), "--split", "test", "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert started == [1]   # the tail went to a worker only with two CPUs
        assert len(written[0]) == 2 and written[0] == written[1]

    def test_report_files(self, pipeline):
        out = pipeline["out"]
        for name in ("table1_slopes.csv", "table2_drops.csv", "figure1_AAA.svg",
                     "figure1_AAA.csv", "figure2_volume.svg", "figure2_volume.csv",
                     "figure2_price_change.svg", "figure2_price_change.csv"):
            assert (out / name).exists(), name

    def test_table2_equals_direct_stats(self, pipeline):
        out = pipeline["out"]
        meta, header, rows = cli._read_csv(out / "table2_drops.csv")
        assert header[:3] == ["model", "train_pair", "test_pair"]
        assert len(rows) == 1
        variant, train_pair, test_pair = rows[0][:3]
        assert (train_pair, test_pair) == ("AAA", "BBB")

        def overall_mcc(path):
            _, _, prows = cli._read_csv(path)
            y = np.array([int(r[1]) for r in prows])
            yh = np.array([int(r[2]) for r in prows])
            return stats.mcc(stats.confusion(y, yh))

        same = overall_mcc(out / "pred_AAA__AAA.orderflow.test.csv")
        cross = overall_mcc(out / "pred_AAA__BBB.orderflow.test.csv")
        assert float(rows[0][3]) == pytest.approx(same, abs=1e-12)
        assert float(rows[0][4]) == pytest.approx(cross, abs=1e-12)
        assert float(rows[0][5]) == pytest.approx(
            stats.universality_drop(same, cross), abs=1e-9)

    def test_table1_equals_direct_stats(self, pipeline):
        out = pipeline["out"]
        meta, header, rows = cli._read_csv(out / "table1_slopes.csv")
        by_key = {(r[0], r[1]): r for r in rows}
        key = ("AAA", "orderflow")
        if key not in by_key:
            pytest.skip("fewer than 3 test days in fixture stream")
        _, _, prows = cli._read_csv(out / "pred_AAA__AAA.orderflow.test.csv")
        preds = [(int(r[0]), int(r[1]), int(r[2])) for r in prows]
        r = stats.slope_regression(stats.daily_mcc(preds))
        row = by_key[key]
        assert float(row[3]) == pytest.approx(r.slope, abs=1e-12)
        assert float(row[6]) == pytest.approx(r.p_value, abs=1e-12)

    def test_daily_mcc_file_matches_direct(self, pipeline):
        out = pipeline["out"]
        _, _, prows = cli._read_csv(out / "pred_AAA__AAA.orderflow.test.csv")
        preds = [(int(r[0]), int(r[1]), int(r[2])) for r in prows]
        series = stats.daily_mcc(preds)
        _, header, rows = cli._read_csv(out / "pred_AAA__AAA.orderflow.test.daily_mcc.csv")
        assert [r[0] for r in rows] == series.dates
        for row, v in zip(rows, series.values):
            assert float(row[1]) == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# failure / warning paths
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_empty_test_range_warns(self, pipeline, tmp_path):
        cfg = dict(pipeline["config"])
        lo, hi = stream_span(pipeline["root"] / "AAA.ofr")
        span = hi - lo
        # test range lies entirely beyond the stream: zero test samples
        cfg["split_ranges"] = {"train": [lo, lo + int(span * 0.8)],
                               "validation": [lo + int(span * 0.8), hi + 1],
                               "test": [hi + 10, hi + 20]}
        cfgfile = write_config(tmp_path / "warn.json", cfg)
        out = tmp_path / "out"
        rc = cli.main(["build", "--config", cfgfile, "--out", str(out),
                       "--pair", "AAA"])
        assert rc == cli.EXIT_WARN
        ds = features.load_dataset(out / "AAA.orderflow.ds")
        assert ds.split_counts()["test"] == 0
        # evaluating the empty split is an error
        rc = cli.main(["evaluate",
                       "--checkpoint", str(pipeline["out"] / "AAA.orderflow.ckpt"),
                       "--dataset", str(out / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(out)])
        assert rc == cli.EXIT_ERROR

    def test_variant_mismatch(self, pipeline, tmp_path):
        rc = cli.main(["evaluate",
                       "--checkpoint", str(pipeline["out"] / "AAA.orderflow.ckpt"),
                       "--dataset", str(pipeline["out"] / "AAA.bench1.ds"),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == cli.EXIT_ERROR

    # a NaN size made evaluate exit 0 with nan probabilities; a NaN kind
    # warned "invalid value encountered in cast" before its error line
    @pytest.mark.parametrize("col", [2, 3])
    def test_non_finite_dataset_value_is_error(self, pipeline, tmp_path, capsys, col):
        ds = features.load_dataset(pipeline["out"] / "AAA.orderflow.ds")
        test = ds.subset("test")
        ds.table[int(test.end[0]) - 1, col] = np.nan
        bad = tmp_path / "bad.ds"
        features.save_dataset(ds, bad)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["evaluate", "--checkpoint", str(pipeline["out"] / "AAA.orderflow.ckpt"),
                           "--dataset", str(bad), "--split", "test", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "not a finite number" in err[0]
        assert caught == []
        assert not (tmp_path / "o").exists()

    def test_snapshot_depth_mismatch_is_error(self, pipeline, tmp_path, capsys):
        # bench2 checkpoints at S=3 and S=5, each evaluated on the other's dataset
        cfg = {**pipeline["config"], "S": 5,
               "schedule": {**pipeline["config"]["schedule"], "epochs": 1}}
        cfgfile = write_config(tmp_path / "s5.json", cfg)
        s3, s5 = pipeline["out"], tmp_path / "s5"
        assert cli.main(["build", "--config", cfgfile, "--out", str(s5),
                         "--pair", "AAA"]) == cli.EXIT_OK
        ckpts = {}
        for ds in (s3, s5):
            out = tmp_path / f"ckpt{len(ckpts)}"
            assert cli.main(["train", "--config", cfgfile, "--out", str(out), "--pair", "AAA",
                             "--variant", "bench2", "--dataset", str(ds / "AAA.bench2.ds")]) \
                == cli.EXIT_OK
            ckpts[ds] = out / "AAA.bench2.ckpt"
        capsys.readouterr()
        for ckpt, ds in ((ckpts[s3], s5 / "AAA.bench2.ds"), (ckpts[s5], s3 / "AAA.bench2.ds")):
            rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds),
                           "--split", "test", "--out", str(tmp_path / "pred")])
            assert rc == cli.EXIT_ERROR
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: a bench2 model at S=")
        assert not (tmp_path / "pred").exists()
        # an orderflow row does not depend on S
        assert cli.main(["evaluate", "--checkpoint", str(s3 / "AAA.orderflow.ckpt"),
                         "--dataset", str(s5 / "AAA.orderflow.ds"), "--split", "test",
                         "--out", str(tmp_path / "pred")]) == cli.EXIT_OK

    def test_build_without_ranges(self, pipeline, tmp_path):
        cfg = dict(pipeline["config"])
        cfg["split_ranges"] = None
        cfgfile = write_config(tmp_path / "nr.json", cfg)
        assert cli.main(["build", "--config", cfgfile,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_ERROR

    def test_missing_dataset_is_error(self, pipeline, tmp_path):
        rc = cli.main(["train", "--config", pipeline["cfgfile"],
                       "--out", str(tmp_path), "--pair", "AAA",
                       "--variant", "orderflow"])
        assert rc == cli.EXIT_ERROR

    def test_build_on_non_utf8_stream_is_error(self, pipeline, tmp_path, capsys):
        first = (pipeline["root"] / "AAA.ofr").read_bytes().split(b"\n")[0]
        bad = tmp_path / "bad.ofr"
        bad.write_bytes(first + b"\n\xff\xfe\n")
        cfg = dict(pipeline["config"], pairs={"AAA": {"input": str(bad)}})
        cfgfile = write_config(tmp_path / "bad.json", cfg)
        capsys.readouterr()
        rc = cli.main(["build", "--config", cfgfile, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2: not UTF-8 text")

    def test_truncated_dataset_is_error(self, pipeline, tmp_path, capsys):
        data = (pipeline["out"] / "AAA.orderflow.ds").read_bytes()
        cut = tmp_path / "cut.ds"
        cut.write_bytes(data[:-1000])
        capsys.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path),
                       "--pair", "AAA", "--variant", "orderflow", "--dataset", str(cut)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "header declares" in err[0]

    def _flipped(self, src, dst):
        data = bytearray(src.read_bytes())
        data[-3] ^= 0x10   # inside the last array
        dst.write_bytes(bytes(data))
        return str(dst)

    def test_flipped_dataset_is_error(self, pipeline, tmp_path, capsys):
        ds = self._flipped(pipeline["out"] / "AAA.orderflow.ds", tmp_path / "flip.ds")
        capsys.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path),
                       "--pair", "AAA", "--variant", "orderflow", "--dataset", ds])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "SHA-256" in err[0]

    def test_flipped_checkpoint_is_error(self, pipeline, tmp_path, capsys):
        ckpt = self._flipped(pipeline["out"] / "AAA.orderflow.ckpt", tmp_path / "flip.ckpt")
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", ckpt,
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "SHA-256" in err[0]

    def test_dataset_with_bad_label_is_error(self, pipeline, tmp_path, capsys):
        ds = features.load_dataset(pipeline["out"] / "AAA.orderflow.ds")
        ds.y[0] = 7
        features.save_dataset(ds, tmp_path / "bad.ds")
        capsys.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path),
                       "--pair", "AAA", "--variant", "orderflow",
                       "--dataset", str(tmp_path / "bad.ds")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "labels" in err[0]

    def test_failed_worker_shard_is_error_exit(self, pipeline, tmp_path, capfd, monkeypatch):
        # two CPUs, so a worker computes shard 1; its shard fails there only
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, shard = os.getpid(), shards.Shards._shard

        def failing(*args):
            if os.getpid() != parent:
                raise net.CategoryOutOfRange("kind value out of range")
            return shard(*args)

        monkeypatch.setattr(shards.Shards, "_shard", failing)
        capfd.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path / "out"),
                       "--pair", "AAA", "--variant", "orderflow",
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds")])
        assert rc == cli.EXIT_ERROR
        err = capfd.readouterr().err.splitlines()
        assert err == ["error: kind value out of range"]
        assert not _has_children()
        assert not (tmp_path / "out").exists()

    def _rewritten(self, src, dst, magic, change):
        fields, arrays = container.read(src, magic, ValueError)
        change(fields)
        container.write(dst, magic, fields, arrays)
        return str(dst)

    @pytest.mark.parametrize("norm_stats,key", [
        ("x", "norm_stats"),
        ({"mean": [0.0], "sd": [1.0]}, "norm_mean"),   # one channel; orderflow has three
    ])
    def test_dataset_with_bad_norm_stats_is_error(self, pipeline, tmp_path, capsys,
                                                   norm_stats, key):
        ds = self._rewritten(pipeline["out"] / "AAA.orderflow.ds", tmp_path / "bad.ds", b"OFDS",
                             lambda f: f.update(norm_stats=norm_stats))
        capsys.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path / "out"),
                       "--pair", "AAA", "--variant", "orderflow", "--dataset", ds])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("T,match", [(0, "T must be an integer >= 1"),
                                         (features.MAX_T + 1, "T must be at most")])
    def test_dataset_with_out_of_bounds_T_is_error(self, pipeline, tmp_path, capsys, T, match):
        ds = self._rewritten(pipeline["out"] / "AAA.orderflow.ds", tmp_path / "bad.ds", b"OFDS",
                             lambda f: f.update(T=T))
        for argv in (["train", "--config", pipeline["cfgfile"], "--pair", "AAA",
                      "--variant", "orderflow", "--dataset", ds],
                     ["evaluate", "--checkpoint", str(pipeline["out"] / "AAA.orderflow.ckpt"),
                      "--dataset", ds]):
            capsys.readouterr()
            rc = cli.main(argv + ["--out", str(tmp_path / "out")])
            assert rc == cli.EXIT_ERROR
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and match in err[0]
            assert not (tmp_path / "out").exists()

    def test_checkpoint_with_bad_norm_mean_is_error(self, pipeline, tmp_path, capsys):
        ckpt = self._rewritten(pipeline["out"] / "AAA.orderflow.ckpt", tmp_path / "bad.ckpt",
                               b"OFCK", lambda f: f["config"].update(norm_mean="x"))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", ckpt,
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "norm_mean" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,message", [
        ({"variant": "bench2", "S": 10 ** 9, "norm_mean": None, "norm_sd": None},
         "S must be at most"),
        ({"emb_dims": {"kind": 2, "side": 2, "hour": 10 ** 9}}, "emb_dims.hour must be at most"),
    ], ids=["S", "emb_dims"])
    def test_checkpoint_asking_for_huge_tensors_is_error(self, pipeline, tmp_path, capsys,
                                                         change, message):
        # the header's config is checked before a Model is built, so the
        # tensors it asks for are never allocated
        ckpt = self._rewritten(pipeline["out"] / "AAA.orderflow.ckpt", tmp_path / "big.ckpt",
                               b"OFCK", lambda f: f["config"].update(change))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", ckpt,
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset,message", [
        ("AAA.bench2.ds", "is bench2, --variant is orderflow"),
        ("BBB.orderflow.ds", "holds pair BBB, --pair is AAA"),
    ], ids=["variant", "pair"])
    def test_train_on_another_pair_or_variant_is_error(self, pipeline, tmp_path, capsys,
                                                       dataset, message):
        # the checkpoint's name and train_pair would mislabel the model
        capsys.readouterr()
        rc = cli.main(["train", "--config", pipeline["cfgfile"], "--out", str(tmp_path / "out"),
                       "--pair", "AAA", "--variant", "orderflow",
                       "--dataset", str(pipeline["out"] / dataset)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: dataset ") and message in err[0]
        assert not (tmp_path / "out").exists()

    def test_bad_search_candidate_is_error_before_training(self, pipeline, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(net, "train", lambda *a: pytest.fail("a trial trained"))
        cfg = {**pipeline["config"], "search": {"space": {"lr": [1e-3, -1.0]}, "budget": 2}}
        cfgfile = write_config(tmp_path / "search.json", cfg)
        capsys.readouterr()
        rc = cli.main(["train", "--config", cfgfile, "--out", str(tmp_path / "out"),
                       "--pair", "AAA", "--variant", "orderflow",
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config 'search.space': lr")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", [
        ('"kind":"limit"', '"kind":[1]'),
        ('"side":"buy"', '"side":{}'),
        ('"size":1.0', '"size":' + "9" * 400),
        ('"ts":2', '"ts":99999999999999999999999'),
    ], ids=["kind", "side", "size", "ts"])
    def test_build_on_malformed_line_is_error(self, tmp_path, capsys, old, new):
        line = '{"ts":%d,"seq":%d,"kind":"limit","side":"buy","price":10,"size":1.0,"id":"o%d"}'
        (tmp_path / "AAA.ofr").write_text(line % (1, 1, 1) + "\n"
                                          + (line % (2, 2, 2)).replace(old, new) + "\n")
        cfg = base_config(tmp_path, split_ranges={"train": [0, 1], "validation": [1, 2],
                                                  "test": [2, 3]})
        cfgfile = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        rc = cli.main(["build", "--config", cfgfile, "--out", str(tmp_path / "out"),
                       "--pair", "AAA"])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:")

    def test_build_on_mismatched_cancel_is_error(self, tmp_path, capsys):
        # the cancel names the resting buy's id but the sell side
        (tmp_path / "AAA.ofr").write_text(
            '{"ts":1,"seq":1,"kind":"limit","side":"buy","price":10,"size":1.0,"id":"o1"}\n'
            '{"ts":2,"seq":2,"kind":"cancel","side":"sell","price":10,"size":1.0,"id":"o1"}\n')
        cfg = base_config(tmp_path, split_ranges={"train": [0, 1], "validation": [1, 2],
                                                  "test": [2, 3]})
        cfgfile = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        rc = cli.main(["build", "--config", cfgfile, "--out", str(tmp_path / "out"),
                       "--pair", "AAA"])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cancel of o1")

    def test_report_on_date_past_year_9999_is_error(self, pipeline, tmp_path, capsys):
        stream = tmp_path / "far.ofr"
        stream.write_text('{"ts":%d,"seq":1,"kind":"limit","side":"buy","price":10,'
                          '"size":1.0,"id":"o1"}\n' % 2**62)
        pred = sorted(pipeline["out"].glob("pred_AAA__AAA.*.test.csv"))[0]
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred),
                       "--stream", str(stream)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: timestamp {2**62} ms")
        assert not (tmp_path / "out").exists()   # the tables are not written either

    def test_report_on_prediction_past_year_9999_makes_no_out(self, pipeline, tmp_path, capsys):
        src = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        lines = src.read_text().splitlines(keepends=True)
        at = lines.index("timestamp_ms,y,yhat,p1\n") + 1
        lines[at] = "9999999999999999999" + lines[at][lines[at].index(","):]
        pred = tmp_path / src.name
        pred.write_text("".join(lines))
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: timestamp 9999999999999999999 ms has no UTC date")
        assert not (tmp_path / "out").exists()

    def test_stream_past_year_9999_stops_at_generate_and_build(self, tiny, tmp_path, capsys,
                                                              monkeypatch):
        # a stream that starts in year 10209 has no UTC date: generate
        # refuses the config, and build a stream so stamped from elsewhere
        monkeypatch.chdir(tmp_path)
        cfg = copy.deepcopy(tiny["cfg"])
        cfg["generator"]["start_ts"] = 260_000_000_000_000
        cfgfile = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        assert cli.main(["generate", "--config", cfgfile, "--out", "out"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "start_ts + n_events * 2 * mean_gap_ms" in err[0]
        assert not Path("X.ofr").exists()

        shift = 260_000_000_000_000 - cli.CONFIG_DEFAULTS["generator"]["start_ts"]
        events = [dataclasses.replace(e, timestamp_ms=e.timestamp_ms + shift)
                  for e in feed.read_events(tiny["stream"])]
        Path("X.ofr").write_text("".join(feed.serialize_event(e) + "\n" for e in events))
        lo, hi = stream_span("X.ofr")
        a, b = lo + (hi - lo) * 6 // 10, lo + (hi - lo) * 8 // 10
        cfg["split_ranges"] = {"train": [lo, a], "validation": [a, b], "test": [b, hi + 1]}
        cfg["generator"] = tiny["cfg"]["generator"]
        cfgfile = write_config(tmp_path / "c.json", cfg)
        assert cli.main(["build", "--config", cfgfile, "--out", "out"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: table timestamp ")
        assert "has no UTC date in years 1-9999" in err[0]
        assert not Path("out", "X.orderflow.ds").exists()

    def test_report_on_stream_with_unknown_cancel_makes_no_out(self, pipeline, tmp_path,
                                                              capsys):
        stream = tmp_path / "s.ofr"
        stream.write_text('{"ts":1510000000000,"seq":1,"kind":"cancel","side":"buy",'
                          '"price":10,"size":1.0,"id":"zz"}\n')
        pred = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred),
                       "--stream", str(stream)])
        assert rc == cli.EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == ["error: unknown order id 'zz'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines,match", [
        (["1510000000000,1,0,0.5", "1510000000001,1,x,0.5"], "'1510000000001,1,x,0.5'"),
        (["1510000000000,1"], "'1510000000000,1'"),
        (["1510000000000,1.0,0,0.5"], "'1510000000000,1.0,0,0.5'"),
        (["1510000000000,5,0,0.5"], "'1510000000000,5,0,0.5'"),
        (["1510000000000,1,-1,0.5"], "'1510000000000,1,-1,0.5'"),
        (["1510000000000,1,\udcff,0.5"], "not UTF-8 text"),
        # int() takes other Unicode digits, underscores and spaces
        (["\u0661_510_000_000_000,1,1,0.9"], "'\u0661_510_000_000_000,1,1,0.9'"),
        ([" 1510000000001 ,0,0,0.1"], "' 1510000000001 ,0,0,0.1'"),
        (["1510000000000, 1,0,0.5"], "'1510000000000, 1,0,0.5'"),
        # more digits than an int64 holds; past 4300, int() raises ValueError
        (["1" * 20 + ",1,1,0.9"], "'" + "1" * 20 + ",1,1,0.9'"),
        (["-" + "1" * 5000 + ",1,1,0.9"], "does not start with an integer timestamp_ms"),
    ])
    def test_report_on_malformed_prediction_row_is_error(self, tmp_path, capsys, lines, match):
        pred = tmp_path / "pred_X__X.orderflow.test.csv"
        pred.write_bytes(("# split=test\n# test_pair=X\n# train_pair=X\n# variant=orderflow\n"
                          "timestamp_ms,y,yhat,p1\n" + "\n".join(lines) + "\n")
                         .encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {pred}: ") and match in err[0]
        assert not (tmp_path / "out").exists()

    def test_report_on_prediction_file_without_pairs_is_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("# variant=orderflow\ntimestamp_ms,y,yhat,p1\n1510000000000,1,1,0.9\n")
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {pred}: prediction file has no '# train_pair=' line"]

    def test_report_on_two_sets_of_one_key_is_error(self, pipeline, tmp_path, capsys):
        # one file twice wrote two identical Table-1 rows; a validation and
        # a test set of one model kept only the last set in Table 2
        pred = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        val = tmp_path / "pred_AAA__AAA.orderflow.validation.csv"
        val.write_text(pred.read_text().replace("# split=test", "# split=validation"))
        for paths in ([pred, pred], [pred, val]):
            capsys.readouterr()
            rc = cli.main(["report", "--out", str(tmp_path / "out"),
                           "--pred", *map(str, paths)])
            assert rc == cli.EXIT_ERROR
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {paths[0]} and {paths[1]} both hold orderflow predictions "
                           "of the AAA model on AAA"]
            assert not (tmp_path / "out").exists()   # a failed report makes no --out

    def test_truncated_checkpoint_is_error(self, pipeline, tmp_path, capsys):
        src = pipeline["out"] / "AAA.orderflow.ckpt"
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(src.read_bytes()[:-100])
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(cut),
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "header declares" in err[0]

    @pytest.mark.parametrize("value", [5, None, ["a"], {"k": 1}, "", "A\nB", "../x"], ids=repr)
    @pytest.mark.parametrize("target", ["ds.pair", "ds.variant", "ckpt.train_pair",
                                        "ckpt.variant"])
    def test_evaluate_on_bad_pair_or_variant_name_is_error(self, pipeline, tmp_path, capsys,
                                                           target, value):
        # each would become a file stem, a `# key=value` line or a CSV cell
        ds, ckpt = pipeline["out"] / "AAA.orderflow.ds", pipeline["out"] / "AAA.orderflow.ckpt"
        kind, key = target.split(".")
        if kind == "ds":
            ds = self._rewritten(ds, tmp_path / "bad.ds", b"OFDS", lambda f: f.update({key: value}))
        else:
            block = "config" if key == "variant" else "extras"
            ckpt = self._rewritten(ckpt, tmp_path / "bad.ckpt", b"OFCK",
                                   lambda f: f[block].update({key: value}))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds),
                       "--split", "test", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert key in err[0].replace(str(tmp_path), "") and repr(value) in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["", "../x", "A B", '["a"]', '{"k": 1}'])
    @pytest.mark.parametrize("key", ["variant", "train_pair", "test_pair"])
    def test_report_on_bad_pair_or_variant_name_is_error(self, pipeline, tmp_path, capsys,
                                                         key, value):
        src = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        pred = tmp_path / src.name
        lines = src.read_text().splitlines(keepends=True)
        pred.write_text("".join(f"# {key}={value}\n" if line.startswith(f"# {key}=") else line
                                for line in lines))
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {pred}: {key}")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestBuildCost:
    def test_build_gathers_no_windows(self, pipeline, tmp_path, monkeypatch):
        def no_gather(ds, end):
            raise AssertionError("lobflow build gathered windows")

        monkeypatch.setattr(features, "_gather", no_gather)
        out = tmp_path / "out"
        assert cli.main(["build", "--config", pipeline["cfgfile"], "--out", str(out),
                         "--pair", "AAA"]) == cli.EXIT_OK
        report = json.loads((out / "build_report.json").read_text())
        built = json.loads((pipeline["out"] / "build_report.json").read_text())
        assert report["pairs"]["AAA"] == built["pairs"]["AAA"]

    def test_train_and_evaluate_gather_one_batch_at_a_time(self, pipeline, tmp_path,
                                                           monkeypatch):
        # a minibatch holds at most batch_size windows and a predict chunk PREDICT_CHUNK
        limit = max(pipeline["config"]["schedule"]["batch_size"], net.PREDICT_CHUNK)
        gather = features._gather

        def one_batch(ds, end):
            if len(end) > limit:
                raise AssertionError(f"gathered {len(end)} windows at once")
            return gather(ds, end)

        monkeypatch.setattr(features, "_gather", one_batch)
        src, out = pipeline["out"], tmp_path / "out"
        ds = str(src / "AAA.orderflow.ds")
        search = write_config(tmp_path / "search.json", {
            **pipeline["config"], "search": {"space": {"batch_size": [32, 100]}, "budget": 2}})
        for cfgfile, where in ((pipeline["cfgfile"], out), (search, out / "search")):
            assert cli.main(["train", "--config", cfgfile, "--out", str(where), "--pair", "AAA",
                             "--variant", "orderflow", "--dataset", ds]) == cli.EXIT_OK
        assert (out / "search" / "AAA.orderflow.search_log.csv").exists()
        ckpt = "AAA.orderflow.ckpt"
        assert (out / ckpt).read_bytes() == (src / ckpt).read_bytes()
        stem = "pred_AAA__AAA.orderflow.test"
        assert cli.main(["evaluate", "--checkpoint", str(src / ckpt),
                         "--dataset", ds, "--split", "test", "--out", str(out)]) == cli.EXIT_OK
        assert (out / f"{stem}.csv").read_bytes() == (src / f"{stem}.csv").read_bytes()


class TestDeterminism:
    def test_generate_build_byte_identical(self, tmp_path):
        digests = []
        for leg in ("one", "two"):
            root = tmp_path / leg
            root.mkdir()
            out = root / "out"
            cfgfile = write_config(root / "c.json", base_config(root, n_events=3000))
            assert cli.main(["generate", "--config", cfgfile, "--out", str(out),
                             "--pair", "AAA"]) == 0
            cfg = base_config(root, n_events=3000)
            lo, hi = stream_span(root / "AAA.ofr")
            a = lo + int((hi - lo) * 0.6)
            b = lo + int((hi - lo) * 0.8)
            cfg["split_ranges"] = {"train": [lo, a], "validation": [a, b],
                                   "test": [b, hi + 1]}
            cfgfile = write_config(root / "c.json", cfg)
            cli.main(["build", "--config", cfgfile, "--out", str(out),
                      "--pair", "AAA"])
            digests.append({
                "stream": (root / "AAA.ofr").read_bytes(),
                **{v: (out / f"AAA.{v}.ds").read_bytes() for v in features.VARIANTS},
            })
        assert digests[0] == digests[1]

    def test_reevaluation_byte_identical(self, pipeline, tmp_path):
        out = pipeline["out"]
        rc = cli.main(["evaluate", "--checkpoint", str(out / "AAA.orderflow.ckpt"),
                       "--dataset", str(out / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == 0
        name = "pred_AAA__AAA.orderflow.test.csv"
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


# ---------------------------------------------------------------------------
# verification subcommands
# ---------------------------------------------------------------------------


class TestVerificationCommands:
    def test_gradcheck_command(self):
        assert cli.main(["gradcheck", "--n", "2", "--seed", "1"]) == 0

    def test_selftest_command(self, capsys):
        assert cli.main(["selftest", "--events", "1500", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        # the p-value of table1_slopes.csv is checked
        assert "PASS t_sf_two_sided vs quadrature" in out

    def test_selftest_fails_on_a_wrong_executed_size(self, capsys, monkeypatch):
        # the book's state stays right; only the size a fill returns is off
        apply_event = lob.OrderBook.apply_event
        monkeypatch.setattr(lob.OrderBook, "apply_event",
                            lambda book, ev: apply_event(book, ev) * 1.5)
        assert cli.main(["selftest", "--events", "1500", "--seed", "2"]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("FAIL (event ") and "executed" in line
        assert line.endswith("lob oracle equivalence over 1500 events")


# ---------------------------------------------------------------------------
# config fuzz: one key replaced by an arbitrary small JSON value
# ---------------------------------------------------------------------------

# the command that reads each top-level key
_READER = {"version": "generate", "seed": "generate", "pairs": "generate",
           "generator": "generate", "T": "build", "S": "build", "warm_up": "build",
           "split_ranges": "build", "model": "train", "schedule": "train", "search": "train"}

_LEAVES = (st.none() | st.booleans() | st.text(alphabet="ab", max_size=2)
           | st.integers(-3, 3) | st.floats(-3, 3).filter(lambda x: not x.is_integer())
           | st.sampled_from([math.nan, math.inf, -math.inf]))
_NAMES = st.sampled_from(["a", "kind", "side", "hour", "lr", "layers", "space", "budget",
                          "train", "validation", "test", "input", "count"])
# small integers drawn a third of the time, as most settings are counts
_VALUES = st.integers(-3, 3) | _LEAVES | st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every key path of a config, blocks and leaves alike."""
    for k, v in node.items():
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from _paths(v, prefix + (k,))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 300-event stream, its orderflow .ds and a config every command accepts."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = {
        "version": 1, "seed": 3,
        "pairs": {"X": {"input": "X.ofr"}},
        "generator": {**cli.CONFIG_DEFAULTS["generator"], "n_events": 300,
                      "mean_gap_ms": 2000, "min_gap_ms": 1, "seed_levels": 4,
                      "planted": feed.PLANTED_LAST_EVENT_SIDE},
        "warm_up": {"count": 20}, "T": 4, "S": 2,
        "model": {"layers": [3], "dense_hidden": [2],
                  "emb_dims": {"kind": 1, "side": 1, "hour": 1}, "dropout": 0.1},
        "schedule": {**cli.CONFIG_DEFAULTS["schedule"], "epochs": 1, "batch_size": 16,
                     "lr": 1e-2, "patience": 1},
        "search": {"space": {"lr": [1e-2]}, "budget": 1},
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main(["generate", "--config", write_config(root / "c.json", cfg),
                         "--out", "out"]) == cli.EXIT_OK
        lo, hi = stream_span("X.ofr")
        a, b = lo + (hi - lo) * 6 // 10, lo + (hi - lo) * 8 // 10
        cfg["split_ranges"] = {"train": [lo, a], "validation": [a, b], "test": [b, hi + 1]}
        assert cli.main(["build", "--config", write_config(root / "c.json", cfg),
                         "--out", "out"]) == cli.EXIT_OK
    return {"stream": root / "X.ofr", "ds": root / "out" / "X.orderflow.ds", "cfg": cfg}


class TestConfigFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_replaced_value_is_a_clean_exit(self, tiny, data):
        cfg = copy.deepcopy(tiny["cfg"])
        path = data.draw(st.sampled_from(sorted(_paths(cfg))), label="key")
        block = cfg
        for k in path[:-1]:
            block = block[k]
        block[path[-1]] = data.draw(_VALUES, label="value")
        command = _READER[path[0]]
        with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
            mp.chdir(work)
            argv = [command, "--config", write_config(Path(work) / "c.json", cfg),
                    "--out", "out"]
            if command == "build":
                os.symlink(tiny["stream"], "X.ofr")
            if command == "train":
                argv += ["--pair", "X", "--variant", "orderflow", "--dataset", str(tiny["ds"])]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        assert rc in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_WARN)
        if rc == cli.EXIT_ERROR:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines


# ---------------------------------------------------------------------------
# file fuzz: one header field of a .ds or .ckpt replaced by an arbitrary
# JSON value, with the container's digest rewritten to match
# ---------------------------------------------------------------------------

_HEADER_VALUES = _VALUES | st.sampled_from([2 ** 31, 2 ** 63, -2 ** 63 - 1, 10 ** 30])
_MAGIC = {"ds": b"OFDS", "ckpt": b"OFCK"}


@pytest.fixture(scope="module")
def tiny_ckpt(tiny, tmp_path_factory):
    """A checkpoint trained on `tiny`'s dataset."""
    out = tmp_path_factory.mktemp("ckpt")
    cfg = {**tiny["cfg"], "search": None}
    argv = ["train", "--config", write_config(out / "c.json", cfg), "--out", str(out),
            "--pair", "X", "--variant", "orderflow", "--dataset", str(tiny["ds"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
        # the unchanged files evaluate
        assert cli.main(["evaluate", "--checkpoint", str(out / "X.orderflow.ckpt"),
                         "--dataset", str(tiny["ds"]), "--split", "test",
                         "--out", str(out / "eval")]) == cli.EXIT_OK
    return out / "X.orderflow.ckpt"


class TestHeaderFuzz:
    """`evaluate` on a file whose header holds any JSON value in one field
    exits 0, or 1 with one `error:` line and no --out; never a traceback."""

    def _evaluate(self, kind, fields, arrays, files) -> tuple[int, list, bool]:
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / f"x.{kind}"
            container.write(path, _MAGIC[kind], fields, arrays)
            argv = ["evaluate", "--checkpoint", str(files["ckpt"]), "--dataset", str(files["ds"]),
                    "--split", "test", "--out", str(Path(work) / "out")]
            argv[argv.index(str(files[kind]))] = str(path)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, err.getvalue().splitlines(), (Path(work) / "out").exists()

    @pytest.mark.parametrize("kind", ["ds", "ckpt"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_replaced_field_is_a_clean_exit(self, tiny, tiny_ckpt, kind, data):
        files = {"ds": tiny["ds"], "ckpt": tiny_ckpt}
        fields, arrays = container.read(files[kind], _MAGIC[kind], ValueError)
        path = data.draw(st.sampled_from(sorted(_paths(fields))), label="field")
        block = fields
        for k in path[:-1]:
            block = block[k]
        block[path[-1]] = data.draw(_HEADER_VALUES, label="value")
        rc, err, made_out = self._evaluate(kind, fields, arrays, files)
        assert rc in (cli.EXIT_OK, cli.EXIT_ERROR)
        if rc == cli.EXIT_ERROR:
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert not made_out


class TestPredictionFuzz:
    """`report` on a prediction file with one `# key=value` value or one
    row's timestamp replaced by any text or integer exits 0, or 1 with one
    `error:` line and no --out; never a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_replaced_value_is_a_clean_exit(self, tiny_ckpt, data):
        src = tiny_ckpt.parent / "eval" / "pred_X__X.orderflow.test.csv"
        lines = src.read_text().splitlines(keepends=True)
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                        if not line.startswith("timestamp_ms,")]), label="line")
        value = data.draw(st.text() | st.integers().map(str), label="value")
        line = lines[at]
        if line.startswith("# "):   # a `# key=value` line: its value
            lines[at] = line[:line.index("=") + 1] + value + "\n"
        else:                      # a row: its timestamp
            lines[at] = value + line[line.index(","):]
        with tempfile.TemporaryDirectory() as work:
            pred = Path(work) / src.name
            pred.write_text("".join(lines), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["report", "--out", str(Path(work) / "out"), "--pred", str(pred)])
            err = err.getvalue().splitlines()
            assert rc in (cli.EXIT_OK, cli.EXIT_ERROR)
            if rc == cli.EXIT_ERROR:
                assert len(err) == 1 and err[0].startswith("error:"), err
                assert not (Path(work) / "out").exists()


_IMPORT_PROBE = """
import json, sys
from lobflow import cli, feed, oracle, stats

def loaded():
    return sorted({"scipy.special", "scipy.integrate"} & set(sys.modules))

for command in ("generate", "build"):
    assert cli.main([command, "--config", sys.argv[1], "--out", "out"]) == cli.EXIT_OK
stats.daily_market_aggregates(feed.read_events("X.ofr"))
report = {"stages": loaded()}
try:
    report["invalid_df"] = stats.t_sf_two_sided(0.5, 0)
except stats.InvalidDf:
    report["invalid_df"] = loaded()
report["p"] = stats.t_sf_two_sided(2.0, 5).hex()
report["cdf"] = oracle.t_cdf_quadrature(1.0, 5).hex()
report["values"] = loaded()
print(json.dumps(report))
"""


class TestImportFootprint:
    def test_scipy_loads_only_for_a_p_value_or_a_quadrature(self, tmp_path, tiny):
        """`generate`, `build` and the market aggregates run in a fresh
        interpreter without loading scipy.special or scipy.integrate."""
        cfgfile = write_config(tmp_path / "c.json", tiny["cfg"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, cfgfile], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["stages"] == []
        assert report["invalid_df"] == []
        assert report["values"] == ["scipy.integrate", "scipy.special"]
        # the bits these two gave while scipy was imported with the module
        assert report["p"] == "0x1.a18b4a7bedacbp-4"
        assert report["cdf"] == "0x1.a3042e171c6fap-1"
        assert (tmp_path / "out" / "X.orderflow.ds").exists()


# ---------------------------------------------------------------------------
# stream fuzz: a truncated, extended or bit-flipped .ofr stream
# ---------------------------------------------------------------------------

_PREDICTIONS = ("# split=test\n# test_pair=X\n# train_pair=X\n# variant=orderflow\n"
                "timestamp_ms,y,yhat,p1\n1510000000000,1,1,0.9\n1510000000000,0,1,0.6\n")


class TestStreamFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_stream_is_a_clean_exit(self, tiny, data):
        raw = tiny["stream"].read_bytes()
        damage = data.draw(st.sampled_from(["truncate", "extend", "flip"]), label="damage")
        if damage == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="at")]
        elif damage == "extend":
            raw += data.draw(st.binary(min_size=1, max_size=64)
                             | st.sampled_from(raw.splitlines(keepends=True)), label="tail")
        else:
            i = data.draw(st.integers(0, len(raw) - 1), label="byte")
            bit = data.draw(st.integers(0, 7), label="bit")
            raw = raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:]
        with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
            mp.chdir(work)
            Path("X.ofr").write_bytes(raw)
            Path("pred.csv").write_text(_PREDICTIONS)
            for argv in (["build", "--config", write_config(Path(work) / "c.json", tiny["cfg"]),
                          "--out", "out"],
                         ["report", "--out", "out", "--pred", "pred.csv", "--stream", "X.ofr"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                lines = err.getvalue().splitlines()
                assert rc in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_WARN), (argv[0], rc)
                if rc == cli.EXIT_ERROR:
                    assert len(lines) == 1 and lines[0].startswith("error:"), lines
                if rc == cli.EXIT_WARN:
                    assert len(lines) == 1 and lines[0].startswith("warning:"), lines
