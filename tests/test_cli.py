import json
from pathlib import Path

import numpy as np
import pytest

from lobflow import cli, features, feed, net, stats


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
        ({"pairs": {"X": {"input": "x.ofr", "generator": {"bogus": 1}}}},
         "'pairs.X.generator.bogus'"),
    ])
    def test_unknown_key_named(self, tmp_path, patch, key):
        cfg = {"pairs": {"X": {"input": "x.ofr"}}, **patch}
        with pytest.raises(cli.CliError, match=key):
            cli.load_config(write_config(tmp_path / "c.json", cfg))

    def test_free_form_blocks_and_warm_up_ts_accepted(self, tmp_path):
        cfg = {"pairs": {"X": {"input": "x.ofr", "generator": {"n_events": 5}}},
               "search": {"lr": [1e-3]}, "split_ranges": {"train": [0, 1], "note": "x"},
               "warm_up": {"ts": 123}}
        loaded = cli.load_config(write_config(tmp_path / "c.json", cfg))
        assert cli._warm_kwargs(loaded) == {"warm_until_ts": 123}

    def test_unknown_generator_key_is_error_exit(self, tmp_path, capsys):
        cfg = {"pairs": {"X": {"input": str(tmp_path / "x.ofr")}}, "generator": {"bogus": 1}}
        p = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        rc = cli.main(["generate", "--config", p, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bogus" in err[0]
        assert not (tmp_path / "x.ofr").exists()

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

    def test_checkpoint_and_log(self, pipeline):
        model, extras = net.load_checkpoint(pipeline["out"] / "AAA.orderflow.ckpt")
        assert extras["train_pair"] == "AAA"
        meta, header, rows = cli._read_csv(pipeline["out"] / "AAA.orderflow.train_log.csv")
        assert header == ["epoch", "train_loss", "val_loss", "val_mcc"]
        assert len(rows) >= 1
        # planted rule is learnable: validation MCC should be high
        assert float(rows[-1][3]) > 0.9

    def test_predictions_written(self, pipeline):
        same = pipeline["out"] / "pred_AAA__AAA.orderflow.test.csv"
        cross = pipeline["out"] / "pred_AAA__BBB.orderflow.test.csv"
        for p in (same, cross):
            meta, header, rows = cli._read_csv(p)
            assert header == ["timestamp_ms", "y", "yhat", "p1"]
            assert len(rows) > 50
            assert meta["variant"] == "orderflow"

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

    def test_truncated_checkpoint_is_error(self, pipeline, tmp_path, capsys):
        src = pipeline["out"] / "AAA.orderflow.ckpt"
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(src.read_bytes()[:-100])
        (tmp_path / "cut.ckpt.manifest.txt").write_bytes(
            (pipeline["out"] / "AAA.orderflow.ckpt.manifest.txt").read_bytes())
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(cut),
                       "--dataset", str(pipeline["out"] / "AAA.orderflow.ds"),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "header declares" in err[0]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


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

    def test_selftest_command(self):
        assert cli.main(["selftest", "--events", "1500", "--seed", "2"]) == 0
