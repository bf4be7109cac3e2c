"""Pipeline orchestration: config-driven, reproducible end-to-end runs.

Subcommands: generate, build, train, evaluate, report, gradcheck,
selftest.  Every command is a pure function of (config, input files,
seed); re-runs produce byte-identical outputs.  Exit codes: 0 success,
1 error, 2 completed with warnings.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import atomic, checks, feed, features, lob, net, oracle, shards, stats, svg
from .features import MAX_S, MAX_T

EXIT_OK, EXIT_ERROR, EXIT_WARN = 0, 1, 2


class CliError(Exception):
    pass


class VariantMismatch(CliError):
    pass


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def _defaults(cls, set_elsewhere=()) -> dict:
    """The field defaults of dataclass `cls`, except `set_elsewhere`."""
    return {f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(cls) if f.name not in set_elsewhere}


# ModelConfig fields a dataset sets, not the config
_DATASET_SET = ("variant", "S", "norm_mean", "norm_sd")

CONFIG_DEFAULTS = {
    "version": 1,
    "seed": 0,
    "pairs": {},
    "generator": _defaults(feed.GeneratorConfig),
    "warm_up": {"count": 100},
    "T": 100,
    "S": 5,
    "split_ranges": None,
    "model": _defaults(net.ModelConfig, _DATASET_SET),
    "schedule": _defaults(net.TrainSchedule, ("seed",)),
    "search": None,
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


# blocks whose keys must be a subset of their CONFIG_DEFAULTS block
_CHECKED_BLOCKS = ("generator", "warm_up", "model", "schedule")
_PAIR_KEYS = ("input",)


def _check_keys(block, allowed, where: str) -> None:
    """`where` is the block's dotted path with a trailing dot, "" at the top."""
    if not isinstance(block, dict):
        raise CliError(f"config {where[:-1] or 'file'} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise CliError(f"unknown config key {where + unknown[0]!r}")


def _check_config(raw) -> None:
    """Reject keys that CONFIG_DEFAULTS does not know; `search` and
    `split_ranges` are free-form."""
    _check_keys(raw, CONFIG_DEFAULTS, "")
    for block in _CHECKED_BLOCKS:
        if block in raw:
            _check_keys(raw[block], CONFIG_DEFAULTS[block], f"{block}.")
    pairs = raw.get("pairs", {})
    if not isinstance(pairs, dict):
        raise CliError("config pairs must be a JSON object")
    for name, pair in pairs.items():
        checks.pair_name(name, "config pair name", CliError)
        _check_keys(pair, _PAIR_KEYS, f"pairs.{name}.")


def _checked(where: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a setting that a config dataclass
    rejects raised as a CliError that says `where` the value came from."""
    try:
        return make(*args, **kwargs)
    except (feed.InvalidConfig, net.InvalidConfig) as e:
        raise CliError(f"{where}: {e}") from e


def load_config(path, seed_override=None) -> dict:
    """Read, merge over CONFIG_DEFAULTS and check a run config; every
    block a dataclass declares is built once here to check its values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise CliError(f"cannot read config {path}: {e}") from e
    _check_config(raw)
    version = raw.get("version", 1)
    if type(version) is not int or version != 1:
        raise CliError(f"unsupported config 'version' {version!r}; this lobflow reads 1")
    try:
        cfg = _deep_merge(CONFIG_DEFAULTS, raw)
    except RecursionError:   # a free-form block that `json` read but `copy` cannot
        raise CliError(f"config {path} is nested too deeply") from None
    if seed_override is not None:
        cfg["seed"] = seed_override
    if not cfg["pairs"]:
        raise CliError("config declares no pairs")
    for key, value, bounds in (("seed", cfg["seed"], (0,)), ("T", cfg["T"], (1, MAX_T)),
                               ("S", cfg["S"], (1, MAX_S)),
                               ("warm_up.count", cfg["warm_up"]["count"], (0,))):
        checks.integer(value, f"config {key!r}", CliError, *bounds)
    _checked("config 'generator'", feed.GeneratorConfig, **cfg["generator"])
    for name, pair in cfg["pairs"].items():
        path = pair.get("input")
        if type(path) is not str or not Path(path).name:
            raise CliError(f"config 'pairs.{name}.input' must be a file path, got {path!r}")
    # any variant: the block's own values do not depend on it
    _checked("config 'model'", net.ModelConfig, variant=features.VARIANTS[0], **cfg["model"])
    _checked("config 'schedule'", net.TrainSchedule, seed=cfg["seed"], **cfg["schedule"])
    return cfg


def _select_pairs(cfg: dict, pair: str | None) -> list[str]:
    names = sorted(cfg["pairs"])
    if pair is None:
        return names
    if pair not in cfg["pairs"]:
        raise CliError(f"unknown pair {pair!r}; config has {names}")
    return [pair]


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_csv(path, header: list[str], rows, meta: dict | None = None) -> None:
    with atomic.atomic_open(path, "w", encoding="utf-8") as fh:
        for k in sorted(meta or {}):
            fh.write(f"# {k}={meta[k]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """The `# key=value` lines, header and rows of a CSV that `_write_csv`
    wrote; a line that is not UTF-8 text is a CliError naming it."""
    meta, rows, header = {}, [], None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            checks.utf8_line(line, f"{path}: line {line_no}: ", CliError)
            if not line:
                continue
            if line.startswith("# "):
                k, _, v = line[2:].partition("=")
                meta[k] = v
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header or [], rows


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(cfg: dict, out_dir: Path, pair: str | None) -> int:
    gen = feed.GeneratorConfig(**cfg["generator"])
    report, writers = {}, {}
    for name in _select_pairs(cfg, pair):
        path = Path(cfg["pairs"][name]["input"])
        # `build` may read one stream as two pairs, but one file holds one stream
        first = writers.setdefault(path.resolve(), name)
        if first != name:
            raise CliError(f"pairs {first} and {name} both have the input {path}")
        n = feed.write_stream(path, gen,
                              seed=cfg["seed"] + sorted(cfg["pairs"]).index(name))
        report[name] = {"path": str(path), "events": n}
        print(f"generated {name}: {n} events -> {path}")
    with atomic.atomic_open(out_dir / "generate_report.json", "w", encoding="utf-8") as fh:
        json.dump({"config": cfg, "pairs": report}, fh, sort_keys=True, indent=2)
    return EXIT_OK


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(cfg: dict, out_dir: Path, pair: str | None) -> int:
    if cfg["split_ranges"] is None:
        raise CliError("config has no split_ranges")
    ranges = features.check_split_ranges(cfg["split_ranges"], "config ").values()
    warn = False
    report = {"config": cfg, "pairs": {}}
    for name in _select_pairs(cfg, pair):
        events = feed.read_events(cfg["pairs"][name]["input"])
        datasets = features.build_datasets(events, T=cfg["T"], S=cfg["S"], pair=name,
                                           warm_count=cfg["warm_up"]["count"])
        pair_report = {}
        for variant, ds in datasets.items():
            features.split_by_date(ds, *ranges)
            features.compute_norm_stats(ds)
            path = out_dir / f"{name}.{variant}.ds"
            digest = features.save_dataset(ds, path)
            counts = ds.split_counts()
            warn = warn or 0 in counts.values()   # an empty split
            pair_report[variant] = {
                "path": path.name, "n": ds.n, "split_counts": counts,
                "counters": ds.counters, "digest": digest,
            }
            print(f"built {name}.{variant}: n={ds.n} splits={counts}")
        report["pairs"][name] = pair_report
    with atomic.atomic_open(out_dir / "build_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    if warn:
        print("warning: at least one split is empty", file=sys.stderr)
        return EXIT_WARN
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _check_search(search) -> None:
    """`search` is null or {"space": {name: [candidates, ...]}, "budget": n >= 1},
    each name a key of the `model` or `schedule` block (the dataset sets
    the others); hyper_search checks each candidate."""
    if search is None:
        return
    if not isinstance(search, dict) or search.keys() != {"space", "budget"}:
        raise CliError(f"config 'search' must be null or an object with the keys "
                       f"'budget' and 'space', got {search!r}")
    space = search["space"]
    if not (isinstance(space, dict) and space
            and all(isinstance(v, list) and v for v in space.values())):
        raise CliError(f"config 'search.space' must be an object of non-empty lists, "
                       f"got {space!r}")
    _check_keys(space, {**CONFIG_DEFAULTS["model"], **CONFIG_DEFAULTS["schedule"]},
                "search.space.")
    checks.integer(search["budget"], "config 'search.budget'", CliError, 1)


def cmd_train(cfg: dict, out_dir: Path, pair: str, variant: str,
              dataset_path: str | None = None) -> int:
    if pair is None or variant is None:
        raise CliError("train requires --pair and --variant")
    _check_search(cfg["search"])
    path = Path(dataset_path) if dataset_path else out_dir / f"{pair}.{variant}.ds"
    ds = features.load_dataset(path)
    # the checkpoint's name and its train_pair come from --pair and --variant
    if ds.variant != variant:
        raise VariantMismatch(f"dataset {path} is {ds.variant}, --variant is {variant}")
    if ds.pair != pair:
        raise CliError(f"dataset {path} holds pair {ds.pair}, --pair is {pair}")
    if ds.norm_stats is None:
        raise CliError(f"dataset {path} has no normalization stats (rebuild it)")
    tr, va = ds.subset("train"), ds.subset("validation")
    if tr.n == 0 or va.n == 0:
        raise CliError("train and validation splits must be non-empty")
    # load_config checked the model block, so a rejected value is the dataset's
    model_cfg = _checked(f"dataset {path}", net.ModelConfig, variant=ds.variant, S=ds.S,
                         norm_mean=ds.norm_stats["mean"], norm_sd=ds.norm_stats["sd"],
                         **cfg["model"])
    schedule = net.TrainSchedule(seed=cfg["seed"], **cfg["schedule"])
    # windows are gathered from the dataset's event table one minibatch or
    # predict chunk at a time
    train_xy, val_xy = (tr.windows, tr.y), (va.windows, va.y)
    if cfg["search"] is None:
        trials = None
        model = net.Model(model_cfg, seed=cfg["seed"])
        result = net.train(model, train_xy, val_xy, schedule)
    else:
        # the winning trial's model is the one saved: no model is trained twice
        model, result, trials = _checked(
            "config 'search.space'", net.hyper_search, cfg["search"]["space"],
            cfg["search"]["budget"], cfg["seed"], model_cfg, train_xy, val_xy, schedule)
    ckpt = out_dir / f"{pair}.{variant}.ckpt"
    net.save_checkpoint(model, ckpt, extras={
        "train_pair": pair, "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    })
    _write_csv(out_dir / f"{pair}.{variant}.train_log.csv",
               ["epoch", "train_loss", "val_loss", "val_mcc"],
               [(h["epoch"], h["train_loss"], h["val_loss"], h["val_mcc"])
                for h in result.history])
    if trials is not None:
        _write_csv(out_dir / f"{pair}.{variant}.search_log.csv",
                   ["trial", "val_loss", "choice"],
                   [(t["trial"], t["val_loss"],
                     json.dumps(t["choice"], sort_keys=True).replace(",", ";"))
                    for t in trials])
    print(f"trained {pair}.{variant}: best epoch {result.best_epoch} "
          f"val loss {result.best_val_loss:.6f} -> {ckpt.name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(out_dir: Path, checkpoint: str, dataset: str, split: str) -> int:
    if split not in features.SPLIT_NAMES:
        raise CliError(f"split must be one of {sorted(features.SPLIT_NAMES)}")
    model, extras = net.load_checkpoint(checkpoint)
    ds = features.load_dataset(dataset)
    if model.cfg.variant != ds.variant:
        raise VariantMismatch(f"checkpoint is {model.cfg.variant}, dataset is {ds.variant}")
    sub = ds.subset(split)
    if sub.n == 0:
        raise CliError(f"{split} split of {dataset} is empty")
    probs = shards.split_predict(model, sub.windows)
    yhat = probs.argmax(axis=1)
    train_pair = extras.get("train_pair", "unknown")
    stem = f"pred_{train_pair}__{ds.pair}.{ds.variant}.{split}"
    meta = {"variant": ds.variant, "train_pair": train_pair, "test_pair": ds.pair,
            "split": split}
    _write_csv(out_dir / f"{stem}.csv", ["timestamp_ms", "y", "yhat", "p1"],
               [(int(t), int(a), int(b), float(p)) for t, a, b, p
                in zip(sub.event_time, sub.y, yhat, probs[:, 1])], meta=meta)
    series = stats.daily_mcc(list(zip(sub.event_time.tolist(), sub.y.tolist(), yhat.tolist())))
    _write_csv(out_dir / f"{stem}.daily_mcc.csv", ["date", "mcc", "degenerate"],
               [(d, v, int(d in series.flags)) for d, v in zip(series.dates, series.values)],
               meta=meta)
    overall = stats.mcc(stats.confusion(sub.y, yhat))
    print(f"evaluated {stem}: n={sub.n} mcc={overall:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


# a prediction row's timestamp, as `evaluate` writes it: ASCII digits only,
# no spaces, underscores or other Unicode digits, which int() would take,
# and at most the 19 of an int64, below int()'s limit on digits
_TIMESTAMP = re.compile(r"-?[0-9]{1,19}")


def _load_predictions(paths) -> list[dict]:
    """The prediction sets of `paths`, at most one per (variant, train
    pair, test pair): the tables and figures key each set by those."""
    sets, seen = [], {}
    for p in paths:
        meta, header, rows = _read_csv(p)
        if header[:3] != ["timestamp_ms", "y", "yhat"]:
            continue
        for key in ("variant", "train_pair", "test_pair"):
            if key not in meta:
                raise CliError(f"{p}: prediction file has no '# {key}=' line")
        if meta["variant"] not in features.VARIANTS:
            raise CliError(f"{p}: variant {meta['variant']!r} is not one of {features.VARIANTS}")
        for key in ("train_pair", "test_pair"):
            checks.pair_name(meta[key], f"{p}: {key}", CliError)
        preds = []
        for r in rows:
            if not (len(r) >= 3 and _TIMESTAMP.fullmatch(r[0])
                    and r[1] in ("0", "1") and r[2] in ("0", "1")):
                raise CliError(f"{p}: line {','.join(r)!r} does not start with an integer "
                               "timestamp_ms and a y and yhat of 0 or 1")
            preds.append((int(r[0]), int(r[1]), int(r[2])))
        key = (meta["variant"], meta["train_pair"], meta["test_pair"])
        if key in seen:
            raise CliError(f"{seen[key]} and {p} both hold {key[0]} predictions of the "
                           f"{key[1]} model on {key[2]}")
        seen[key] = p
        sets.append({"path": str(p), "meta": meta, "preds": preds})
    if not sets:
        raise CliError("no prediction files found")
    return sets


def cmd_report(out_dir: Path, pred_paths, stream: str | None = None) -> int:
    if not pred_paths:
        pred_paths = sorted(p for p in out_dir.glob("pred_*.csv")
                            if not p.name.endswith(".daily_mcc.csv"))
    sets = _load_predictions(pred_paths)
    # the daily MCC series of each same-pair set, for Table 1 and Figure 1
    same_pair = [s for s in sets if s["meta"]["train_pair"] == s["meta"]["test_pair"]]
    for s in same_pair:
        s["daily"] = stats.daily_mcc(s["preds"])

    # Table-1 style: slope of daily MCC over test dates, same-pair sets only
    t1_rows = []
    for s in sorted(same_pair, key=lambda s: (s["meta"]["test_pair"], s["meta"]["variant"])):
        series = s["daily"]
        if len(series) < 3:
            continue
        r = stats.slope_regression(series)
        t1_rows.append((s["meta"]["test_pair"], s["meta"]["variant"], r.n, r.slope,
                        r.slope_se, r.t_stat, r.p_value, int(r.zero_residual)))

    # Table-2 style: percentage MCC drop of cross-pair vs same-pair tests
    overall = {}
    for s in sets:
        m = s["meta"]
        y = np.array([p[1] for p in s["preds"]])
        yh = np.array([p[2] for p in s["preds"]])
        overall[(m["variant"], m["train_pair"], m["test_pair"])] = \
            stats.mcc(stats.confusion(y, yh))
    t2_rows = []
    for (variant, train_pair, test_pair), cross in sorted(overall.items()):
        if train_pair == test_pair:
            continue
        same = overall.get((variant, train_pair, train_pair))
        if same is None or same <= 0:
            continue
        t2_rows.append((variant, train_pair, test_pair, same, cross,
                        stats.universality_drop(same, cross)))
    _write_csv(out_dir / "table1_slopes.csv",
               ["pair", "model", "n_days", "slope", "slope_se", "t_stat", "p_value",
                "zero_residual"], t1_rows)
    _write_csv(out_dir / "table2_drops.csv",
               ["model", "train_pair", "test_pair", "mcc_same", "mcc_cross", "pct_drop"],
               t2_rows)

    # Figure-1 style: daily MCC lines per model, one chart per test pair
    by_pair: dict[str, dict] = {}
    for s in same_pair:
        by_pair.setdefault(s["meta"]["test_pair"], {})[s["meta"]["variant"]] = s["daily"]
    for pair_name, variants in sorted(by_pair.items()):
        dates = sorted({d for series in variants.values() for d in series.dates})
        lines = {}
        for variant, series in sorted(variants.items()):
            lut = dict(zip(series.dates, series.values))
            lines[variant] = [lut.get(d, 0.0) for d in dates]
        svg.line_chart(lines, out_dir / f"figure1_{pair_name}.svg",
                       title=f"Daily MCC ({pair_name})", ylabel="MCC", x_labels=dates)
        _write_csv(out_dir / f"figure1_{pair_name}.csv", ["date", *sorted(lines)],
                   [(d, *[lines[v][i] for v in sorted(lines)]) for i, d in enumerate(dates)])

    # Figure-2 style: daily trade volume and 1-day lagged mid change
    if stream is not None:
        vol, chg = stats.daily_market_aggregates(feed.read_events(stream))
        svg.line_chart({"trade volume": vol.values}, out_dir / "figure2_volume.svg",
                       title="Daily trade volume", ylabel="volume", x_labels=vol.dates)
        svg.line_chart({"mid change": chg.values}, out_dir / "figure2_price_change.svg",
                       title="1-day lagged mid-price change", ylabel="ticks",
                       x_labels=chg.dates)
        _write_csv(out_dir / "figure2_volume.csv", ["date", "volume"],
                   list(zip(vol.dates, vol.values)))
        _write_csv(out_dir / "figure2_price_change.csv", ["date", "mid_change"],
                   list(zip(chg.dates, chg.values)))
    print(f"report: {len(t1_rows)} table-1 rows, {len(t2_rows)} table-2 rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck / selftest
# ---------------------------------------------------------------------------


def cmd_gradcheck(n: int, seed: int, tol: float = 1e-4) -> int:
    checks.integer(n, "--n", CliError, 1)
    checks.integer(seed, "--seed", CliError, 0)
    results = net.run_gradcheck(n_configs=n, seed=seed)
    worst = 0.0
    for desc, err in results:
        status = "PASS" if err < tol else "FAIL"
        print(f"{status} gradcheck {desc}: max rel err {err:.3e}")
        worst = max(worst, err)
    return EXIT_OK if worst < tol else EXIT_ERROR


def cmd_selftest(n_events: int, seed: int) -> int:
    checks.integer(n_events, "--events", CliError, 0)
    checks.integer(seed, "--seed", CliError, 0)
    ok = True

    # book vs naive reference, compared after every event the stream reader yields
    gcfg = feed.GeneratorConfig(n_events=n_events)
    book = lob.OrderBook()
    ref = oracle.ReferenceBook()
    mismatch = None
    for i, ev in enumerate(feed.iter_events(feed.generate_synthetic(gcfg, seed=seed)), start=1):
        executed, ref_executed = book.apply_event(ev), ref.apply(ev)
        mismatch = oracle.compare_books(book, ref)
        if mismatch is None and executed != ref_executed:
            mismatch = f"executed {executed} != {ref_executed}"
        if mismatch:
            mismatch = f"event {i}: {mismatch}"
            break
    status = "PASS" if mismatch is None else f"FAIL ({mismatch})"
    print(f"{status} lob oracle equivalence over {n_events} events")
    ok = ok and mismatch is None

    # metric formula oracles
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 50, 4))
        if tp + tn + fp + fn == 0:
            continue
        worst = max(worst, abs(stats.mcc(stats.ConfusionMatrix(tp, tn, fp, fn))
                               - oracle.mcc_direct(tp, tn, fp, fn)))
    print(f"{'PASS' if worst < 1e-12 else 'FAIL'} mcc vs direct formula "
          f"(max abs err {worst:.2e})")
    ok = ok and worst < 1e-12

    # the two-sided p-value that table1_slopes.csv reports
    worst = 0.0
    for df in (1, 2, 5, 30, 200):
        for t in (-3.0, -0.5, 0.0, 1.0, 1.96, 4.2):
            worst = max(worst, abs(stats.t_sf_two_sided(t, df)
                                   - 2 * (1 - oracle.t_cdf_quadrature(abs(t), df))))
    print(f"{'PASS' if worst < 1e-9 else 'FAIL'} t_sf_two_sided vs quadrature "
          f"(max abs err {worst:.2e})")
    ok = ok and worst < 1e-9
    return EXIT_OK if ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lobflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("generate", help="write synthetic .ofr streams for each pair")
    common(p)
    p.add_argument("--pair", default=None)

    p = sub.add_parser("build", help="build labelled datasets for every variant")
    common(p)
    p.add_argument("--pair", default=None)

    p = sub.add_parser("train", help="train one (pair, variant) model")
    common(p)
    p.add_argument("--pair", required=True)
    p.add_argument("--variant", required=True, choices=features.VARIANTS)
    p.add_argument("--dataset", default=None, help="explicit dataset path")

    p = sub.add_parser("evaluate", help="predictions + daily MCC for one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=sorted(features.SPLIT_NAMES))
    p.add_argument("--out", default="out")

    p = sub.add_parser("report", help="Table-1/Table-2 style reports and plots")
    p.add_argument("--out", default="out")
    p.add_argument("--pred", nargs="*", default=None, help="prediction CSVs (default: scan out dir)")
    p.add_argument("--stream", default=None, help=".ofr stream for the market-aggregate figure")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification suite")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("selftest", help="oracle equivalence suites")
    p.add_argument("--events", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with atomic.stage():   # the command's files land when it returns, none if it raises
            if args.command in ("generate", "build", "train"):
                cfg = load_config(args.config, args.seed)
            if args.command == "generate":
                return cmd_generate(cfg, Path(args.out), args.pair)
            if args.command == "build":
                return cmd_build(cfg, Path(args.out), args.pair)
            if args.command == "train":
                return cmd_train(cfg, Path(args.out), args.pair, args.variant, args.dataset)
            if args.command == "evaluate":
                return cmd_evaluate(Path(args.out), args.checkpoint, args.dataset, args.split)
            if args.command == "report":
                return cmd_report(Path(args.out), args.pred, args.stream)
            if args.command == "gradcheck":
                return cmd_gradcheck(args.n, args.seed)
            if args.command == "selftest":
                return cmd_selftest(args.events, args.seed)
            raise CliError(f"unknown command {args.command}")
    except (CliError, feed.FeedError, lob.BookError, features.FeatureError,
            net.NetError, stats.StatsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
