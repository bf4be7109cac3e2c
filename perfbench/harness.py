"""Workloads, measurement loop and output checks of the lobflow benchmark.

A run prepares its inputs from the seed (set-up, repeated so that its
time is a median), then repeats the workload's timed pass until the
time budget is spent, and finally checks the outputs against
``lobflow.oracle`` and the planted-signal rules.  Times are taken with
:class:`hostclock.HostClock` and reported at its reference host speed.
Every stage call and every check is one attempted operation; a raise,
a nonzero exit code or a failed check is one failed operation.

Only the public API of lobflow is called.  ``lobflow.oracle`` appears
in the checks alone and is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from lobflow import cli, feed, features, lob, net, oracle, stats

import tracing
from hostclock import HostClock

PAIR = "BENCH"


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model settings shared by the three workloads."""

    replay_events: int = 30_000
    replay_gap_ms: int = 10_000       # 30k events span ~3.5 UTC days
    build_events: int = 8_000
    build_gap_ms: int = 60_000
    T: int = 100
    S: int = 5
    warm_count: int = 100
    learn_train: int = 2048
    learn_val: int = 256
    learn_test: int = 512
    learn_gap_ms: int = 180_000       # the test split spans ~4 UTC days
    layers: tuple = (64, 64)
    # Training leaves a loss plateau after a seed-dependent number of steps:
    # at B=256, 24 steps left 2 of 10 seeds at chance and one needed 64.
    # B=64 for 4 epochs gives 128 steps, which every seed tried passes.
    batch_size: int = 64
    epochs: int = 4
    lr: float = 1e-2
    dropout: float = 0.1
    # chance level is 0 +- 1/sqrt(learn_test) = 0.044
    mcc_floor: float = 0.3
    setup_repeats: int = 5

    @property
    def learn_samples(self) -> int:
        return self.learn_train + self.learn_val + self.learn_test

    @property
    def learn_events(self) -> int:
        # a planted stream yields one sample per ~4 events after warm-up
        return 5 * self.learn_samples + self.warm_count + 2 * self.T


class WorkloadError(Exception):
    """Set-up could not produce the inputs a workload needs."""


class Ledger:
    """Attempted and failed operations, the duration of each stage call,
    and notes on the checked outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.stage_times: dict[str, list] = {}
        self.notes: dict[str, object] = {}

    def stage(self, name: str, fn):
        """Run one stage call; returns its value, or None when it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                value = fn()
        except Exception as e:  # the run must go on and report the failure
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None
        self.stage_times.setdefault(name, []).append(perf_counter() - t0)
        return value

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name!r} failed {detail}".rstrip())
        return ok


def _cli(*argv) -> bool:
    rc = cli.main([str(a) for a in argv])
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"lobflow {argv[0]} exited with code {rc}")
    return True


def _files_digest(directory: Path, suffixes) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        if p.suffix in suffixes:
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _utc_day(ts_ms: int) -> str:
    """UTC date, computed apart from `stats.utc_date`, whose output is checked."""
    return time.strftime("%Y-%m-%d", time.gmtime(ts_ms // 1000))


def _read_csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a lobflow CSV, without `# key=value` lines and header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("# ")]
    return [ln.split(",") for ln in lines[1:]]


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A workload: set-up, timed pass, output checks.  `kernel` names the
    hostclock reference kernel whose work the pass most resembles."""

    name = ""
    kernel = "python"

    def extra_rates(self, ledger: Ledger, slowdown: float, sizes: Sizes) -> dict:
        """Summary-only throughputs at reference host speed."""
        return {}


class Replay(Workload):
    """`lobflow report --stream`: parse, book replay and daily aggregates."""

    name = "replay"

    def setup(self, work: Path, seed: int, sizes: Sizes) -> dict:
        path = work / "replay.ofr"
        gcfg = feed.GeneratorConfig(n_events=sizes.replay_events,
                                    mean_gap_ms=sizes.replay_gap_ms)
        return {"ofr": path, "events": feed.write_stream(path, gcfg, seed)}

    def run(self, inp: dict, out: Path, ledger: Ledger):
        return ledger.stage("daily_market_aggregates", lambda: stats.daily_market_aggregates(
            feed.read_events(inp["ofr"])))

    def fingerprint(self, inp: dict, out: Path, result) -> str:
        vol, chg = result
        return repr((vol.dates, vol.values, chg.dates, chg.values))

    def check(self, inp: dict, out: Path, result, ledger: Ledger, sizes: Sizes) -> None:
        book, ref = lob.OrderBook(), oracle.ReferenceBook()
        ref_volume: dict[str, float] = {}
        ref_last_mid: dict[str, object] = {}   # the day's last defined mid
        for ev in feed.read_events(inp["ofr"]):
            d = _utc_day(ev.timestamp_ms)
            book.apply_event(ev)
            ref_volume[d] = ref_volume.get(d, 0.0) + ref.apply(ev)
            mid = ref.mid()
            if mid is not None:
                ref_last_mid[d] = mid

        mismatch = oracle.compare_books(book, ref)
        ledger.check("book end state matches oracle", mismatch is None, mismatch or "")
        ledger.check("dropped market orders match oracle",
                     book.dropped_market_events == ref.dropped_market_events)
        vol, chg = result
        dates = sorted(ref_volume)
        ledger.check("daily executed volume matches oracle",
                     vol.dates == dates and np.allclose(vol.values, [ref_volume[d] for d in dates],
                                                        rtol=1e-12, atol=1e-9),
                     f"{vol.values} vs {[ref_volume[d] for d in dates]}")
        mid_dates = sorted(ref_last_mid)
        ref_chg = [float(ref_last_mid[b]) - float(ref_last_mid[a])
                   for a, b in zip(mid_dates, mid_dates[1:])]
        ledger.check("daily mid change matches oracle",
                     chg.dates == mid_dates[1:] and np.allclose(chg.values, ref_chg,
                                                                rtol=1e-12, atol=1e-9))
        ledger.notes["days"] = len(dates)
        ledger.check("stream spans several UTC days", len(dates) >= 3, f"{dates}")

class Build(Workload):
    """`lobflow build`: all three variants, date split, norm stats, `.ds` save."""

    name = "build"

    def setup(self, work: Path, seed: int, sizes: Sizes) -> dict:
        path = work / "build.ofr"
        gcfg = feed.GeneratorConfig(n_events=sizes.build_events, mean_gap_ms=sizes.build_gap_ms,
                                    min_gap_ms=1, planted=feed.PLANTED_LAST_EVENT_SIDE)
        n = feed.write_stream(path, gcfg, seed)
        lines = path.read_text(encoding="utf-8").splitlines()
        lo = feed.parse_event(lines[0]).timestamp_ms
        hi = feed.parse_event(lines[-1]).timestamp_ms + 1
        a, b = lo + int(0.6 * (hi - lo)), lo + int(0.8 * (hi - lo))
        config = work / "build.json"
        _write_config(config, {
            "seed": seed, "pairs": {PAIR: {"input": str(path)}},
            "T": sizes.T, "S": sizes.S, "warm_up": {"count": sizes.warm_count},
            "split_ranges": {"train": [lo, a], "validation": [a, b], "test": [b, hi]},
        })
        return {"ofr": path, "config": config, "events": n}

    def run(self, inp: dict, out: Path, ledger: Ledger):
        return ledger.stage("build", lambda: _cli("build", "--config", inp["config"],
                                                  "--out", out))

    def fingerprint(self, inp: dict, out: Path, result) -> str:
        return _files_digest(out, {".ds", ".json"})

    def check(self, inp: dict, out: Path, result, ledger: Ledger, sizes: Sizes) -> None:
        dss = {v: features.load_dataset(out / f"{PAIR}.{v}.ds") for v in features.VARIANTS}
        of = dss["orderflow"]
        ledger.notes["samples"] = of.n
        ledger.check("every split is non-empty",
                     of.n > 0 and all(c > 0 for c in of.split_counts().values()),
                     f"{of.split_counts()}")
        last_is_buy = of.X[:, -1, 4] == feed.Side.BUY.value
        agree = float(np.mean((of.y == 1) == last_is_buy)) if of.n else 0.0
        ledger.check("planted label: y == 1 iff the last window event is a buy",
                     of.n > 0 and agree == 1.0, f"(agreement {agree:.4f})")
        ledger.check("no look-ahead: window_last_ts < event_time",
                     all(bool(np.all(ds.window_last_ts < ds.event_time)) for ds in dss.values()))
        ledger.check("y and event_time identical across variants",
                     all(np.array_equal(ds.y, of.y) and np.array_equal(ds.event_time,
                                                                       of.event_time)
                         for ds in dss.values()))

class Learn(Workload):
    """`lobflow train`, then `evaluate` on the test split, then `report`."""

    name = "learn"
    kernel = "numpy"

    def setup(self, work: Path, seed: int, sizes: Sizes) -> dict:
        path = work / "learn.ofr"
        gcfg = feed.GeneratorConfig(n_events=sizes.learn_events, mean_gap_ms=sizes.learn_gap_ms,
                                    min_gap_ms=1, planted=feed.PLANTED_LAST_EVENT_SIDE)
        n = feed.write_stream(path, gcfg, seed)
        # the orderflow .ds, written by the same calls `lobflow build` makes
        ds = features.build_datasets(feed.read_events(path), T=sizes.T, S=sizes.S, pair=PAIR,
                                     warm_count=sizes.warm_count,
                                     variants=("orderflow",))["orderflow"]
        ntr, nva, need = sizes.learn_train, sizes.learn_val, sizes.learn_samples
        if ds.n <= need:
            raise WorkloadError(f"{n} events gave {ds.n} samples, need more than {need}")
        t = ds.event_time  # strictly increasing (min_gap_ms=1): exact split sizes
        bounds = [int(t[0]), int(t[ntr]), int(t[ntr + nva]), int(t[need])]
        ranges = list(zip(bounds, bounds[1:]))
        features.split_by_date(ds, *ranges)
        features.compute_norm_stats(ds)
        ds_path = work / f"{PAIR}.orderflow.ds"
        features.save_dataset(ds, ds_path)
        config = work / "learn.json"
        _write_config(config, {
            "seed": seed, "pairs": {PAIR: {"input": str(path)}},
            "T": sizes.T, "S": sizes.S, "warm_up": {"count": sizes.warm_count},
            "split_ranges": dict(zip(("train", "validation", "test"), map(list, ranges))),
            "model": {"layers": list(sizes.layers), "dense_hidden": [],
                      "emb_dims": dict(net.DEFAULT_EMB_DIMS), "dropout": sizes.dropout},
            # patience >= epochs: early stopping cannot change the amount of work
            "schedule": {"epochs": sizes.epochs, "batch_size": sizes.batch_size,
                         "lr": sizes.lr, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                         "patience": sizes.epochs},
        })
        return {"ofr": path, "ds": ds_path, "config": config, "events": n}

    def run(self, inp: dict, out: Path, ledger: Ledger):
        ckpt = out / f"{PAIR}.orderflow.ckpt"
        for name, argv in (
            ("train", ("train", "--config", inp["config"], "--out", out, "--pair", PAIR,
                       "--variant", "orderflow", "--dataset", inp["ds"])),
            ("evaluate", ("evaluate", "--checkpoint", ckpt, "--dataset", inp["ds"],
                          "--split", "test", "--out", out)),
            ("report", ("report", "--out", out)),
        ):
            if ledger.stage(name, lambda: _cli(*argv)) is None:
                return None
        return True

    def fingerprint(self, inp: dict, out: Path, result) -> str:
        return _files_digest(out, {".ckpt", ".csv", ".svg"})

    def check(self, inp: dict, out: Path, result, ledger: Ledger, sizes: Sizes) -> None:
        rows = _read_csv_rows(out / f"pred_{PAIR}__{PAIR}.orderflow.test.csv")
        y = np.array([int(r[1]) for r in rows])
        yhat = np.array([int(r[2]) for r in rows])
        p1 = np.array([float(r[3]) for r in rows])
        ledger.check("every test sample scored", len(rows) == sizes.learn_test,
                     f"({len(rows)} rows)")
        tp, tn = int(np.sum((y == 1) & (yhat == 1))), int(np.sum((y == 0) & (yhat == 0)))
        fp, fn = int(np.sum((y == 0) & (yhat == 1))), int(np.sum((y == 1) & (yhat == 0)))
        direct = oracle.mcc_direct(tp, tn, fp, fn)
        ledger.notes["test_mcc"] = direct
        fast = stats.mcc(stats.ConfusionMatrix(tp, tn, fp, fn))
        ledger.check("stats.mcc equals oracle.mcc_direct", abs(fast - direct) < 1e-12,
                     f"({fast} vs {direct})")
        ledger.check("planted signal learned", direct >= sizes.mcc_floor,
                     f"(test MCC {direct:.3f} < {sizes.mcc_floor})")
        model, _ = net.load_checkpoint(out / f"{PAIR}.orderflow.ckpt")
        test = features.load_dataset(inp["ds"]).subset("test")
        probs = model.predict(test.X)
        ledger.check("softmax rows sum to 1",
                     float(np.max(np.abs(probs.sum(axis=1) - 1.0))) < 1e-12)
        ledger.check("predictions reproduce from the checkpoint",
                     probs.shape[0] == len(rows) and np.array_equal(probs[:, 1], p1)
                     and np.array_equal(probs.argmax(axis=1), yhat))
        ledger.check("report wrote the daily-MCC slope row",
                     len(_read_csv_rows(out / "table1_slopes.csv")) == 1)

    def extra_rates(self, ledger: Ledger, slowdown: float, sizes: Sizes) -> dict:
        times, rates = ledger.stage_times, {}
        if times.get("train"):
            rates["train_samples_per_s"] = (sizes.epochs * sizes.learn_train * slowdown
                                            / statistics.median(times["train"]))
        if times.get("evaluate"):
            rates["predict_samples_per_s"] = (sizes.learn_test * slowdown
                                              / statistics.median(times["evaluate"]))
        return rates


WORKLOADS = {w.name: w for w in (Replay(), Build(), Learn())}

# end-to-end metrics printed besides the machine-readable result
EXTRA_UNITS = {"train_samples_per_s": "samples/s", "predict_samples_per_s": "samples/s",
               "error_rate": "ratio"}


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def machine_facts(root: Path, workload: str, seed: int, sizes: Sizes) -> dict:
    inputs = {"replay": {"events": sizes.replay_events},
              "build": {"events": sizes.build_events, "T": sizes.T, "S": sizes.S},
              "learn": {"events": sizes.learn_events, "train": sizes.learn_train,
                        "validation": sizes.learn_val, "test": sizes.learn_test,
                        "T": sizes.T, "layers": list(sizes.layers),
                        "batch_size": sizes.batch_size, "epochs": sizes.epochs}}[workload]
    return {
        "workload": workload, "seed": seed, "inputs": inputs,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": _commit(root), "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    result: dict          # the machine-readable result line
    extra: dict           # further end-to-end metrics, by name -> (value, unit)
    facts: dict
    setups: list          # hostclock.Timing of each set-up
    passes: list          # hostclock.Timing of each untraced pass
    failures: list
    notes: dict


def _passes(workload, inp, out, ledger, budget_s, tracer_factory=None, between=None):
    """Repeat the timed pass while the passes' total fits in `budget_s`
    (at least once).

    `between(seconds of passes so far)` runs after each pass, off the
    clock.  Returns (hostclock.Timing per pass, first result, tracers).
    Passes after the first must reproduce its outputs exactly.
    """
    clock = HostClock(workload.kernel)
    timings, tracers, first, fp0 = [], [], None, None
    while True:
        tracer = tracer_factory() if tracer_factory else None
        with tracing.traced(tracer) if tracer else contextlib.nullcontext():
            result, timing = clock.time(lambda: workload.run(inp, out, ledger))
        timings.append(timing)
        if tracer:
            tracers.append(tracer)
        if result is None:
            break
        fp = workload.fingerprint(inp, out, result)
        if first is None:
            first, fp0 = result, fp
        else:
            ledger.check("pass reproduces the first pass's outputs", fp == fp0)
        elapsed = sum(t.wall_s for t in timings)
        if between is not None:
            between(elapsed)
        # stop unless another pass of typical length still fits
        if elapsed + statistics.median(t.wall_s for t in timings) > budget_s:
            break
    return timings, first, tracers


def _at_reference_speed(metrics: dict, slowdown: float) -> dict:
    """Scale a traced pass's times and rates to reference host speed."""
    scaled = {}
    for k, v in metrics.items():
        unit = tracing.LAYER_UNITS[k]
        if unit == "s":
            v /= slowdown
        elif unit.endswith("/s"):
            v *= slowdown
        scaled[k] = v
    return scaled


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            sizes: Sizes = Sizes(), work_root: Path | None = None, tamper=None) -> Outcome:
    """One benchmark run.  `tamper(name, inputs, out_dir, result)` may alter
    the outputs before they are checked (used to test the checks)."""
    workload = WORKLOADS[name]
    facts = machine_facts(root, name, seed, sizes)
    ledger = Ledger()
    work_root = work_root or root / ".perfbench_work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        cost = tracing.calibrate() if trace else (0.0, 0.0)
        setup_tracer = tracing.Tracer(cost)
        setup_clock = HostClock("python")
        setups, digests = [], []

        def set_up(tracer=None):
            d = work / f"setup{len(setups)}"
            d.mkdir()
            with tracing.traced(tracer) if tracer else contextlib.nullcontext():
                inputs, timing = setup_clock.time(lambda: workload.setup(d, seed, sizes))
            setups.append(timing)
            digests.append(_files_digest(d, {".ofr", ".ds"}))
            return inputs, d

        inp, _ = set_up(setup_tracer if trace else None)
        # the other set-ups are spread over the passes, so that setup_s
        # samples the host over the whole run, not its first seconds
        repeats = 1 if trace else sizes.setup_repeats
        budget = seconds / 2 if trace else seconds
        due = [budget * r / repeats for r in range(1, repeats)]

        def spare_set_ups(elapsed: float) -> None:
            while due and due[0] <= elapsed:
                due.pop(0)
                shutil.rmtree(set_up()[1])

        out = work / "out"
        passes, first, _ = _passes(workload, inp, out, ledger, budget, between=spare_set_ups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spare_set_ups(float("inf"))
        ledger.check("set-up reproduces its inputs", len(set(digests)) == 1)
        wall_s = statistics.median(t.ref_s for t in passes)
        slowdown = statistics.median(t.slowdown for t in passes)
        rates = workload.extra_rates(ledger, slowdown, sizes)
        if trace:
            traced, _, tracers = _passes(workload, inp, out, ledger, budget,
                                         lambda: tracing.Tracer(cost))
            overhead = statistics.median(t.ref_s for t in traced) - wall_s
            per_pass = [_at_reference_speed(tracing.layer_metrics(setup_tracer, tr, overhead),
                                            t.slowdown) for tr, t in zip(tracers, traced)]
            metrics = {k: {"value": statistics.median(p[k] for p in per_pass), "unit": unit}
                       for k, unit in tracing.LAYER_UNITS.items()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(t.ref_s for t in setups), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                "events_per_s": {"value": inp["events"] / wall_s, "unit": "events/s"},
            }
        if first is not None:
            if tamper is not None:
                tamper(name, inp, out, first)
            workload.check(inp, out, first, ledger, sizes)

        failed = len(ledger.failures)
        extra = {k: (v, EXTRA_UNITS[k]) for k, v in rates.items()}
        extra["error_rate"] = (failed / ledger.attempted, EXTRA_UNITS["error_rate"])
        result = {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
                  "metrics": metrics}
        return Outcome(result, extra, facts, setups, passes, list(ledger.failures),
                       dict(ledger.notes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
