"""Run one workload of the lobflow benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload replay --seed 7 --seconds 20 --trace 0

Workloads: ``replay``, ``build``, ``learn`` (see perfbench/README.md).
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a traced pass gives the per-layer metrics instead.  The
lines before the last are a readable summary; the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

lobflow is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one BLAS thread: a single closed-loop client, and steadier timings on a
# small shared machine (recorded in the facts line)
BLAS_THREADS = "1"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("replay", "build", "learn"))
    ap.add_argument("--seed", type=int, default=7, help="input seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="time budget of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced passes")
    ap.add_argument("--record", default=None,
                    help="also write the result, facts and raw timings to this JSON file")
    return ap


def _import_lobflow() -> str | None:
    """Put the checkout's src/ first on the path; None or an error message."""
    if not (SRC / "lobflow" / "__init__.py").is_file():
        return f"no lobflow sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import lobflow

    if not Path(lobflow.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"lobflow imported from {lobflow.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _import_lobflow()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness

    outcome = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"# lobflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# facts " + json.dumps(outcome.facts, sort_keys=True))
    for label, timings in (("set-ups", outcome.setups), ("untraced passes", outcome.passes)):
        walls = [t.wall_s for t in timings]
        print(f"# {len(timings)} {label}: wall s min {min(walls):.3f} median "
              f"{statistics.median(walls):.3f} max {max(walls):.3f}; host slowdown median "
              f"{statistics.median(t.slowdown for t in timings):.3f}; wall s / slowdown, "
              "in order: " + " ".join(f"{t.wall_s:.3f}/{t.slowdown:.2f}" for t in timings))
    rows = [(k, m["value"], m["unit"]) for k, m in outcome.result["metrics"].items()]
    rows += [(k, v, unit) for k, (v, unit) in outcome.extra.items()]
    for name, value, unit in rows:
        print(f"# {name:<28} {value:>16.6g} {unit}")
    for key, value in outcome.notes.items():
        print(f"# note {key} = {value}")
    for failure in outcome.failures:
        print(f"# FAILED {failure}")
    if args.record:
        record = {"result": outcome.result, "extra": outcome.extra, "facts": outcome.facts,
                  "setups": [vars(t) for t in outcome.setups],
                  "passes": [vars(t) for t in outcome.passes],
                  "failures": outcome.failures, "notes": outcome.notes}
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(outcome.result), flush=True)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
