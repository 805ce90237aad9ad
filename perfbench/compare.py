"""Collect benchmark results and judge them.

    python3 perfbench/compare.py collect --runs 10 --out A.jsonl [--workload NAME ...]
    python3 perfbench/compare.py spread A.jsonl
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py tracking A.jsonl

``collect`` runs ``run.py`` once per workload and seed (seeds 1..runs,
workloads interleaved) and appends each result, with its pass digests,
to the JSONL file.  It prints every metric by name and unit.

``spread`` reports, per (metric, workload), the median, the quartiles and
the interquartile range as a share of the median, next to the bound and a
third of the bound from BENCHMARK.json.

``compare`` pairs the runs of two result files by (workload, seed) and
gives each (metric, workload) a verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and its median is better than the parent's by more than the
  parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: the parent's own spread is wider than the bound and not
  every change run beats every parent run;
* no worse: otherwise.

Per-layer metrics have no bound: they read improved or worse by the
9-of-10 rule in either direction, unchanged when both medians are equal,
and unresolved otherwise.  The per-pass output digests of runs with the
same workload and seed are compared over the passes both runs made, so a
change that keeps every output bit reads "same outputs".

``tracking`` tests the assumption behind the reference seconds of
``calibration.py``: that the package's own time moves with the host's
speed as the calibration loop does.  Per workload it pools the timed
passes of all runs and regresses log(raw pass time) on log(the pass's
effective calibration, raw / reference).  A slope near 1 means the
rescaling removes the host's speed swings without favouring code that
the swings move less; the correlation of the reference times with the
calibration is then near 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WIN_SHARE = 0.9


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            metrics[m["name"]] = m
    spec["metrics"] = metrics
    return spec


def load_results(path) -> tuple[dict, dict]:
    """{(workload, metric): {seed: value}} plus {(workload, seed): pass digests}.

    Runs with ``--trace 0`` also give their raw host figures (``host.*``).
    """
    values, digests = defaultdict(dict), {}
    for rec in read_records(path):
        metrics = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
        if rec["trace"] == 0:
            metrics.update(rec["host"])
            digests[rec["workload"], rec["seed"]] = rec["digests"]
        for name, value in metrics.items():
            values[rec["workload"], name][rec["seed"]] = value
    return values, digests


def read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs won) for paired runs; see the module docstring."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(g > 0 for g in gains) / len(gains)
    lost = sum(g < 0 for g in gains) / len(gains)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if won >= WIN_SHARE and gain > iqr:
        return "improved", won
    if bound is None:
        if lost >= WIN_SHARE and -gain > iqr:
            return "worse", won
        return ("unchanged" if c_med == p_med else "unresolved"), won
    if iqr > bound * abs(p_med):
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("no worse" if every_run_better else "unresolved"), won
    if -gain > bound * abs(p_med):
        return "worse", won
    return "no worse", won


def cmd_collect(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for seed in range(1, args.runs + 1):
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--save", str(args.out)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit status {done.returncode}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                              for k, m in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}: {shown}",
                  flush=True)
    return 0


def cmd_spread(args) -> int:
    spec = load_spec()
    values, _ = load_results(args.results)
    print(f"{'workload':14} {'metric':38} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound/3':>7}")
    over = 0
    for (workload, name), by_seed in sorted(values.items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = spec["metrics"].get(name, {}).get("bound")
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
            over += 1
        print(f"{workload:14} {name:38} {len(vals):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else f'{bound / 3:.3f}':>7}{flag}")
    return 1 if over else 0


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def cmd_compare(args) -> int:
    spec = load_spec()
    parent, p_digests = load_results(args.parent)
    change, c_digests = load_results(args.change)
    print(f"{'workload':14} {'metric':38} {'pairs':>5} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        seeds = sorted(parent[key].keys() & change[key].keys())
        if not seeds:
            continue
        p = [parent[key][s] for s in seeds]
        c = [change[key][s] for s in seeds]
        m = spec["metrics"].get(name, {"better": "lower"})
        text, won = verdict(p, c, m["better"], m.get("bound"))
        print(f"{workload:14} {name:38} {len(seeds):5d} {_fmt(quartiles(p)):>32} "
              f"{_fmt(quartiles(c)):>32} {won:5.2f}  {text}")
    for key in sorted(p_digests.keys() & c_digests.keys()):
        pairs = list(zip(p_digests[key], c_digests[key]))
        same = all(p == c for p, c in pairs)
        print(f"outputs {key[0]} seed {key[1]}: {len(pairs)} passes, "
              f"{'same outputs' if same else 'DIFFERENT outputs'}")
    return 0


def cmd_tracking(args) -> int:
    passes = defaultdict(list)
    for rec in read_records(args.results):
        if rec["trace"] == 0:
            passes[rec["workload"]].extend(rec["passes"])
    print(f"{'workload':14} {'passes':>6} {'calibration':>17} {'slope':>6} "
          f"{'r(raw)':>7} {'r(ref)':>7}")
    for workload, rows in passes.items():
        raw = [math.log(r) for r, _ in rows]
        ref = [math.log(f) for _, f in rows]
        cal = [r - f for r, f in zip(raw, ref)]
        slope = statistics.covariance(cal, raw) / statistics.variance(cal)
        spread = f"{math.exp(min(cal)):.3f}..{math.exp(max(cal)):.3f}"
        print(f"{workload:14} {len(rows):6d} {spread:>17} {slope:6.3f} "
              f"{statistics.correlation(cal, raw):7.3f} "
              f"{statistics.correlation(cal, ref):7.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run every workload over several seeds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append", help="repeatable; default all")
    p.add_argument("--out", required=True, help="JSONL file to append results to")
    p.set_defaults(func=cmd_collect)
    p = sub.add_parser("spread", help="quartile spread of one result file")
    p.add_argument("results")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("compare", help="verdicts of a change against its parent")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("tracking", help="how raw pass times follow the calibration")
    p.add_argument("results")
    p.set_defaults(func=cmd_tracking)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
