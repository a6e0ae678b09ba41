#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark on two FLINT trees.

    tools/ab_pairs.py <base> <head> --workload fedbuff_train --pairs 10 \\
        [--seconds 35] [--seed 7] [--trace 0] [--work-dir .ab_trees]

<base> and <head> are each a git revision, exported with `git archive | tar`
into <work-dir>/<name>, or a directory that already holds a tree (for
example, one made the same way from a working copy). Both trees are built
first, through the `build` of each tree's own perfbench/run.py. Then pair i
runs `python3 perfbench/run.py --workload W ...` once in each tree, the base
first in even pairs and the head first in odd ones, so neither side always
runs on a machine the other has just warmed.

The result goes to BENCH_ab_<W>.json in the current directory. For each
end-to-end metric of BENCHMARK.json (with --trace 1, each per-layer metric
both sides report instead: a traced run reports only those) it holds both
sides' runs, medians and
quartiles, the head/base ratio of the medians, the head's wins out of the
pairs (ties count for neither side), a two-sided sign-test p over the
untied pairs, and each side's interquartile range relative to its median
next to the metric's bound. The verdict is:

  unresolved  a side's relative IQR exceeds the bound: the runs spread too
              widely to tell a change within the bound from noise;
  better      the head wins at least 9 in 10 pairs and the medians differ by
              more than the base's IQR;
  worse       the same, with the base winning;
  regressed   the head's median is worse than the base's by more than the
              bound (and the spread is within it);
  unchanged   none of the above.

Per-layer metrics carry no bound, so they read better, worse or unchanged.

Exit: 0 when every run produced a result, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


# ---------------------------------------------------------------- statistics

def quantile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("quantile of no values")
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test over the untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def compare(base: list[float], head: list[float], better: str, bound: float | None) -> dict:
    """Summarize one metric over paired runs (base[i] and head[i] are pair i).

    A metric without a bound (None) is never unresolved or regressed."""
    if len(base) != len(head) or not base:
        raise ValueError("compare needs one base and one head value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)

    def side(values: list[float]) -> dict:
        med = quantile(values, 0.5)
        q1, q3 = quantile(values, 0.25), quantile(values, 0.75)
        rel = (q3 - q1) / abs(med) if med != 0 else math.inf
        return {"runs": values, "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                "iqr_rel": rel, "iqr_within_bound": bound is None or rel <= bound}

    b, h = side(base), side(head)
    ratio = h["median"] / b["median"] if b["median"] != 0 else math.inf
    gain = sign * (h["median"] - b["median"])  # > 0 when the head is better
    needed = math.ceil(WIN_SHARE * len(base))
    if not (b["iqr_within_bound"] and h["iqr_within_bound"]):
        verdict = "unresolved"
    elif wins >= needed and gain > b["iqr"]:
        verdict = "better"
    elif losses >= needed and -gain > b["iqr"]:
        verdict = "worse"
    elif bound is not None and b["median"] != 0 and -gain / abs(b["median"]) > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"better": better, "bound": bound, "pairs": len(base), "base": b, "head": h,
            "ratio": ratio, "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
            "wins_needed": needed, "sign_test_p": sign_test_p(wins, losses),
            "verdict": verdict}


# ------------------------------------------------------------------- running

def log(msg: str) -> None:
    print(f"ab_pairs: {msg}", file=sys.stderr, flush=True)


def make_tree(spec: str, name: str, work_dir: Path) -> Path:
    """A directory holding the tree: `spec` itself, or `git archive spec`."""
    path = Path(spec)
    if path.is_dir():
        return path.resolve()
    dest = work_dir / name
    if dest.exists():
        subprocess.run(["rm", "-rf", str(dest)], check=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", spec],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"ab_pairs: git archive {spec} failed")
    return dest.resolve()


def build_tree(tree: Path) -> None:
    """Build with the tree's own perfbench/run.py, so the timed runs do not."""
    spec = importlib.util.spec_from_file_location(f"run_{abs(hash(tree))}",
                                                  tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build(tree, tree / ".bench_build")


def value(result: dict, name: str) -> float:
    """One metric of a run.py result object: {"metrics": {name: {"value": v}}}."""
    return result["metrics"][name]["value"]


def compared_metrics(benchmark: dict, trace: int, runs: list[dict]) -> list[dict]:
    """The metrics to compare, as {name, better, bound}: BENCHMARK.json's
    end-to-end ones, or with --trace 1 its per-layer ones (bound None) that
    every run reported."""
    if not trace:
        return benchmark["end_to_end"]
    return [{"name": m["name"], "better": m["better"], "bound": None}
            for m in benchmark["per_layer"]
            if all(m["name"] in r["metrics"] for r in runs)]


def summarize(metrics: list[dict], base: list[dict], head: list[dict]) -> dict:
    """compare() for each metric over the paired run results."""
    return {m["name"]: compare([value(r, m["name"]) for r in base],
                               [value(r, m["name"]) for r in head], m["better"], m["bound"])
            for m in metrics}


def run_once(tree: Path, args: argparse.Namespace) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from {tree} (exit {proc.returncode})")
        return None
    if proc.returncode != 0:
        log(f"{tree} exited {proc.returncode}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".ab_trees")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    trees = {"base": make_tree(args.base, "base", args.work_dir),
             "head": make_tree(args.head, "head", args.work_dir)}
    for side, tree in trees.items():
        log(f"building {side} in {tree}")
        build_tree(tree)

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    failed_runs = 0
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], args)
        if pair["base"] is None or pair["head"] is None:
            failed_runs += 1
            continue
        for side in ("base", "head"):
            runs[side].append(pair[side])
        summary = ", ".join(
            f"{m['name']} {value(pair['base'], m['name']):.4g} -> "
            f"{value(pair['head'], m['name']):.4g}"
            for m in compared_metrics(benchmark, args.trace, [pair["base"], pair["head"]]))
        log(f"pair {i + 1}/{args.pairs} ({order[0]} first): {summary}")

    report = {"workload": args.workload, "base": args.base, "head": args.head,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "pairs_requested": args.pairs, "pairs": len(runs["base"]),
              "failed_pairs": failed_runs, "metrics": {}}
    if runs["base"]:
        metrics = compared_metrics(benchmark, args.trace, runs["base"] + runs["head"])
        report["metrics"] = summarize(metrics, runs["base"], runs["head"])
        for side in ("base", "head"):
            report[f"{side}_ops_failed"] = sum(r["failed"] for r in runs[side])
            report[f"{side}_ops_attempted"] = sum(r["attempted"] for r in runs[side])
    out = Path(f"BENCH_ab_{args.workload}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, c in report["metrics"].items():
        print(f"{name}: base {c['base']['median']:.4g} head {c['head']['median']:.4g} "
              f"ratio {c['ratio']:.3f} wins {c['wins']}/{c['pairs']} "
              f"p {c['sign_test_p']:.3g} iqr_rel {c['base']['iqr_rel']:.3f}/"
              f"{c['head']['iqr_rel']:.3f} (bound {c['bound']}) -> {c['verdict']}")
    log(f"wrote {out}")
    return 0 if failed_runs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
