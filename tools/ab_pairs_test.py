#!/usr/bin/env python3
"""Unit tests for the statistics of tools/ab_pairs.py, on fixed numbers.

Exit: 0 all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import compare, compared_metrics, quantile, sign_test_p, summarize  # noqa: E402

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# Quantiles interpolate linearly between order statistics, unsorted input.
expect(close(quantile([3.0, 1.0, 2.0], 0.5), 2.0), "median of three")
expect(close(quantile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5), "median of four")
expect(close(quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0), "q1 of five")
expect(close(quantile([1.0, 2.0, 3.0, 4.0], 0.75), 3.25), "q3 of four")
expect(close(quantile([7.0], 0.25), 7.0), "quantile of one")

# Exact two-sided sign test: 9-1 gives 2 * 11/1024; 10-0 gives 2/1024;
# a 5-5 split (or no untied pair) gives 1.
expect(close(sign_test_p(9, 1), 22 / 1024), "p for 9 of 10")
expect(close(sign_test_p(1, 9), 22 / 1024), "p is symmetric")
expect(close(sign_test_p(10, 0), 2 / 1024), "p for 10 of 10")
expect(close(sign_test_p(5, 5), 1.0), "p for an even split")
expect(close(sign_test_p(0, 0), 1.0), "p with every pair tied")

# A clear gain on a higher-is-better metric: the head wins all ten pairs by
# ~20%, both spreads sit well inside a 0.25 bound.
base = [2000.0, 2010.0, 1990.0, 2005.0, 1995.0, 2002.0, 1998.0, 2008.0, 1992.0, 2000.0]
head = [v * 1.2 for v in base]
c = compare(base, head, "higher", 0.25)
expect(c["wins"] == 10 and c["losses"] == 0 and c["ties"] == 0, "ten wins")
expect(c["wins_needed"] == 9, "nine of ten needed")
expect(close(c["ratio"], 1.2), "ratio of medians")
expect(close(c["base"]["median"], 2000.0), "base median")
expect(close(c["base"]["iqr"], 2004.25 - 1995.75), "base IQR")
expect(c["verdict"] == "better", f"clear gain is 'better', got {c['verdict']}")

# The same numbers on a lower-is-better metric read as a loss.
c = compare(base, head, "lower", 0.25)
expect(c["wins"] == 0 and c["losses"] == 10, "direction flips wins")
expect(c["verdict"] == "worse", f"clear loss is 'worse', got {c['verdict']}")

# Ties count for neither side: 8 wins, 2 ties is short of 9 in 10.
tied = list(base)
tied_head = [v + 50.0 for v in base[:8]] + base[8:]
c = compare(tied, tied_head, "higher", 0.25)
expect(c["wins"] == 8 and c["ties"] == 2, "ties counted apart")
expect(c["verdict"] == "unchanged", f"8 wins + 2 ties is 'unchanged', got {c['verdict']}")

# A spread wider than the bound makes the result unresolved, even with ten wins.
wide = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0]
c = compare(wide, [v + 10.0 for v in wide], "higher", 0.25)
expect(c["base"]["iqr_rel"] > 0.25, "wide base spread")
expect(c["verdict"] == "unresolved", f"wide spread is 'unresolved', got {c['verdict']}")

# Ten wins by less than the base IQR prove nothing.
c = compare(base, [v + 1.0 for v in base], "higher", 0.25)
expect(c["wins"] == 10, "ten small wins")
expect(c["verdict"] == "unchanged", f"gain inside the IQR is 'unchanged', got {c['verdict']}")

# Mixed pairs with the head's median 30% worse than a 0.25 bound allows.
mixed_head = [v * 0.7 for v in base]
mixed_head[0] = base[0] * 1.01
mixed_head[1] = base[1] * 1.01
c = compare(base, mixed_head, "higher", 0.25)
expect(c["verdict"] == "regressed", f"30% below is 'regressed', got {c['verdict']}")

for bad in (([], []), ([1.0], [1.0, 2.0])):
    try:
        compare(bad[0], bad[1], "higher", 0.25)
        failures.append(f"compare{bad} should raise")
    except ValueError:
        pass

# A traced run reports per-layer metrics only (no updates_per_s). They are
# compared instead, each one that every run reported, without a bound: a
# wide spread is not 'unresolved', and a large loss is 'worse', not
# 'regressed'.
benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def traced(run_s: float, events: float, extra: bool) -> dict:
    m = {"fl.run_s": {"value": run_s, "unit": "s"}, "sim.events": {"value": events,
                                                                   "unit": "count"}}
    if extra:
        m["rpc.leases"] = {"value": 5.0, "unit": "count"}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": m}


traced_base = [traced(1.0 + 0.5 * (i % 2), 100.0, True) for i in range(10)]
traced_head = [traced(3.0 + 0.5 * (i % 2), 100.0, i != 3) for i in range(10)]
names = [m["name"] for m in compared_metrics(benchmark, 1, traced_base + traced_head)]
expect(names == ["sim.events", "fl.run_s"],
       f"traced mode compares the per-layer metrics all runs report, got {names}")
expect([m["name"] for m in compared_metrics(benchmark, 0, [])] ==
       [m["name"] for m in benchmark["end_to_end"]], "plain mode compares end-to-end metrics")
report = summarize(compared_metrics(benchmark, 1, traced_base + traced_head),
                   traced_base, traced_head)
expect(report["fl.run_s"]["verdict"] == "worse",
       f"3x slower per-layer time is 'worse', got {report['fl.run_s']['verdict']}")
expect(report["fl.run_s"]["bound"] is None, "per-layer metrics carry no bound")
expect(report["sim.events"]["verdict"] == "unchanged", "equal counts are 'unchanged'")
c = compare(wide, [v + 10.0 for v in wide], "higher", None)
expect(c["verdict"] != "unresolved", "an unbounded metric is never 'unresolved'")

if failures:
    for f in failures:
        print(f"ab_pairs_test: FAIL {f}")
    sys.exit(1)
print("ab_pairs_test: OK")
