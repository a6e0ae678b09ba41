#!/usr/bin/env python3
"""Gate the SIMD kernel win and the RNG floors of a BENCH_micro_kernels
artifact: every `scalars.kernels.*.speedup_vs_scalar` leaf must meet the
kernel floor (default 2.0x), and the util::Rng leaves must meet fixed floors
against std::mt19937_64 — `rng.derive_speedup_vs_std` >= 3 (a derived stream
plus 4 draws) and `rng.draw_ratio_vs_std` >= 0.9 (per-draw cost of a long
stream).

Usage:
  tools/check_kernel_speedup.py BENCH_micro_kernels.json [--min 2.0]

The artifact's `kernels.simd_active` scalar records whether the sweep ran a
SIMD path; on a `--kernels=scalar` run every kernel speedup is ~1.0 by
construction, so the kernel floor passes with a note instead of failing. The
RNG floors have nothing to do with SIMD and are checked on every run.
Absolute GB/s / GFLOP/s / ns leaves are machine-dependent and deliberately
not checked here — CI diffs them against bench/baselines/ with a loose prefix
threshold via flint_compare, while this script owns the hard floors.

Exit: 0 every floor met (kernel floor skipped on a scalar-pinned run),
      1 a leaf below its floor (or the kernel / RNG leaves missing),
      2 IO/usage problem.
"""

import argparse
import json
import sys

SUFFIX = ".speedup_vs_scalar"
# Fixed floors for the util::Rng leaves (ratios against std::mt19937_64 in
# the same binary, so they transfer across machines).
RNG_FLOORS = {"rng.derive_speedup_vs_std": 3.0, "rng.draw_ratio_vs_std": 0.9}


def check_rng(scalars: dict) -> list[str]:
    failures = []
    for name, floor in RNG_FLOORS.items():
        if name not in scalars:
            print(f"  {name:<26} missing  BELOW {floor}x")
            failures.append(name)
            continue
        ok = scalars[name] >= floor
        print(f"  {name:<26} {scalars[name]:6.2f}x  {'ok' if ok else f'BELOW {floor}x'}")
        if not ok:
            failures.append(name)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="BENCH_micro_kernels.json path")
    ap.add_argument("--min", type=float, default=2.0,
                    help="minimum required speedup (default: %(default)s)")
    args = ap.parse_args()

    try:
        with open(args.artifact, encoding="utf-8") as f:
            scalars = json.load(f).get("scalars", {})
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_kernel_speedup: cannot read {args.artifact}: {e}",
              file=sys.stderr)
        return 2

    failures = check_rng(scalars)
    if failures:
        print(f"check_kernel_speedup: util::Rng below its floor: {', '.join(failures)}",
              file=sys.stderr)

    if scalars.get("kernels.simd_active", 1.0) == 0.0:
        print("check_kernel_speedup: scalar-pinned run (kernels.simd_active=0), "
              "kernel speedup gate skipped")
        return 1 if failures else 0

    speedups = {k[len("kernels."):-len(SUFFIX)]: v for k, v in scalars.items()
                if k.startswith("kernels.") and k.endswith(SUFFIX)}
    if not speedups:
        print("check_kernel_speedup: no kernels.*.speedup_vs_scalar scalars "
              f"in {args.artifact}", file=sys.stderr)
        return 1

    slow = []
    for name in sorted(speedups):
        ok = speedups[name] >= args.min
        print(f"  {name:<22} {speedups[name]:6.2f}x  "
              f"{'ok' if ok else f'BELOW {args.min}x'}")
        if not ok:
            slow.append(name)

    if slow:
        print(f"check_kernel_speedup: {len(slow)}/{len(speedups)} kernels "
              f"below the {args.min}x floor: {', '.join(slow)}",
              file=sys.stderr)
        return 1
    print(f"check_kernel_speedup: {len(speedups)} kernels at >= {args.min}x")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
