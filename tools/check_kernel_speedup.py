#!/usr/bin/env python3
"""Gate the SIMD kernel win and the fixed floors of a BENCH_micro_kernels
artifact: every `scalars.kernels.*.speedup_vs_scalar` leaf must meet the
kernel floor (default 2.0x), and the ratio leaves measured against a
reference in the same binary must meet fixed floors — util::Rng against
std::mt19937_64, `rng.derive_speedup_vs_std` >= 3 (a derived stream plus 4
draws) and `rng.draw_ratio_vs_std` >= 0.9 (per-draw cost of a long stream),
and util::crc32 against a bytewise table loop on a lease frame,
`crc32.speedup_vs_bytewise` >= 3.

Usage:
  tools/check_kernel_speedup.py BENCH_micro_kernels.json [--min 2.0]
                                [--gate all|kernels|fixed]

The artifact's `kernels.simd_active` scalar records whether the sweep ran a
SIMD path; on a `--kernels=scalar` run every kernel speedup is ~1.0 by
construction, so the kernel floor passes with a note instead of failing. The
fixed floors have nothing to do with SIMD. They are set for a plain Release
build: -march=native speeds up std::mt19937_64 seeding enough to push
`rng.derive_speedup_vs_std` under 3, so CI gates `--gate kernels` on the
-march=native artifact and `--gate fixed` on a plain Release one.
Absolute GB/s / GFLOP/s / ns leaves are machine-dependent and deliberately
not checked here — CI diffs them against bench/baselines/ with a loose prefix
threshold via flint_compare, while this script owns the hard floors.

Exit: 0 every floor met (kernel floor skipped on a scalar-pinned run),
      1 a leaf below its floor (or the kernel / fixed-floor leaves missing),
      2 IO/usage problem.
"""

import argparse
import json
import sys

SUFFIX = ".speedup_vs_scalar"
# Fixed floors for leaves that are ratios against a reference in the same
# binary (std::mt19937_64, a bytewise CRC-32), so they transfer across machines.
FIXED_FLOORS = {"rng.derive_speedup_vs_std": 3.0, "rng.draw_ratio_vs_std": 0.9,
                "crc32.speedup_vs_bytewise": 3.0}


def check_fixed(scalars: dict) -> list[str]:
    failures = []
    for name, floor in FIXED_FLOORS.items():
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
    ap.add_argument("--gate", choices=("all", "kernels", "fixed"), default="all",
                    help="which floors to check (default: %(default)s)")
    args = ap.parse_args()

    try:
        with open(args.artifact, encoding="utf-8") as f:
            scalars = json.load(f).get("scalars", {})
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_kernel_speedup: cannot read {args.artifact}: {e}",
              file=sys.stderr)
        return 2

    failures = check_fixed(scalars) if args.gate != "kernels" else []
    if failures:
        print(f"check_kernel_speedup: below a fixed floor: {', '.join(failures)}",
              file=sys.stderr)
    if args.gate == "fixed":
        return 1 if failures else 0

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
