#!/usr/bin/env python3
"""FLINT-specific lint: project rules clang-tidy cannot express.

Rules (suppress a finding with `// flint-lint: allow(<rule>): <why>` on the
offending line or the line above; file-level rules accept the comment anywhere
in the file):

  pragma-once     every header under src/ starts its include guard with
                  `#pragma once`.
  rng             no std::rand/srand/random_device or raw std::mt19937 outside
                  util/rng — all randomness flows through the seeded,
                  forkable util::Rng so simulations stay reproducible.
  throw           library code throws only flint::util::CheckError (via the
                  FLINT_CHECK macros or explicitly); bare rethrow `throw;` is
                  allowed. Other exception types bypass the runner's contract
                  reporting.
  byte-punning    reinterpret_cast is allowed only next to a
                  static_assert(std::is_trivially_copyable_v<...>) (the
                  util/bytes.h pattern); everything else routes through
                  std::memcpy helpers.
  config-checks   a .cpp under src/ that consumes a *Config struct must
                  FLINT_CHECK at least one config-derived quantity (module
                  entry points validate their inputs; bench/example drivers
                  rely on the library's checks).
  obs-spans       trace spans are opened/closed only through the RAII
                  FLINT_TRACE_SPAN macro; direct begin_span/end_span calls are
                  allowed only inside obs/ itself. A manual begin without a
                  guaranteed end corrupts the span pairing on early return.
  bench-artifact  every bench_*.cpp declares a bench::BenchArtifact (or a
                  custom main that calls core::write_run_artifact) so each
                  bench binary emits a BENCH_<name>.json the regression
                  pipeline (tools/flint_compare.py + CI smoke-bench) can diff.
  raw-thread      no raw std::thread/std::jthread outside util/thread_pool —
                  parallelism flows through util::ThreadPool so the runners'
                  deterministic-reduction contract (fixed-order future joins)
                  and the pool's instrumentation are never bypassed.
  rpc             raw socket plumbing (::socket/::connect/::send/::recv and
                  the <sys/socket.h> header family) is confined to
                  src/flint/rpc/ — every other layer speaks rpc::Transport
                  frames, so wire handling (CRC validation, length limits,
                  EOF semantics) lives in exactly one audited place.
  rpc-spans       code under src/flint/rpc/ opens spans only through the
                  propagation-aware obs::RpcSpanGuard, never the anonymous
                  FLINT_TRACE_SPAN macro or raw obs::SpanGuard — an rpc span
                  without trace/span ids breaks cross-process parentage in
                  merged traces (DESIGN.md §15).
  simd            raw SIMD intrinsics (<immintrin.h>/<arm_neon.h> includes,
                  _mm*/v*q_f32 calls) are confined to src/flint/ml/kernels/ —
                  everything else calls through the dispatched KernelTable so
                  the scalar/AVX2/NEON paths stay interchangeable and the
                  determinism contract (DESIGN.md §16) is auditable in one
                  place.

Usage: tools/flint_lint.py [paths...]   (default: src/ bench/)
Exit: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Shares the comment/string stripper with the determinism analyzer: rules
# must not fire on `throw` in a doc comment or a string literal, and a
# commented-out `// #pragma once` must not satisfy the header-guard rule.
from flint_analyze import strip_comments_and_strings

SUPPRESS_RE = re.compile(r"//\s*flint-lint:\s*allow\(([a-z-]+)\)")

# rng rule: forbidden outside util/rng.
RNG_FORBIDDEN = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "std::rand/srand is unseeded global state"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device breaks run reproducibility"),
    (re.compile(r"\bstd::mt19937(_64)?\b"),
     "raw engines bypass util::Rng seeding and derive_stream"),
]

THROW_RE = re.compile(r"\bthrow\b(?!\s*;)")
THROW_ALLOWED_RE = re.compile(r"\bthrow\s+(::)?(flint::)?(util::)?CheckError\b")
REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
TRIVIAL_ASSERT_RE = re.compile(r"static_assert\s*\(\s*std::is_trivially_copyable")
CONFIG_PARAM_RE = re.compile(r"\b(const\s+)?\w*Config\s*[&*]\s*\w+|\bconst\s+\w*Config\s+\w+\s*[,)]")
FLINT_CHECK_RE = re.compile(r"\bFLINT_D?CHECK")
SPAN_CALL_RE = re.compile(r"\b(begin_span|end_span)\s*\(")
# rpc-spans: anonymous span entry points forbidden inside src/flint/rpc/.
# `\bSpanGuard\b` cannot match inside RpcSpanGuard (no word boundary there).
ANON_SPAN_RE = re.compile(r"\bFLINT_TRACE_SPAN\s*\(|\bSpanGuard\b")
RAW_THREAD_RE = re.compile(r"\bstd::j?thread\b")
RAW_SOCKET_CALL_RE = re.compile(
    r"::\s*(socket|connect|bind|listen|accept|send|recv|sendto|recvfrom"
    r"|setsockopt|getsockname|getpeername|poll)\s*\(")
SOCKET_HEADER_RE = re.compile(
    r"#\s*include\s*<(sys/socket\.h|sys/un\.h|netinet/[\w/]+\.h|arpa/inet\.h)>")
# simd: intrinsic headers and calls confined to src/flint/ml/kernels/.
SIMD_HEADER_RE = re.compile(r"#\s*include\s*<(immintrin|x86intrin|emmintrin|arm_neon)\.h>")
SIMD_INTRINSIC_RE = re.compile(r"\b_mm\d*_\w+\s*\(|\bv\w+q_(f|s|u)(8|16|32|64)\s*\(")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def suppressed(rule: str, lines: list[str], idx: int) -> bool:
    """True if line idx (0-based) or the line above carries an allow() for rule."""
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = SUPPRESS_RE.search(lines[i])
            if m and m.group(1) == rule:
                return True
    return False


def file_suppressed(rule: str, text: str) -> bool:
    return any(m.group(1) == rule for m in SUPPRESS_RE.finditer(text))


def lint_file(path: Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    # Rules match against comment- and string-stripped lines (same indices);
    # suppression comments are read from the raw lines.
    code_text = strip_comments_and_strings(text)
    code_lines = code_text.splitlines()
    findings: list[Finding] = []
    in_util_rng = path.name.startswith("rng.") and path.parent.name == "util"
    in_thread_pool = path.name.startswith("thread_pool.") and path.parent.name == "util"
    in_obs = "obs" in path.parts
    in_rpc = "rpc" in path.parts
    in_kernels = "kernels" in path.parts
    is_header = path.suffix in (".h", ".hpp")

    # pragma-once — against stripped text, so a commented-out
    # `// #pragma once` does not satisfy the rule.
    if is_header and "#pragma once" not in code_text:
        if not file_suppressed("pragma-once", text):
            findings.append(Finding(path, 1, "pragma-once", "header missing '#pragma once'"))

    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        if not line.strip():
            continue

        # rng
        if not in_util_rng:
            for pattern, why in RNG_FORBIDDEN:
                if pattern.search(line) and not suppressed("rng", lines, idx):
                    findings.append(Finding(path, lineno, "rng", f"{why}; use util::Rng"))

        # throw
        if THROW_RE.search(line) and not THROW_ALLOWED_RE.search(line):
            # `throw;` rethrow already excluded by the regex lookahead.
            if not suppressed("throw", lines, idx):
                findings.append(
                    Finding(path, lineno, "throw",
                            "library code must throw flint::util::CheckError "
                            "(use FLINT_CHECK / FLINT_CHECK_MSG)"))

        # raw-thread
        if not in_thread_pool and RAW_THREAD_RE.search(line) \
                and not suppressed("raw-thread", lines, idx):
            findings.append(
                Finding(path, lineno, "raw-thread",
                        "raw std::thread bypasses util::ThreadPool (fixed-order "
                        "joins + instrumentation); submit work to a pool instead"))

        # rpc
        if not in_rpc and (RAW_SOCKET_CALL_RE.search(line) or SOCKET_HEADER_RE.search(line)) \
                and not suppressed("rpc", lines, idx):
            findings.append(
                Finding(path, lineno, "rpc",
                        "raw socket plumbing is confined to src/flint/rpc/; "
                        "speak rpc::Transport frames instead"))

        # simd
        if not in_kernels and (SIMD_HEADER_RE.search(line) or SIMD_INTRINSIC_RE.search(line)) \
                and not suppressed("simd", lines, idx):
            findings.append(
                Finding(path, lineno, "simd",
                        "raw SIMD intrinsics are confined to src/flint/ml/kernels/; "
                        "call through ml::kernels::active() so every hot loop keeps "
                        "a scalar twin and the dispatch contract holds"))

        # rpc-spans
        if in_rpc and ANON_SPAN_RE.search(line) and not suppressed("rpc-spans", lines, idx):
            findings.append(
                Finding(path, lineno, "rpc-spans",
                        "rpc code must open spans via obs::RpcSpanGuard (carries "
                        "trace/span ids across processes); FLINT_TRACE_SPAN / raw "
                        "SpanGuard spans cannot be parented in merged traces"))

        # obs-spans
        if not in_obs and SPAN_CALL_RE.search(line) and not suppressed("obs-spans", lines, idx):
            findings.append(
                Finding(path, lineno, "obs-spans",
                        "open/close trace spans only via FLINT_TRACE_SPAN "
                        "(RAII); manual begin_span/end_span is reserved for "
                        "obs/ internals"))

        # byte-punning
        if REINTERPRET_RE.search(line) and not suppressed("byte-punning", lines, idx):
            window = code_lines[max(0, idx - 15):idx + 3]
            if not any(TRIVIAL_ASSERT_RE.search(w) for w in window):
                findings.append(
                    Finding(path, lineno, "byte-punning",
                            "reinterpret_cast without a nearby static_assert"
                            "(std::is_trivially_copyable_v<...>); route through "
                            "util/bytes.h memcpy helpers"))

    # config-checks (library .cpp only; headers hold declarations, and bench/
    # example drivers configure the library rather than validating for it)
    if path.suffix == ".cpp" and "src" in path.parts:
        has_config_param = any(CONFIG_PARAM_RE.search(l) for l in code_lines)
        uses_check = any(FLINT_CHECK_RE.search(l) for l in code_lines)
        if has_config_param and not uses_check and not file_suppressed("config-checks", text):
            findings.append(
                Finding(path, 1, "config-checks",
                        "consumes a *Config but never FLINT_CHECKs a "
                        "config-derived quantity"))

    # bench-artifact: every bench binary joins the regression pipeline.
    if path.name.startswith("bench_") and path.suffix == ".cpp":
        if "BenchArtifact" not in code_text and "write_run_artifact" not in code_text \
                and not file_suppressed("bench-artifact", text):
            findings.append(
                Finding(path, 1, "bench-artifact",
                        "bench binary never emits a run artifact; declare "
                        "bench::BenchArtifact(argc, argv, \"<name>\") in main "
                        "(see bench_helpers.h)"))

    return findings


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in (argv[1:] or ["src"])]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
        else:
            print(f"flint_lint: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))

    for finding in findings:
        print(finding)
    print(f"flint_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
