#!/usr/bin/env python3
"""FLINT reachability gate: the linker decides which flint:: code is alive.

Every flint:: function in src/ must be reached by some shipping binary: the
benches, the examples, flint_executor, crash_resume_driver and perfbench's
perfbench_driver. Tests do not count: a function only a test calls is not
part of the reproduction. The tool proves reachability with the linker
instead of grep:

  1. configure <build-dir>/main from the repository and <build-dir>/perfbench
     from perfbench/, Release, with -ffunction-sections -fdata-sections
     -fno-inline, every executable linked with -Wl,--gc-sections;
  2. build every executable whose sources do not all live under tests/, plus
     perfbench_driver;
  3. list the flint:: text symbols defined in the libflint_*.a archives and
     those left in the binaries (nm -C --defined-only), and report every
     library function that no binary keeps.

Symbols are compared by demangled signature. GCC's clones
(`[clone .constprop.0]`, `.isra.N`, `.part.N`, `.cold`) count for their base
function, so a call that only ever reaches a constant-propagated copy keeps
the original alive. Constructor and destructor variants (C1/C2, D0/D1/D2)
demangle to one signature and fold into one function. Anonymous-namespace
helpers are findings like any other; two local helpers with the same
signature in different files are indistinguishable in a binary, so one kept
copy keeps both.

Allowlist: tools/reach_allow.txt, one `<demangled name> # reason` per line.
The name is either a full signature or a signature without its parameter
list (covering every overload). An entry without a reason, or one that
matches no finding, fails the run: the list only ever holds live exceptions.

Usage:
  tools/flint_reach.py <build-dir>
  tools/flint_reach.py --self-test      (canned listings in tools/reach_corpus/)

Exit: 0 clean, 1 findings / stale or bad allowlist / self-test failure,
      2 usage or build error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REACH_FLAGS = "-ffunction-sections -fdata-sections -fno-inline"
LINK_FLAGS = "-Wl,--gc-sections"

NM_LINE_RE = re.compile(r"^[0-9a-fA-F]*\s+([TtWw])\s+(.+)$")
MEMBER_RE = re.compile(r"^(\S+\.o):$")
CLONE_RE = re.compile(r" \[clone [^\]]*\]")
THUNK_RE = re.compile(r"^(?:non-virtual thunk to |virtual thunk to )")
ANON = "(anonymous namespace)"
ANON_TOKEN = "\x00anon\x00"
OPERATOR_CHARS = set("+-*/%^&|~!=<>,[]()")


# --------------------------------------------------------------------------
# Demangled-signature handling.
# --------------------------------------------------------------------------

def fold(sig: str) -> str:
    """A demangled symbol reduced to the function it belongs to."""
    sig = THUNK_RE.sub("", sig.strip())
    return CLONE_RE.sub("", sig)


def split_signature(sig: str) -> tuple[str, str]:
    """(qualified name, rest) for a folded signature.

    The qualified name runs up to the parameter list: the first '(' at
    bracket depth 0 that does not belong to an operator name. A leading
    return type (template specialisations print one) stays in the name;
    see qualified_name().
    """
    s = sig.replace(ANON, ANON_TOKEN)
    depth = 0
    i = 0
    while i < len(s):
        c = s[i]
        if s.startswith("operator", i) and (i == 0 or not (s[i - 1].isalnum() or s[i - 1] == "_")):
            j = i + len("operator")
            if s.startswith("()", j):
                j += 2
            else:
                while j < len(s) and s[j] in OPERATOR_CHARS and s[j] != "(":
                    j += 1
            i = j
            continue
        if c in "<{[":
            depth += 1
        elif c in ">}]":
            depth -= 1
        elif c == "(":
            if depth == 0:
                return s[:i].replace(ANON_TOKEN, ANON), s[i:].replace(ANON_TOKEN, ANON)
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    return sig, ""


def qualified_name(sig: str) -> str:
    """The name part of a signature, without any leading return type."""
    name, _ = split_signature(sig)
    s = name.replace(ANON, ANON_TOKEN)
    depth = 0
    last_space = -1
    for i, c in enumerate(s):
        if c in "<({[":
            depth += 1
        elif c in ">)}]":
            depth -= 1
        elif c == " " and depth == 0:
            last_space = i
    return s[last_space + 1:].replace(ANON_TOKEN, ANON)


def is_flint(sig: str) -> bool:
    return qualified_name(sig).startswith("flint::")


# --------------------------------------------------------------------------
# nm listings.
# --------------------------------------------------------------------------

def parse_archive_listing(text: str, archive: str) -> dict[str, str]:
    """signature -> defining member ("<archive>:<member>") for flint:: text."""
    defined: dict[str, str] = {}
    member = "?"
    for line in text.splitlines():
        m = MEMBER_RE.match(line.strip())
        if m:
            member = m.group(1)
            continue
        m = NM_LINE_RE.match(line)
        if not m:
            continue
        sig = fold(m.group(2))
        if is_flint(sig):
            defined.setdefault(sig, f"{archive}:{member}")
    return defined


def parse_binary_listing(text: str) -> set[str]:
    kept: set[str] = set()
    for line in text.splitlines():
        m = NM_LINE_RE.match(line)
        if m:
            kept.add(fold(m.group(2)))
    return kept


@dataclass
class Allowlist:
    entries: dict[str, str] = field(default_factory=dict)  # name -> reason
    unreasoned: list[str] = field(default_factory=list)  # entries without a reason


def parse_allowlist(text: str) -> Allowlist:
    allow = Allowlist()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if sep and reason.strip():
            allow.entries[name.strip()] = reason.strip()
        else:
            allow.unreasoned.append(line)
    return allow


@dataclass
class Report:
    defined: int
    findings: dict[str, str]  # signature -> defining member, not allowlisted
    allowed: dict[str, str]  # signature -> allowlist entry it matched
    stale: list[str]  # allowlist entries that matched nothing

    def failed(self, allow: Allowlist) -> bool:
        return bool(self.findings or self.stale or allow.unreasoned)


def analyze(archives: dict[str, str], binaries: list[str], allow: Allowlist) -> Report:
    """Diff the archives' flint:: functions against what the binaries keep."""
    defined: dict[str, str] = {}
    for archive, text in sorted(archives.items()):
        for sig, where in parse_archive_listing(text, archive).items():
            defined.setdefault(sig, where)
    kept: set[str] = set()
    for text in binaries:
        kept |= parse_binary_listing(text)

    findings: dict[str, str] = {}
    allowed: dict[str, str] = {}
    for sig, where in defined.items():
        if sig in kept:
            continue
        if sig in allow.entries:
            allowed[sig] = sig
        elif split_signature(sig)[0] in allow.entries:
            allowed[sig] = split_signature(sig)[0]
        else:
            findings[sig] = where
    used = set(allowed.values())
    stale = [name for name in allow.entries if name not in used]
    return Report(len(defined), findings, allowed, stale)


def source_of(where: str) -> str:
    """src/ path of the object a finding was defined in ("<archive>:<member>")."""
    archive, _, member = where.partition(":")
    subsystem = re.sub(r"^lib(flint_)?|\.a$", "", Path(archive).name)
    base = member[:-2] if member.endswith(".o") else member
    hits = sorted((REPO / "src" / "flint" / subsystem).rglob(base))
    return str(hits[0].relative_to(REPO)) if hits else f"{archive}({member})"


def print_report(report: Report, allow: Allowlist) -> int:
    by_file: dict[str, list[str]] = {}
    for sig, where in report.findings.items():
        by_file.setdefault(source_of(where), []).append(sig)
    for path in sorted(by_file):
        print(path)
        for sig in sorted(by_file[path]):
            print(f"  {sig}")
    for line in allow.unreasoned:
        print(f"allowlist entry without a reason: {line}")
    for name in report.stale:
        print(f"stale allowlist entry (matches no unreached function): {name}")
    print(f"flint_reach: {report.defined} flint:: functions defined, "
          f"{len(report.findings)} reached by no shipping binary, "
          f"{len(report.allowed)} allowlisted, {len(report.stale)} stale "
          f"allowlist entr{'y' if len(report.stale) == 1 else 'ies'}")
    return 1 if report.failed(allow) else 0


# --------------------------------------------------------------------------
# Building the reach tree.
# --------------------------------------------------------------------------

def run(cmd: list[str]) -> None:
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def configure(src: Path, build: Path) -> None:
    query = build / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    run(["cmake", "-S", str(src), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_CXX_FLAGS={REACH_FLAGS}", f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"])


def codemodel_targets(build: Path) -> list[dict]:
    """Target descriptions from the CMake file API reply."""
    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    codemodel = json.loads((reply / index["reply"]["codemodel-v2"]["jsonFile"]).read_text())
    config = codemodel["configurations"][0]
    return [json.loads((reply / t["jsonFile"]).read_text()) for t in config["targets"]]


def artifact(build: Path, target: dict) -> Path:
    return build / target["artifacts"][0]["path"]


def is_shipping(target: dict, src: Path) -> bool:
    if target["type"] != "EXECUTABLE":
        return False
    paths = [Path(s["path"]) for s in target.get("sources", [])
             if not s.get("isGenerated")]
    paths = [p if p.is_absolute() else src / p for p in paths]
    tests = (src / "tests").resolve()
    return not all(tests in p.resolve().parents for p in paths)


def nm(path: Path) -> str:
    return subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                          capture_output=True, text=True).stdout


def scan(build_dir: Path) -> tuple[dict[str, str], list[str], list[str]]:
    main, perf = build_dir / "main", build_dir / "perfbench"
    configure(REPO, main)
    targets = codemodel_targets(main)
    shipping = sorted((t for t in targets if is_shipping(t, REPO)), key=lambda t: t["name"])
    libs = [t for t in targets
            if t["type"] == "STATIC_LIBRARY" and t["name"].startswith("flint_")]
    jobs = f"-j{os.cpu_count() or 1}"
    run(["cmake", "--build", str(main), jobs, "--target"]
        + [t["name"] for t in shipping])
    configure(REPO / "perfbench", perf)
    run(["cmake", "--build", str(perf), jobs, "--target", "perfbench_driver"])

    archives = {artifact(main, t).name: nm(artifact(main, t)) for t in libs}
    binaries = [artifact(main, t) for t in shipping]
    binaries += [artifact(perf, t) for t in codemodel_targets(perf)
                 if t["name"] == "perfbench_driver"]
    names = [b.name for b in binaries]
    return archives, [nm(b) for b in binaries], names


# --------------------------------------------------------------------------
# Self-test corpus.
# --------------------------------------------------------------------------

def run_self_test(corpus: Path) -> int:
    """Each case dir holds lib*.nm, bin*.nm, allow.txt and expect.txt.

    expect.txt lists the findings (one signature a line), the stale
    allowlist entries (`stale: <name>`), the entries without a reason
    (`error: <line>`) and the exit status (`exit: N`) the case must produce,
    nothing more.
    """
    cases = sorted(d for d in corpus.iterdir() if d.is_dir())
    if not cases:
        print(f"flint_reach: empty corpus at {corpus}", file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        archives = {f.stem + ".a": f.read_text() for f in sorted(case.glob("lib*.nm"))}
        binaries = [f.read_text() for f in sorted(case.glob("bin*.nm"))]
        allow_file = case / "allow.txt"
        allow = parse_allowlist(allow_file.read_text() if allow_file.is_file() else "")
        report = analyze(archives, binaries, allow)
        got = sorted(list(report.findings) + [f"stale: {s}" for s in report.stale]
                     + [f"error: {line}" for line in allow.unreasoned]
                     + [f"exit: {1 if report.failed(allow) else 0}"])
        want = sorted(l.strip() for l in (case / "expect.txt").read_text().splitlines()
                      if l.strip() and not l.startswith("#"))
        if got == want:
            print(f"self-test ok   {case.name}: {len(got)} expected line(s)")
        else:
            print(f"SELF-TEST FAIL {case.name}:\n  want {want}\n  got  {got}")
            failures += 1
    print(f"flint_reach self-test: {len(cases)} cases, {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", nargs="?", help="scratch build tree to configure")
    ap.add_argument("--self-test", action="store_true",
                    help="run over tools/reach_corpus/ and verify expectations")
    opts = ap.parse_args(argv[1:])

    if opts.self_test:
        return run_self_test(Path(__file__).resolve().parent / "reach_corpus")
    if not opts.build_dir:
        ap.print_usage(sys.stderr)
        return 2
    allow = parse_allowlist((REPO / "tools" / "reach_allow.txt").read_text())
    try:
        archives, binaries, names = scan(Path(opts.build_dir).resolve())
    except (subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        print(f"flint_reach: build failed: {e}", file=sys.stderr)
        return 2
    print(f"flint_reach: {len(names)} shipping binaries: {' '.join(names)}")
    return print_report(analyze(archives, binaries, allow), allow)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
