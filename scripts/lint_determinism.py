#!/usr/bin/env python3
"""Determinism lint (stdlib only) for the HAN simulator sources.

The simulator's contract is bit-identical repeat runs (docs/VERIFICATION.md,
"Determinism lint"): schedules, autotune decisions and reports must not
depend on hash-bucket order, pointer values, or wall-clock entropy. This
script flags the source patterns that historically break that contract:

  unordered-include   #include <unordered_map> / <unordered_set>
  unordered-decl      a declaration using std::unordered_{map,set}
                      (iteration order is hash/bucket dependent)
  pointer-key         std::map/std::set keyed on a pointer type
                      (iteration order depends on allocation addresses)
  nondet-call         std::rand/srand, std::random_device,
                      system_clock, time(nullptr)/time(0)

Unordered containers are fine when no code iterates them in an
order-sensitive way; each such benign use must be listed in ALLOWLIST
below (file, category, token that must appear on the line). Allowlist
entries that no longer match anything are themselves errors, so the list
cannot rot — with an explicit diagnostic distinguishing an entry whose
file was deleted outright from one whose file survives but no longer
contains the flagged line.

Exit status 0 when every finding is allowlisted and every allowlist entry
is live; 1 otherwise. Run from the repo root: scripts/lint_determinism.py
"""

import os
import re
import sys

SCAN_DIRS = ["src", "tools", "tests", "bench", "examples"]
EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

RULES = [
    ("unordered-include",
     re.compile(r"#\s*include\s*<unordered_(?:map|set)>")),
    ("unordered-decl",
     re.compile(r"\bstd::unordered_(?:map|set)\s*<")),
    ("pointer-key",
     re.compile(r"\bstd::(?:map|set)\s*<[^,>]*\*")),
    ("nondet-call",
     re.compile(r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b"
                r"|\bsystem_clock\b|\btime\s*\(\s*(?:nullptr|0|NULL)\s*\)")),
]

# Benign uses: (file, category, token). The token must appear on the
# flagged line. Every entry here was audited — the container is only
# used for keyed lookup, never iterated where order reaches an output.
ALLOWLIST = [
    ("src/simmpi/comm.hpp", "unordered-include", "<unordered_map>"),
    ("src/simmpi/comm.hpp", "unordered-decl", "to_comm_rank_"),
    ("src/han/han.hpp", "unordered-include", "<unordered_map>"),
    ("src/han/han.hpp", "unordered-decl", "comms_"),
    ("src/coll/runtime.hpp", "unordered-include", "<unordered_map>"),
    ("src/coll/runtime.hpp", "unordered-decl", "call_seq_"),
    ("src/coll/runtime.hpp", "unordered-decl", "level_of_"),
    ("src/autotune/taskbench.hpp", "unordered-include", "<unordered_map>"),
    ("src/autotune/taskbench.hpp", "unordered-decl", "memo_"),
]


def iter_sources(root):
    for scan in SCAN_DIRS:
        top = os.path.join(root, scan)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []  # (file, lineno, category, line-text)
    for rel in sorted(iter_sources(root)):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                stripped = line.split("//", 1)[0]
                for category, pattern in RULES:
                    if pattern.search(stripped):
                        findings.append((rel, lineno, category, line.strip()))

    used = [False] * len(ALLOWLIST)
    failures = []
    for rel, lineno, category, text in findings:
        hit = None
        for i, (afile, acat, token) in enumerate(ALLOWLIST):
            if rel == afile and category == acat and token in text:
                hit = i
                break
        if hit is None:
            failures.append(f"{rel}:{lineno}: [{category}] {text}")
        else:
            used[hit] = True

    scanned = set(rel for rel, _, _, _ in findings)
    for i, (afile, acat, token) in enumerate(ALLOWLIST):
        if used[i]:
            continue
        if not os.path.isfile(os.path.join(root, afile)):
            failures.append(f"stale allowlist entry: ({afile}, {acat}, "
                            f"'{token}') points at a deleted file — "
                            f"remove it")
        elif afile in scanned:
            failures.append(f"stale allowlist entry: ({afile}, {acat}, "
                            f"'{token}') no longer matches any flagged "
                            f"line in that file — remove it")
        else:
            failures.append(f"stale allowlist entry: ({afile}, {acat}, "
                            f"'{token}') matches nothing — remove it")

    for line in failures:
        print(line, file=sys.stderr)
    allowed = sum(1 for u in used if u)
    print(f"lint_determinism: {len(findings)} findings, "
          f"{allowed} allowlisted, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
