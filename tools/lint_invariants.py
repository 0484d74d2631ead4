#!/usr/bin/env python3
"""Project-invariant linter for the PANDA source tree (DESIGN.md §14).

Run by `ci.sh analyze` (and from ctest). Unlike the clang legs of
`analyze`, this needs only python3, so it runs everywhere the tests
run. Four rules, each enforcing a contract the code base relies on:

  throw     Only panda::Error (or a bare rethrow `throw;`) may be
            thrown from src/. Callers catch panda::Error at API
            boundaries; a foreign exception type would tunnel past
            those handlers. (PANDA_CHECK/PANDA_CHECK_MSG throw Error.)

  order     Every atomic operation that names a memory order weaker
            than seq_cst must carry a rationale: a comment containing
            `order:` on the same line or above it within the same
            contiguous non-blank block of lines. Orderings are the
            hardest code in the tree to review; the comment forces the
            author to state which release/acquire pair (or why no
            pairing) makes the choice sound. seq_cst needs no comment:
            it is the conservative default.

  iostream  No <iostream>/std::cout/std::cerr/std::clog in library
            code. iostreams drag in static constructors and interleave
            badly under threads; the library reports through
            panda::Error and returned stats structs, and only tools,
            benches and tests may print.

  alloc     No naked `new` / malloc / calloc / realloc in the
            hot-path files pinned by tests/test_alloc.cpp. That test
            asserts zero allocations per query once workspaces are
            warm, no per-node allocation in a build's split selection,
            and no per-id allocation when a live index is seeded; an
            allocation introduced in these files would fail it at
            runtime — this rule fails it at lint time, with a message
            that points at the contract.

Waivers: append `// panda-lint: allow(<rule>)` to the offending line
or the line directly above it. Waivers are for cases where the rule is
wrong by contract (e.g. an allocator must throw std::bad_alloc), not
an escape hatch — each one should carry a justifying comment.

Usage:
  lint_invariants.py [--root DIR] [files...]   lint files (default: src/ under --root)
  lint_invariants.py --self-test               run the embedded good/bad samples

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

import argparse
import os
import re
import sys

# Memory orders weaker than seq_cst. seq_cst is exempt by design.
WEAK_ORDER_RE = re.compile(
    r"\bstd::memory_order_(?:relaxed|consume|acquire|release|acq_rel)\b"
)
ORDER_COMMENT_RE = re.compile(r"order:")

THROW_RE = re.compile(r"\bthrow\b")
# A throw is fine when it rethrows (`throw;`) or constructs the
# project error type (optionally namespace-qualified).
THROW_OK_RE = re.compile(r"\bthrow\s*(?:;|(?:::)?(?:panda\s*::\s*)?Error\s*[({])")

IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>|std::(?:cout|cerr|clog)\b")

# `new` as an expression (including placement new), or the C heap API.
ALLOC_RE = re.compile(r"(?:^|[^:\w])new\b|\b(?:malloc|calloc|realloc)\s*\(")

WAIVER_RE = re.compile(r"panda-lint:\s*allow\(([a-z, ]+)\)")

# Files pinned by tests/test_alloc.cpp: the per-query path must not
# allocate once workspaces are warm, build split selection must not
# allocate per node, seeding the live index's id set must not allocate
# per id, and the distributed KNN engines' stage-3 pruning must not
# allocate per query. Paths relative to src/.
HOT_PATH_FILES = (
    "common/sampling.hpp",
    "core/batch_order.cpp",
    "core/batch_order.hpp",
    "core/id_set.hpp",
    "core/kdtree_build.cpp",
    "core/kdtree_query.cpp",
    "core/knn_heap.hpp",
    "core/knn_heap.cpp",
    "core/median.cpp",
    "core/mutable_index.cpp",
    "core/neighbor_table.hpp",
    "core/query_workspace.hpp",
    "dist/all_knn.cpp",
    "dist/global_tree.cpp",
    "parallel/parallel_for.hpp",
)
HOT_PATH_DIRS = ("simd/",)


def strip_comments_and_strings(text):
    """Returns the file's lines with comments and string/char literal
    contents blanked (replaced by spaces), preserving line structure so
    reported line numbers match the original file."""
    out = []
    line = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                line.append("  ")
                i += 2
            elif ch == "/" and nxt == "*":
                state = "block_comment"
                line.append("  ")
                i += 2
            elif ch == '"':
                state = "string"
                line.append('"')
                i += 1
            elif ch == "'":
                state = "char"
                line.append("'")
                i += 1
            else:
                line.append(ch)
                i += 1
        elif state in ("line_comment", "block_comment"):
            if state == "block_comment" and ch == "*" and nxt == "/":
                state = "code"
                line.append("  ")
                i += 2
            else:
                line.append(" ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                line.append("  ")
                i += 2
            elif ch == quote:
                state = "code"
                line.append(quote)
                i += 1
            else:
                line.append(" ")
                i += 1
    if line:
        out.append("".join(line))
    return out


def waived(raw_lines, idx, rule):
    """True when line idx (0-based) carries a waiver for `rule`, either
    inline or on the directly preceding line."""
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = WAIVER_RE.search(raw_lines[j])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def block_bounds(raw_lines, idx):
    """The contiguous non-blank block (0-based [lo, hi] inclusive)
    containing line idx. Blank lines delimit blocks."""
    lo = idx
    while lo > 0 and raw_lines[lo - 1].strip():
        lo -= 1
    hi = idx
    while hi + 1 < len(raw_lines) and raw_lines[hi + 1].strip():
        hi += 1
    return lo, hi


def is_hot_path(rel):
    rel = rel.replace(os.sep, "/")
    return rel in HOT_PATH_FILES or any(rel.startswith(d) for d in HOT_PATH_DIRS)


def lint_text(text, display_path, rel_in_src):
    """Lints one file's contents; returns a list of finding strings."""
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text)
    # Pad so both views always index safely.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    findings = []

    def report(idx, rule, message):
        findings.append(
            "%s:%d: [%s] %s" % (display_path, idx + 1, rule, message)
        )

    for idx, code in enumerate(code_lines):
        # --- throw ------------------------------------------------------
        for m in THROW_RE.finditer(code):
            if THROW_OK_RE.match(code, m.start()):
                continue
            if waived(raw_lines, idx, "throw"):
                continue
            report(
                idx,
                "throw",
                "only panda::Error may be thrown from library code "
                "(or waive with `// panda-lint: allow(throw)` and a "
                "justifying comment)",
            )

        # --- order ------------------------------------------------------
        for m in WEAK_ORDER_RE.finditer(code):
            lo, _hi = block_bounds(raw_lines, idx)
            covered = any(
                ORDER_COMMENT_RE.search(raw_lines[j]) for j in range(lo, idx + 1)
            )
            if covered or waived(raw_lines, idx, "order"):
                continue
            report(
                idx,
                "order",
                "%s needs an `// order:` rationale comment in the same "
                "contiguous block of lines" % m.group(0),
            )

        # --- iostream ---------------------------------------------------
        if IOSTREAM_RE.search(code) and not waived(raw_lines, idx, "iostream"):
            report(
                idx,
                "iostream",
                "iostream is banned in library code; report through "
                "panda::Error or stats structs",
            )

        # --- alloc (hot-path files only) --------------------------------
        if rel_in_src is not None and is_hot_path(rel_in_src):
            if ALLOC_RE.search(code) and not waived(raw_lines, idx, "alloc"):
                report(
                    idx,
                    "alloc",
                    "no naked allocation in hot-path files "
                    "(tests/test_alloc.cpp pins them to zero "
                    "allocations per warm query, none per build node "
                    "and none per seeded id)",
                )

    return findings


def lint_file(path, src_root):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return ["%s: [io] cannot read: %s" % (path, e)]
    rel = None
    try:
        rel_candidate = os.path.relpath(os.path.abspath(path), src_root)
        if not rel_candidate.startswith(".."):
            rel = rel_candidate
    except ValueError:
        pass
    return lint_text(text, path, rel)


def collect_sources(src_root):
    out = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


# --- self test -------------------------------------------------------------

GOOD_SAMPLE = """\
#include <atomic>
#include "common/error.hpp"
void good() {
  std::atomic<int> flag{0};
  // order: release — publishes init; pairs with the acquire below.
  flag.store(1, std::memory_order_release);
  int v = flag.load(std::memory_order_acquire);
  if (v != 1) throw Error("bad");
  try {
    throw panda::Error("also fine");
  } catch (...) {
    throw;
  }
  // The word new in a comment is fine, as is "new" in a string.
  const char* s = "malloc(new)";
  (void)s;
}
"""

BAD_SAMPLE = """\
#include <iostream>
#include <atomic>
void bad() {
  std::atomic<int> flag{0};
  flag.store(1, std::memory_order_release);

  // order: a comment in a *different* block does not cover the load.

  int v = flag.load(std::memory_order_relaxed);
  if (v != 1) throw std::runtime_error("wrong type");
  std::cout << v;
}
"""

BAD_HOT_PATH_SAMPLE = """\
void hot() {
  int* p = new int[4];
  delete[] p;
}
"""


def self_test():
    ok = True

    good = lint_text(GOOD_SAMPLE, "<good>", "core/kdtree_query.cpp")
    if good:
        ok = False
        print("self-test FAILED: good sample produced findings:")
        for f in good:
            print("  " + f)

    bad = lint_text(BAD_SAMPLE, "<bad>", None)
    want = {"iostream": 2, "order": 2, "throw": 1}
    got = {}
    for f in bad:
        rule = f.split("[", 1)[1].split("]", 1)[0]
        got[rule] = got.get(rule, 0) + 1
    if got != want:
        ok = False
        print("self-test FAILED: bad sample findings %r, want %r" % (got, want))
        for f in bad:
            print("  " + f)

    for rel in ("simd/distance.cpp", "core/id_set.hpp"):
        hot = lint_text(BAD_HOT_PATH_SAMPLE, "<hot>", rel)
        if not any("[alloc]" in f for f in hot):
            ok = False
            print("self-test FAILED: hot-path sample in %s did not trip "
                  "the alloc rule" % rel)

    # The same allocation outside the pinned set is allowed.
    cold = lint_text(BAD_HOT_PATH_SAMPLE, "<cold>", "net/cluster.cpp")
    if any("[alloc]" in f for f in cold):
        ok = False
        print("self-test FAILED: alloc rule fired outside the hot-path set")

    waiver = 'void w() { throw 42; }  // panda-lint: allow(throw)\n'
    if lint_text(waiver, "<waiver>", None):
        ok = False
        print("self-test FAILED: inline waiver not honored")

    print("lint_invariants self-test: %s" % ("OK" if ok else "FAILED"))
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None, help="repo root (default: the linter's parent dir)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args(argv)

    if args.self_test:
        return 0 if self_test() else 2

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.join(root, "src")
    files = args.files or collect_sources(src_root)
    if not files:
        print("lint_invariants: no sources found under %s" % src_root)
        return 2

    findings = []
    for path in files:
        findings.extend(lint_file(path, src_root))
    for f in findings:
        print(f)
    print(
        "lint_invariants: %d file(s), %d finding(s)" % (len(files), len(findings))
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
