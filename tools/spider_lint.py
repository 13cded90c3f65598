#!/usr/bin/env python3
"""spider_lint: repo-specific invariants clang-tidy cannot express.

Rules (see docs/ANALYSIS.md for the rationale of each):

  column-values       Column::values()/value(row) random access outside
                      src/storage/ — everything above the storage layer must
                      stream through ValueCursor so it stays out-of-core.
  raw-stdout          std::cout/printf in src/ — library code reports
                      through logging.h or the JSON writer; only tools/ may
                      own the process's stdout.
  check-side-effect   side-effecting expressions inside SPIDER_CHECK(...) —
                      SPIDER_DCHECK compiles the condition away in release
                      builds, and CHECK conditions must be safe to hoist.
  naked-thread        std::thread/std::jthread outside ThreadPool — all
                      concurrency flows through the pool so budgets,
                      cancellation and the thread-safety annotations see it.
  set-col-literal     hand-built ".set"/".col" file names — workspace
                      layout is owned by AttributeFileStem / TableFileStem /
                      ValueSetExtractor::SetFileName/CompositeSetFileName;
                      ad-hoc names break cache sharing and reopening.
  ignore-status-reason (void)-discarded call results without an
                      `// ignore-status:` reason next to them.
  nolint-reason       bare NOLINT — suppressions must name the check and a
                      reason: NOLINT(check-name): why it is safe here.

Suppress a finding with a justified allowance on the offending line or the
line directly above it:

    ... offending code ...  // spider-lint: allow(rule-id): reason

The reason is mandatory; an allowance without one is itself a finding.

Usage:
  tools/spider_lint.py                 # lint src/ tools/ tests/
  tools/spider_lint.py PATH...         # lint specific files/dirs
  tools/spider_lint.py --fixtures DIR  # self-test against expect-lint
                                       # annotated fixture files
  tools/spider_lint.py --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source preprocessing


def strip_comments(text):
    """Removes //... and /*...*/ comments, preserving string/char literals
    and line structure (newlines inside block comments are kept)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2])
                    i += 2
                    continue
                if text[i] == "\n":  # unterminated literal; bail to be safe
                    break
                out.append(text[i])
                i += 1
            if i < n and text[i] == quote:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_strings(text):
    """Replaces the contents of string/char literals with spaces."""
    return re.sub(
        r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'',
        lambda m: '"' + " " * (len(m.group(0)) - 2) + '"',
        text,
    )


# ---------------------------------------------------------------------------
# Rule implementations. Each yields (line_number, message) findings from the
# comment-stripped text; raw lines are used where comments are the content.

CHECK_MACRO = re.compile(r"\bSPIDER_D?CHECK(?:_(?:EQ|NE|LT|LE|GT|GE))?\s*\(")
MUTATORS = re.compile(
    r"(?:\.|->)\s*(?:push_back|pop_back|push_front|pop_front|insert|erase|"
    r"emplace|emplace_back|clear|reset|release|swap)\s*\("
)
ASSIGN = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)|\+\+|--|[+\-*/%&|^]=|<<=|>>=")


def rule_column_values(path, stripped, raw_lines):
    del path, raw_lines
    pattern = re.compile(r"(?:\.|->)\s*(?:values\s*\(\s*\)|value\s*\(\s*[^)\s])")
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if pattern.search(line):
            yield (
                lineno,
                "materialized Column access outside src/storage/; stream "
                "through OpenCursor()/ValueCursor instead",
            )


def rule_raw_stdout(path, stripped, raw_lines):
    del path, raw_lines
    pattern = re.compile(
        r"std::cout|(?<![\w])(?:std::)?printf\s*\(|fprintf\s*\(\s*stdout|"
        r"(?<![\w])(?:std::)?puts\s*\("
    )
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if pattern.search(strip_strings(line)):
            yield (
                lineno,
                "raw stdout in library code; use SPIDER_LOG / JsonWriter "
                "(stdout belongs to tools/)",
            )


def rule_check_side_effect(path, stripped, raw_lines):
    del path, raw_lines
    for match in CHECK_MACRO.finditer(stripped):
        start = match.end() - 1  # the '('
        depth = 0
        end = start
        for i in range(start, len(stripped)):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        args = strip_strings(stripped[start + 1 : end])
        if ASSIGN.search(args) or MUTATORS.search(args):
            lineno = stripped.count("\n", 0, match.start()) + 1
            yield (
                lineno,
                "side effect inside SPIDER_CHECK — SPIDER_DCHECK drops the "
                "expression in release builds; evaluate before the check",
            )


def rule_naked_thread(path, stripped, raw_lines):
    del path, raw_lines
    pattern = re.compile(r"std::j?thread\b(?!\s*::)")
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if pattern.search(strip_strings(line)):
            yield (
                lineno,
                "naked std::thread; schedule work on ThreadPool so budgets, "
                "cancellation and the lock analysis cover it",
            )


def rule_set_col_literal(path, stripped, raw_lines):
    del path, raw_lines
    pattern = re.compile(r'"[^"\n]*\.(?:set|col)"')
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if pattern.search(line):
            yield (
                lineno,
                'hand-built ".set"/".col" name; use AttributeFileStem / '
                "SetFileName / CompositeSetFileName so the workspace layout "
                "stays canonical",
            )


def rule_ignore_status_reason(path, stripped, raw_lines):
    del path
    pattern = re.compile(r"\(void\)\s*!?\s*[\w:]+[\w:.\->]*\s*\(")
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if not pattern.search(line):
            continue
        here = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        above = raw_lines[lineno - 2] if lineno >= 2 else ""
        if "ignore-status:" in here or "ignore-status:" in above:
            continue
        yield (
            lineno,
            "(void)-discarded call result without an `// ignore-status: "
            "<reason>` comment on this or the preceding line",
        )


def rule_nolint_reason(path, stripped, raw_lines):
    del path, stripped
    ok = re.compile(r"NOLINT(?:NEXTLINE|BEGIN)?\([\w\-.,* ]+\)\s*(?::| --) \S")
    for lineno, line in enumerate(raw_lines, 1):
        if "NOLINTEND" in line:
            continue
        if "NOLINT" in line and not ok.search(line):
            yield (
                lineno,
                "bare NOLINT; write NOLINT(<check>): <reason> so the "
                "suppression stays auditable",
            )


def rule_set_format_magic(path, stripped, raw_lines):
    del path, raw_lines
    # The 8-byte magic of block-indexed set files has exactly one home
    # (sorted_set_file.{h,cc}); a re-derived literal elsewhere is a format
    # fork waiting to drift.
    pattern = re.compile(r'"SpSetBlk"')
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if pattern.search(line):
            yield (
                lineno,
                'hand-rolled set-file magic "SpSetBlk"; use kSortedSetMagic '
                "/ kSortedSetHeaderBytes from src/extsort/sorted_set_file.h "
                "so the format has a single definition",
            )


# (rule id, function, include prefixes, exclude prefixes)
RULES = [
    (
        "column-values",
        rule_column_values,
        ("src/",),
        ("src/storage/",),
    ),
    (
        "raw-stdout",
        rule_raw_stdout,
        ("src/",),
        (),
    ),
    (
        "check-side-effect",
        rule_check_side_effect,
        ("src/", "tools/"),
        (),
    ),
    (
        "naked-thread",
        rule_naked_thread,
        ("src/", "tools/"),
        ("src/common/thread_pool.h", "src/common/thread_pool.cc"),
    ),
    (
        "set-col-literal",
        rule_set_col_literal,
        ("src/",),
        ("src/extsort/value_set_extractor.cc", "src/storage/disk_store.cc"),
    ),
    (
        "ignore-status-reason",
        rule_ignore_status_reason,
        ("src/", "tools/"),
        (),
    ),
    (
        "nolint-reason",
        rule_nolint_reason,
        ("src/", "tools/", "tests/"),
        (),
    ),
    (
        "set-format-magic",
        rule_set_format_magic,
        ("src/", "tools/", "tests/"),
        ("src/extsort/sorted_set_file.h", "src/extsort/sorted_set_file.cc"),
    ),
]

ALLOW = re.compile(r"spider-lint:\s*allow\(([\w\-]+)\)\s*(?::| --)?\s*(.*)")
RULE_IDS = {rule_id for rule_id, _, _, _ in RULES}


def lint_file(relpath, text, all_rules=False):
    """Returns a list of (relpath, lineno, rule_id, message) findings."""
    stripped = strip_comments(text)
    raw_lines = text.splitlines()
    findings = []
    for rule_id, fn, includes, excludes in RULES:
        if not all_rules:
            if not any(relpath.startswith(p) for p in includes):
                continue
            if any(relpath.startswith(p) for p in excludes):
                continue
        for lineno, message in fn(relpath, stripped, raw_lines):
            # An allowance covers its own line or the line directly below it.
            here = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            above = raw_lines[lineno - 2] if lineno >= 2 else ""
            allow = ALLOW.search(here) or ALLOW.search(above)
            if allow and allow.group(1) == rule_id:
                if allow.group(2).strip():
                    continue  # justified allowance
                message = (
                    "spider-lint allowance without a reason (write "
                    "`// spider-lint: allow(%s): <why>`)" % rule_id
                )
            findings.append((relpath, lineno, rule_id, message))
    # Allowances naming unknown rules are typos that silently stop working.
    for lineno, raw in enumerate(raw_lines, 1):
        allow = ALLOW.search(raw)
        if allow and allow.group(1) not in RULE_IDS:
            findings.append(
                (
                    relpath,
                    lineno,
                    "unknown-rule",
                    "allowance names unknown rule '%s'" % allow.group(1),
                )
            )
    return findings


def iter_source_files(paths, repo_root):
    exts = {".cc", ".h", ".cpp", ".hpp"}
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in exts:
                    yield os.path.join(dirpath, name)
    del repo_root


def relpath_for(path, repo_root):
    return os.path.relpath(os.path.abspath(path), repo_root).replace(os.sep, "/")


def run_tree(paths, repo_root):
    findings = []
    for path in iter_source_files(paths, repo_root):
        rel = relpath_for(path, repo_root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        findings.extend(lint_file(rel, text))
    for rel, lineno, rule_id, message in findings:
        print(f"{rel}:{lineno}: [{rule_id}] {message}")
    if findings:
        print(f"spider_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


EXPECT = re.compile(r"expect-lint:\s*([\w\-, ]+)")


def run_fixtures(fixture_dir):
    """Self-test: every fixture line marked `// expect-lint: rule` must fire
    exactly that rule, and nothing else may fire anywhere."""
    failures = []
    checked = 0
    fired_rules = set()
    for path in sorted(iter_source_files([fixture_dir], fixture_dir)):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        expected = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            m = EXPECT.search(line)
            if m:
                for rule_id in m.group(1).replace(",", " ").split():
                    expected.add((lineno, rule_id))
        # Fixtures are linted as if they lived under src/ with every rule
        # armed, so one file can cover any rule.
        actual = {
            (lineno, rule_id)
            for _, lineno, rule_id, _ in lint_file(
                "src/fixture/" + name, text, all_rules=True
            )
        }
        fired_rules.update(rule_id for _, rule_id in actual)
        checked += 1
        for lineno, rule_id in sorted(expected - actual):
            failures.append(f"{name}:{lineno}: expected [{rule_id}], not fired")
        for lineno, rule_id in sorted(actual - expected):
            failures.append(f"{name}:{lineno}: unexpected [{rule_id}]")
    if checked == 0:
        print(f"spider_lint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    # Every rule must have at least one firing fixture, or it can rot.
    for rule_id in sorted(RULE_IDS - fired_rules):
        failures.append(f"rule [{rule_id}] has no firing fixture")
    for failure in failures:
        print(failure)
    if failures:
        print(f"spider_lint fixtures: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"spider_lint fixtures: {checked} file(s) OK, all rules covered")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files/dirs (default: src tools tests)")
    parser.add_argument("--fixtures", metavar="DIR", help="run fixture self-test")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule_id, fn, includes, excludes in RULES:
            print(f"{rule_id}: in {','.join(includes)}"
                  + (f" except {','.join(excludes)}" if excludes else ""))
        return 0

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.fixtures:
        return run_fixtures(args.fixtures)

    paths = args.paths or [
        os.path.join(repo_root, d) for d in ("src", "tools", "tests")
    ]
    for path in paths:
        if not os.path.exists(path):
            print(f"spider_lint: no such path: {path}", file=sys.stderr)
            return 2
    return run_tree(paths, repo_root)


if __name__ == "__main__":
    sys.exit(main())
