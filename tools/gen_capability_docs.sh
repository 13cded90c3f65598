#!/usr/bin/env bash
# Regenerates the algorithm capability matrix in docs/ALGORITHMS.md from the
# registry (`spider approaches --json`), so the documented capabilities can
# never drift from the code: the matrix is whatever the binary reports.
#
# Usage:
#   tools/gen_capability_docs.sh            # rewrite docs/ALGORITHMS.md
#   tools/gen_capability_docs.sh --check    # fail (exit 1) when it is stale
#
# The spider_cli binary is looked up at build/tools/spider_cli; override
# with SPIDER_BIN. CI runs --check in the docs-drift job.

set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-}"
bin="${SPIDER_BIN:-build/tools/spider_cli}"
doc="docs/ALGORITHMS.md"

if [ ! -x "$bin" ]; then
  echo "error: $bin not found or not executable — build spider_cli first" \
    "(or set SPIDER_BIN)" >&2
  exit 2
fi
if [ ! -f "$doc" ]; then
  echo "error: $doc not found" >&2
  exit 2
fi

SPIDER_APPROACHES_JSON="$("$bin" approaches --json)" \
  python3 - "$doc" "$mode" <<'PY'
import json
import os
import sys

doc_path, mode = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else ""
report = json.loads(os.environ["SPIDER_APPROACHES_JSON"])

BEGIN = "<!-- capability-matrix:begin -->"
END = "<!-- capability-matrix:end -->"

def cell(flag):
    return "yes" if flag else "—"

lines = [
    BEGIN,
    "<!-- Generated by tools/gen_capability_docs.sh from"
    " `spider approaches --json`. Do not edit by hand:"
    " the docs-drift CI job regenerates and diffs this block. -->",
    "",
    "| approach | kind | style | approximate | needs extractor | open-file budget |",
    "|---|---|---|---|---|---|",
]
for a in report["approaches"]:
    style = "n-ary expansion" if a["nary"] else (
        "database-internal" if a["database_internal"] else "database-external")
    lines.append(
        "| `%s` | %s | %s | %s | %s | %s |" % (
            a["name"], a["kind"], style,
            cell(a["supports_partial"]),
            cell(a["needs_extractor"]),
            cell(a["bounds_open_files"])))
lines.append(END)
block = "\n".join(lines)

text = open(doc_path).read()
begin = text.find(BEGIN)
end = text.find(END)
if begin < 0 or end < 0:
    sys.stderr.write("error: %s has no capability-matrix markers\n" % doc_path)
    sys.exit(2)
updated = text[:begin] + block + text[end + len(END):]

if mode == "--check":
    if updated != text:
        sys.stderr.write(
            "error: %s capability matrix is stale — run "
            "tools/gen_capability_docs.sh and commit the result\n" % doc_path)
        sys.exit(1)
    print("capability matrix is up to date")
else:
    open(doc_path, "w").write(updated)
    print("capability matrix regenerated in %s" % doc_path)
PY
