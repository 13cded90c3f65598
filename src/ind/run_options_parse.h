// One RunOptions construction path for every front-end.
//
// The CLI's profile flags and spiderd's JSON request bodies describe the
// same thing — a RunOptions — so both reduce their input to ordered
// key/value pairs and hand them to ParseRunOptions. Keys are the CLI flag
// names without the leading dashes ("kind", "error", "threads",
// "no-block-skip", ...); values are the flag values (an empty value means
// the bare-flag form, e.g. --sampling-pretest). Every range check, every
// per-kind validation error and the Levenshtein "did you mean" suggestion
// for an unknown key or approach therefore surfaces identically whether
// the request came in over argv or HTTP.

#pragma once

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/ind/session.h"

namespace spider {

/// One option assignment. `value` is the textual form regardless of the
/// front-end's native type (a JSON number 2 arrives as "2", a JSON bool as
/// "true"/"false"); an empty value on a boolean key means "true", matching
/// the CLI's bare-flag spelling.
struct RunOptionKv {
  std::string key;
  std::string value;
};

/// Parses `value`, the text of flag --`key`, as an integer in [min, max]
/// (a subrange of int); the range is checked on the parsed long, before it
/// narrows. The error spells out the range, then `range_note` (say
/// " (0 = unlimited)"), and echoes the input.
[[nodiscard]]
Result<int> ParseIntInRange(const std::string& key, const std::string& value,
                            long min, long max, const std::string& range_note);

/// The canonical option keys ParseRunOptions understands, in documentation
/// order. The CLI prefixes them with "--"; the daemon uses them verbatim as
/// JSON object keys.
const std::vector<std::string>& RunOptionKeys();

/// Builds a RunOptions from key/value pairs, validating each value with
/// the same messages the CLI has always printed (ranges spelled out, the
/// offending input echoed) and rejecting unknown keys with a
/// nearest-match suggestion. Later pairs override earlier ones. The
/// approach default is resolved here: an explicit "approach" wins; with
/// only a non-IND "kind" the kind's default discoverer is chosen; with
/// "sigma" < 1 the first registered unary IND verifier that supports
/// partial coverage ("spider-merge"); otherwise "brute-force" (the
/// paper's baseline). Last it runs ValidateRunOptions, the check
/// SpiderSession::Run starts with, so every cross-field rule (names,
/// kind/approach agreement, σ, error threshold, nary-base) fails here,
/// before a front-end loads a catalog, with the session's text.
[[nodiscard]]
Result<RunOptions> ParseRunOptions(const std::vector<RunOptionKv>& pairs);

}  // namespace spider
