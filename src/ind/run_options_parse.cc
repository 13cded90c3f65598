#include "src/ind/run_options_parse.h"

#include <cstdlib>
#include <string_view>

#include "src/common/string_util.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

// Keep in sync with the Apply() dispatch below; RunOptionKeys() is the
// public listing unknown-key errors and the docs derive from.
const char* const kKeys[] = {
    "approach",       "kind",
    "nary-base",      "max-arity",
    "sigma",          "error",
    "max-lhs",        "time-budget",
    "threads",        "max-open-files",
    "block-skip",     "no-block-skip",
    "max-value-pretest", "sampling-pretest",
    "profile-cache",  "no-profile-cache",
};

Result<int> ParseIntInRange(const std::string& key, const std::string& value,
                            long min, long max, const std::string& range_note) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < min || parsed > max) {
    return Status::InvalidArgument("--" + key + " must be an integer in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]" + range_note +
                                   ", got '" + value + "'");
  }
  return static_cast<int>(parsed);
}

Result<double> ParseNumber(const std::string& key, const std::string& value,
                           const std::string& range_text, double min,
                           bool min_exclusive, double max, bool max_inclusive) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  const bool below = min_exclusive ? parsed <= min : parsed < min;
  const bool above = max_inclusive ? parsed > max : parsed >= max;
  if (value.empty() || *end != '\0' || below || above) {
    return Status::InvalidArgument("--" + key + " must be a number in " +
                                   range_text + ", got '" + value + "'");
  }
  return parsed;
}

/// Bare flags ("") count as true, matching --sampling-pretest; explicit
/// values accept the JSON spellings.
Result<bool> ParseBool(const std::string& key, const std::string& value) {
  if (value.empty() || value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return Status::InvalidArgument("--" + key +
                                 " must be a boolean (true/false), got '" +
                                 value + "'");
}

Status UnknownKeyError(const std::string& key) {
  std::string message = "unknown option '--" + key + "'";
  // Same typo tolerance as the approach registry: suggest only when the
  // distance is plausibly a slip of the fingers.
  std::string best;
  size_t best_distance = std::max<size_t>(2, key.size() / 3) + 1;
  for (const std::string& candidate : RunOptionKeys()) {
    const size_t distance = EditDistance(key, candidate);
    if (distance < best_distance) {
      best_distance = distance;
      best = candidate;
    }
  }
  if (!best.empty()) {
    message += " — did you mean '--" + best + "'?";
  } else {
    message += ".";
  }
  message += " Valid options: --" + JoinStrings(RunOptionKeys(), ", --");
  return Status::InvalidArgument(message);
}

Status Apply(const RunOptionKv& kv, RunOptions& options) {
  const std::string& key = kv.key;
  const std::string& value = kv.value;
  if (key == "approach") {
    // The registry's lookup error carries the valid names per kind plus a
    // nearest-match suggestion — surface it verbatim.
    SPIDER_RETURN_NOT_OK(AlgorithmRegistry::Global().Find(value).status());
    options.approach = value;
    return Status::OK();
  }
  if (key == "kind") {
    SPIDER_ASSIGN_OR_RETURN(options.kind, ParseDependencyKind(value));
    return Status::OK();
  }
  if (key == "nary-base") {
    SPIDER_ASSIGN_OR_RETURN(const AlgorithmRegistry::Entry* entry,
                            AlgorithmRegistry::Global().Find(value));
    if (entry->capabilities.nary) {
      return Status::InvalidArgument(
          "--nary-base must name a unary approach, got n-ary expansion '" +
          value + "'");
    }
    options.nary_base = value;
    return Status::OK();
  }
  if (key == "max-arity") {
    SPIDER_ASSIGN_OR_RETURN(options.nary_max_arity,
                            ParseIntInRange(key, value, 2, 64, ""));
    return Status::OK();
  }
  if (key == "sigma") {
    SPIDER_ASSIGN_OR_RETURN(
        options.min_coverage,
        ParseNumber(key, value, "(0, 1]", 0.0, true, 1.0, true));
    return Status::OK();
  }
  if (key == "error") {
    SPIDER_ASSIGN_OR_RETURN(
        options.error_threshold,
        ParseNumber(key, value, "[0, 1)", 0.0, false, 1.0, false));
    return Status::OK();
  }
  if (key == "max-lhs") {
    SPIDER_ASSIGN_OR_RETURN(options.max_lhs_arity,
                            ParseIntInRange(key, value, 1, 64, ""));
    return Status::OK();
  }
  if (key == "time-budget") {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || parsed < 0) {
      return Status::InvalidArgument(
          "--time-budget must be a non-negative number of seconds, got '" +
          value + "'");
    }
    options.time_budget_seconds = parsed;
    return Status::OK();
  }
  if (key == "threads") {
    SPIDER_ASSIGN_OR_RETURN(
        options.threads,
        ParseIntInRange(key, value, 0, 4096, " (0 = hardware concurrency)"));
    return Status::OK();
  }
  if (key == "max-open-files") {
    SPIDER_ASSIGN_OR_RETURN(
        options.max_open_files,
        ParseIntInRange(key, value, 0, 1 << 20, " (0 = unlimited)"));
    return Status::OK();
  }
  if (key == "block-skip") {
    SPIDER_ASSIGN_OR_RETURN(options.block_skip, ParseBool(key, value));
    return Status::OK();
  }
  if (key == "no-block-skip") {
    SPIDER_ASSIGN_OR_RETURN(const bool no_skip, ParseBool(key, value));
    options.block_skip = !no_skip;
    return Status::OK();
  }
  if (key == "profile-cache") {
    SPIDER_ASSIGN_OR_RETURN(options.profile_cache, ParseBool(key, value));
    return Status::OK();
  }
  if (key == "no-profile-cache") {
    SPIDER_ASSIGN_OR_RETURN(const bool no_cache, ParseBool(key, value));
    options.profile_cache = !no_cache;
    return Status::OK();
  }
  if (key == "max-value-pretest") {
    SPIDER_ASSIGN_OR_RETURN(options.generator.max_value_pretest,
                            ParseBool(key, value));
    return Status::OK();
  }
  if (key == "sampling-pretest") {
    SPIDER_ASSIGN_OR_RETURN(options.generator.sampling_pretest,
                            ParseBool(key, value));
    return Status::OK();
  }
  return UnknownKeyError(key);
}

}  // namespace

const std::vector<std::string>& RunOptionKeys() {
  static const std::vector<std::string>* keys = [] {
    auto* out = new std::vector<std::string>(std::begin(kKeys),
                                             std::end(kKeys));
    return out;
  }();
  return *keys;
}

Result<RunOptions> ParseRunOptions(const std::vector<RunOptionKv>& pairs) {
  RunOptions options;
  options.approach.clear();  // "not set": the default resolves below
  for (const RunOptionKv& kv : pairs) {
    SPIDER_RETURN_NOT_OK(Apply(kv, options));
  }
  if (options.approach.empty()) {
    // A bare "kind" selects the kind's default discoverer; σ < 1 selects
    // the first unary IND verifier with partial coverage; otherwise the
    // historical brute-force default stands.
    options.approach = "brute-force";
    const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
    if (options.kind && *options.kind != DependencyKind::kInd) {
      auto name = registry.DefaultNameForKind(*options.kind);
      if (name.ok()) options.approach = *name;
    } else if (options.min_coverage < 1.0) {
      for (const std::string& name :
           registry.NamesForKind(DependencyKind::kInd)) {
        const AlgorithmCapabilities& capabilities =
            (*registry.Find(name))->capabilities;
        if (!capabilities.nary && capabilities.supports_partial) {
          options.approach = name;
          break;
        }
      }
    }
  }
  return options;
}

}  // namespace spider
