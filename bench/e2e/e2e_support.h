// Support code for the end-to-end benchmark driver: span tracing, the
// independent IND oracle, sample statistics and on-disk accounting.

#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/ind/candidate.h"

namespace spider::e2e {

namespace fs = std::filesystem;

/// Monotonic seconds since the first call in this process.
double NowSeconds();

/// Nearest-rank percentile, q in (0, 100], of a non-empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Bytes of the regular files under `dir` (recursive) whose path passes
/// `keep`; every file when `keep` is empty.
int64_t BytesUnder(const fs::path& dir,
                   const std::function<bool(const fs::path&)>& keep = {});

/// The canonical byte form of a satisfied-IND list: one "dep\tref" line per
/// IND, in the order given (sessions return them sorted).
std::string SerializeInds(const std::vector<Ind>& inds);

/// The satisfied unary INDs of a CSV dump, computed without the profiling
/// pipeline: the dump streams through the CSV importer into per-column sets
/// of 64-bit hashes of the canonical values, and every (dependent,
/// referenced) pair is tested by binary search. The eligibility rules are
/// the paper's: dependents are non-empty non-LOB columns, referenced
/// columns are non-empty unique ones. Sorted like a session's result.
[[nodiscard]]
Result<std::vector<Ind>> OracleInds(const fs::path& csv_dir);

/// Complete-event spans kept in memory and written once as Chrome
/// trace-event JSON (Perfetto and chrome://tracing open it). Each span is
/// timed from outside the call it wraps.
class Tracer {
 public:
  struct Span {
    std::string name;
    int track = 0;
    double start_s = 0;
    double end_s = 0;
  };

  /// Runs `fn` (returning Status), records it as a span on `track` and
  /// returns its seconds, or the error `fn` returned.
  template <typename Fn>
  Result<double> Time(std::string name, int track, Fn&& fn) {
    const double start = NowSeconds();
    const Status status = fn();
    const double end = NowSeconds();
    if (!status.ok()) return status;
    Add(std::move(name), track, start, end);
    return end - start;
  }

  void Add(std::string name, int track, double start_s, double end_s);
  void NameTrack(int track, std::string name);

  /// Seconds spent inside Add() so far (the cost of keeping spans).
  double bookkeeping_seconds() const { return bookkeeping_s_; }
  const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]]
  Status Write(const fs::path& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::pair<int, std::string>> track_names_;
  double bookkeeping_s_ = 0;
};

}  // namespace spider::e2e
