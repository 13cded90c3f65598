#include "bench/e2e/e2e_support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>

#include "src/common/json_writer.h"
#include "src/storage/csv.h"

namespace spider::e2e {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

int64_t BytesUnder(const fs::path& dir,
                   const std::function<bool(const fs::path&)>& keep) {
  int64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (keep && !keep(it->path())) continue;
    total += static_cast<int64_t>(it->file_size(ec));
  }
  return total;
}

std::string SerializeInds(const std::vector<Ind>& inds) {
  std::string out;
  for (const Ind& ind : inds) {
    out += ind.dependent.ToString();
    out += '\t';
    out += ind.referenced.ToString();
    out += '\n';
  }
  return out;
}

namespace {

struct OracleColumn {
  AttributeRef ref;
  bool eligible = false;
  bool declared_unique = false;
  int64_t non_null = 0;
  std::vector<uint64_t> hashes;  // sorted, distinct after FinishTable()
};

// Keeps only what the oracle needs from each row: hashed canonical values.
class OracleSink final : public CatalogSink {
 public:
  std::vector<OracleColumn> columns;

  Status BeginTable(const std::string& name) override {
    table_ = name;
    first_ = columns.size();
    return Status::OK();
  }
  Status AddColumn(std::string name, TypeId type,
                   bool declared_unique) override {
    OracleColumn column;
    column.ref = {table_, std::move(name)};
    column.eligible = IsIndEligibleType(type);
    column.declared_unique = declared_unique;
    columns.push_back(std::move(column));
    return Status::OK();
  }
  Status AppendRow(std::vector<Value> row) override {
    if (row.size() != columns.size() - first_) {
      return Status::InvalidArgument("oracle: row width mismatch");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].is_null()) continue;
      OracleColumn& column = columns[first_ + i];
      ++column.non_null;
      column.hashes.push_back(hash_(row[i].ToCanonicalString()));
    }
    return Status::OK();
  }
  Status FinishTable() override {
    for (size_t i = first_; i < columns.size(); ++i) {
      std::vector<uint64_t>& hashes = columns[i].hashes;
      std::sort(hashes.begin(), hashes.end());
      hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
      hashes.shrink_to_fit();
    }
    return Status::OK();
  }
  void DeclareForeignKey(ForeignKey) override {}
  Result<std::unique_ptr<Catalog>> Finish() override {
    return std::make_unique<Catalog>("oracle");
  }

 private:
  std::string table_;
  size_t first_ = 0;
  std::hash<std::string> hash_;
};

bool Includes(const std::vector<uint64_t>& dep,
              const std::vector<uint64_t>& ref) {
  if (dep.size() > ref.size()) return false;
  if (dep.front() < ref.front() || dep.back() > ref.back()) return false;
  for (const uint64_t h : dep) {
    if (!std::binary_search(ref.begin(), ref.end(), h)) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<Ind>> OracleInds(const fs::path& csv_dir) {
  OracleSink sink;
  SPIDER_RETURN_NOT_OK(ImportCsvDirectory(csv_dir, CsvOptions{}, sink).status());
  std::vector<Ind> inds;
  for (const OracleColumn& ref : sink.columns) {
    const bool unique =
        ref.declared_unique ||
        static_cast<int64_t>(ref.hashes.size()) == ref.non_null;
    if (!ref.eligible || ref.non_null == 0 || !unique) continue;
    for (const OracleColumn& dep : sink.columns) {
      if (!dep.eligible || dep.non_null == 0 || &dep == &ref) continue;
      if (Includes(dep.hashes, ref.hashes)) {
        inds.push_back(Ind{dep.ref, ref.ref});
      }
    }
  }
  std::sort(inds.begin(), inds.end());
  return inds;
}

void Tracer::Add(std::string name, int track, double start_s, double end_s) {
  const double entered = NowSeconds();
  spans_.push_back(Span{std::move(name), track, start_s, end_s});
  bookkeeping_s_ += NowSeconds() - entered;
}

void Tracer::NameTrack(int track, std::string name) {
  track_names_.emplace_back(track, std::move(name));
}

Status Tracer::Write(const fs::path& path) const {
  JsonWriter json;
  json.BeginObject();
  json.KV("displayTimeUnit", "ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const auto& [track, name] : track_names_) {
    json.BeginObject();
    json.KV("name", "thread_name");
    json.KV("ph", "M");
    json.KV("pid", 1);
    json.KV("tid", track);
    json.Key("args");
    json.BeginObject();
    json.KV("name", name);
    json.EndObject();
    json.EndObject();
  }
  for (const Span& span : spans_) {
    const size_t dot = span.name.rfind('.');
    json.BeginObject();
    json.KV("name", span.name);
    json.KV("cat", dot == std::string::npos ? span.name
                                            : span.name.substr(0, dot));
    json.KV("ph", "X");
    json.KV("pid", 1);
    json.KV("tid", span.track);
    json.KV("ts", span.start_s * 1e6);
    json.KV("dur", (span.end_s - span.start_s) * 1e6);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str() << "\n";
  out.close();
  if (!out) return Status::IOError("cannot write trace " + path.string());
  return Status::OK();
}

}  // namespace spider::e2e
