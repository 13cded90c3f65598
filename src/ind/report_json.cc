#include "src/ind/report_json.h"

#include "src/common/json_writer.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

// The work counters of the phase a report describes and whether the run
// answered work from the persisted profile: the same keys, in the same
// order, for every kind.
void WriteCounters(const RunCounters& counters, bool profile_reused,
                   JsonWriter& json) {
  json.KV("tuples_read", counters.tuples_read);
  json.KV("comparisons", counters.comparisons);
  json.KV("blocks_skipped", counters.blocks_skipped);
  json.KV("files_opened", counters.files_opened);
  json.KV("peak_open_files", counters.peak_open_files);
  json.KV("candidates_tested", counters.candidates_tested);
  json.KV("candidates_pretest_pruned", counters.candidates_pretest_pruned);
  json.KV("engine_rows_scanned", counters.engine_rows_scanned);
  json.KV("sets_extracted", counters.sets_extracted);
  json.KV("sets_reused", counters.sets_reused);
  json.KV("profile_reused", profile_reused);
}

void WriteDependencyReport(const SessionReport& report,
                           const ReportJsonContext& context, JsonWriter& json) {
  json.KV("finished", report.dependency.finished);
  json.KV("budget_expired", !report.dependency.finished);
  json.KV("cancelled", context.cancelled);
  json.KV("threads", static_cast<int64_t>(report.threads_used));
  json.KV("seconds", report.total_seconds);
  json.KV("tests", report.dependency.tests);
  WriteCounters(report.dependency.counters, report.profile_reused, json);
  if (report.kind == DependencyKind::kUcc) {
    json.Key("uccs");
    json.BeginArray();
    for (const Ucc& ucc : report.dependency.uccs) {
      json.BeginObject();
      json.KV("table", ucc.table);
      json.Key("columns");
      json.BeginArray();
      for (const std::string& column : ucc.columns) json.String(column);
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
  } else {
    json.Key("fds");
    json.BeginArray();
    for (const Fd& fd : report.dependency.fds) {
      json.BeginObject();
      json.KV("table", fd.table);
      json.Key("lhs");
      json.BeginArray();
      for (const std::string& column : fd.lhs) json.String(column);
      json.EndArray();
      json.KV("rhs", fd.rhs);
      json.KV("error", fd.error);
      json.EndObject();
    }
    json.EndArray();
  }
}

void WriteIndReport(const SessionReport& report,
                    const ReportJsonContext& context, JsonWriter& json) {
  json.KV("raw_pairs", report.candidates.raw_pair_count);
  json.KV("candidates",
          static_cast<int64_t>(report.candidates.candidates.size()));
  json.KV("pretest_pruned", report.candidates.total_pruned());
  json.KV("finished", report.run.finished);
  json.KV("budget_expired", !report.run.finished);
  json.KV("cancelled", context.cancelled);
  json.KV("threads", static_cast<int64_t>(report.threads_used));
  json.KV("partitions", static_cast<int64_t>(report.partitions));
  json.KV("seconds", report.total_seconds);
  WriteCounters(report.run.counters, report.profile_reused, json);
  json.KV("candidates_revalidated", report.candidates_revalidated);
  json.KV("verdicts_reused", report.verdicts_reused);
  json.Key("satisfied_inds");
  json.BeginArray();
  for (const Ind& ind : report.run.satisfied) {
    json.BeginObject();
    json.KV("dependent", ind.dependent.ToString());
    json.KV("referenced", ind.referenced.ToString());
    json.EndObject();
  }
  json.EndArray();
  if (report.nary) {
    json.KV("nary_base", report.nary_base);
    json.KV("nary_finished", report.nary_run.finished);
    json.KV("nary_tests", report.nary_run.tests);
    json.KV("nary_tuples_read", report.nary_run.counters.tuples_read);
    json.Key("nary_inds");
    json.BeginArray();
    for (const NaryInd& ind : report.nary_run.satisfied) {
      json.BeginObject();
      json.Key("dependent");
      json.BeginArray();
      for (const AttributeRef& attr : ind.dependent) {
        json.String(attr.ToString());
      }
      json.EndArray();
      json.Key("referenced");
      json.BeginArray();
      for (const AttributeRef& attr : ind.referenced) {
        json.String(attr.ToString());
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
  }
}

}  // namespace

std::string SessionReportToJson(const SessionReport& report,
                                const ReportJsonContext& context) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema_version", kReportSchemaVersion);
  json.KV("approach", report.approach);
  json.KV("kind", std::string(KindName(report.kind)));
  json.KV("backend", context.backend);
  json.KV("tables", context.tables);
  json.KV("attributes", context.attributes);
  if (report.kind != DependencyKind::kInd) {
    WriteDependencyReport(report, context, json);
  } else {
    WriteIndReport(report, context, json);
  }
  if (!report.profile_save_error.empty()) {
    json.KV("profile_save_error", report.profile_save_error);
  }
  json.EndObject();
  return json.str();
}

std::string ApproachesToJson() {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  JsonWriter json;
  json.BeginObject();
  json.Key("approaches");
  json.BeginArray();
  for (const std::string& name : registry.Names()) {
    // Every listed name is registered, so the lookup cannot fail.
    auto entry = registry.Find(name);
    if (!entry.ok()) continue;
    const AlgorithmCapabilities& capabilities = (*entry)->capabilities;
    json.BeginObject();
    json.KV("name", name);
    json.KV("kind", std::string(KindName(capabilities.kind)));
    json.KV("summary", capabilities.summary);
    json.KV("nary", capabilities.nary);
    json.KV("database_internal", capabilities.database_internal);
    json.KV("needs_extractor", capabilities.needs_extractor);
    json.KV("supports_partial", capabilities.supports_partial);
    json.KV("bounds_open_files", capabilities.bounds_open_files);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace spider
