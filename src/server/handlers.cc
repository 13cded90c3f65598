#include "src/server/handlers.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json_writer.h"
#include "src/ind/report_json.h"
#include "src/ind/run_options_parse.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace spider {

namespace {

HttpResponse JsonError(int status_code, const std::string& message) {
  JsonWriter json;
  json.BeginObject();
  json.KV("error", message);
  json.EndObject();
  HttpResponse response;
  response.status_code = status_code;
  response.body = json.str();
  return response;
}

HttpResponse JsonOk(const std::string& body, int status_code = 200) {
  HttpResponse response;
  response.status_code = status_code;
  response.body = body;
  return response;
}

/// Status → HTTP: validation problems are the client's fault, missing
/// things are 404, name collisions 409, the rest is on us.
HttpResponse FromStatus(const Status& status) {
  int code = 500;
  if (status.IsInvalidArgument()) code = 400;
  if (status.IsNotFound()) code = 404;
  if (status.IsAlreadyExists()) code = 409;
  return JsonError(code, status.message());
}

void WriteJobSnapshot(const JobSnapshot& job, JsonWriter& json) {
  json.BeginObject();
  json.KV("id", job.id);
  json.KV("workspace", job.workspace);
  json.KV("label", job.label);
  json.KV("state", std::string(JobStateName(job.state)));
  json.KV("done", job.done);
  json.KV("total", job.total);
  // Progress percent of the current phase; null while its total is
  // unknown (an n-ary expansion, a UCC/FD/AFD search), never a made-up 0.
  json.Key("percent");
  if (job.total > 0) {
    json.Double(100.0 * static_cast<double>(job.done) /
                static_cast<double>(job.total));
  } else {
    json.Null();
  }
  json.KV("has_report", !job.report_json.empty());
  if (!job.error.empty()) json.KV("error", job.error);
  json.EndObject();
}

/// Reduces a JSON member to the textual option value ParseRunOptions
/// expects: strings pass through, numbers keep their source spelling,
/// booleans become "true"/"false". Structured values make no sense as
/// option values.
Result<std::string> OptionValueText(const std::string& key,
                                    const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kString:
      return value.string;
    case JsonValue::Kind::kNumber:
      return value.raw_number;
    case JsonValue::Kind::kBool:
      return std::string(value.boolean ? "true" : "false");
    default:
      return Status::InvalidArgument("option '" + key +
                                     "' must be a string, number or boolean");
  }
}

std::optional<int64_t> ParseJobId(std::string_view text) {
  int64_t id = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), id);
  if (ec != std::errc() || ptr != text.data() + text.size() || id <= 0) {
    return std::nullopt;
  }
  return id;
}

}  // namespace

HttpResponse RequestRouter::Handle(const HttpRequest& request) const {
  const std::string& path = request.path;
  if (path == "/healthz") {
    if (request.method != "GET") return JsonError(405, "method not allowed");
    JsonWriter json;
    json.BeginObject();
    json.KV("status", std::string("ok"));
    json.KV("schema_version", kReportSchemaVersion);
    json.EndObject();
    return JsonOk(json.str());
  }
  if (path == "/approaches") {
    if (request.method != "GET") return JsonError(405, "method not allowed");
    return JsonOk(ApproachesToJson());
  }
  if (path == "/workspaces") {
    if (request.method != "GET") return JsonError(405, "method not allowed");
    auto names = workspaces_->List();
    if (!names.ok()) return FromStatus(names.status());
    JsonWriter json;
    json.BeginObject();
    json.Key("workspaces");
    json.BeginArray();
    for (const std::string& name : *names) json.String(name);
    json.EndArray();
    json.EndObject();
    return JsonOk(json.str());
  }
  if (path == "/jobs") return HandleJobsCollection(request);
  if (path.rfind("/jobs/", 0) == 0) return HandleJobItem(request);
  return JsonError(404, "no such endpoint: " + path);
}

HttpResponse RequestRouter::HandleJobsCollection(
    const HttpRequest& request) const {
  if (request.method == "GET") {
    JsonWriter json;
    json.BeginObject();
    json.Key("jobs");
    json.BeginArray();
    for (const JobSnapshot& job : jobs_->List()) WriteJobSnapshot(job, json);
    json.EndArray();
    json.EndObject();
    return JsonOk(json.str());
  }
  if (request.method != "POST") return JsonError(405, "method not allowed");
  auto body = ParseJson(request.body);
  if (!body.ok()) return FromStatus(body.status());
  if (!body->is_object()) {
    return JsonError(400, "request body must be a JSON object");
  }
  std::string op = "profile";
  if (const JsonValue* op_value = body->Find("op")) {
    if (!op_value->is_string()) {
      return JsonError(400, "'op' must be a string");
    }
    op = op_value->string;
  }
  if (op == "profile" || op == "discover") return SubmitProfile(*body);
  if (op == "import") return SubmitImport(*body);
  return JsonError(400, "unknown op '" + op +
                            "' (expected profile, discover or import)");
}

HttpResponse RequestRouter::SubmitProfile(const JsonValue& body) const {
  const JsonValue* workspace = body.Find("workspace");
  if (workspace == nullptr || !workspace->is_string()) {
    return JsonError(400, "'workspace' (string) is required");
  }
  // Every other member is an option key — the same names `spider profile`
  // takes as --flags, validated by the same parser before the workspace
  // is opened.
  std::vector<RunOptionKv> pairs;
  for (const auto& [key, value] : body.members) {
    if (key == "workspace" || key == "op") continue;
    auto text = OptionValueText(key, value);
    if (!text.ok()) return FromStatus(text.status());
    pairs.push_back(RunOptionKv{key, *text});
  }
  auto options = ParseRunOptions(pairs);
  if (!options.ok()) return FromStatus(options.status());
  auto session = workspaces_->GetOrOpen(workspace->string);
  if (!session.ok()) return FromStatus(session.status());

  // The job owns a reference: an LRU eviction between submit and run must
  // not pull the session out from under the closure.
  std::shared_ptr<SpiderSession> session_ptr = *session;
  ReportJsonContext context;
  context.backend =
      session_ptr->catalog().out_of_core() ? "disk" : "memory";
  context.tables = static_cast<int64_t>(session_ptr->catalog().table_count());
  context.attributes =
      static_cast<int64_t>(session_ptr->catalog().attribute_count());

  // Build the label before Submit: the lambda capture moves `options`, and
  // function arguments are unsequenced relative to each other.
  const std::string label = "profile " + options->approach;
  auto id = jobs_->Submit(
      workspace->string, label,
      [session_ptr, options = std::move(options).value(),
       context](const JobControl& control) mutable -> Result<std::string> {
        options.cancel = control.cancel;
        options.progress = control.progress;
        SPIDER_ASSIGN_OR_RETURN(SessionReport report,
                                session_ptr->Run(options));
        ReportJsonContext run_context = context;
        run_context.cancelled =
            control.cancel != nullptr && control.cancel->cancelled();
        return SessionReportToJson(report, run_context);
      });
  if (!id.ok()) return FromStatus(id.status());

  JsonWriter json;
  json.BeginObject();
  json.KV("id", *id);
  json.KV("state", std::string(JobStateName(JobState::kQueued)));
  json.EndObject();
  return JsonOk(json.str(), 202);
}

HttpResponse RequestRouter::SubmitImport(const JsonValue& body) const {
  // An import takes these members and no other: a typo is a 400 that names
  // it, as it is in a profile body, never a member silently left at its
  // default.
  static const char* const kMembers[] = {"op", "workspace", "source",
                                         "append"};
  for (const auto& member : body.members) {
    if (std::find(std::begin(kMembers), std::end(kMembers), member.first) ==
        std::end(kMembers)) {
      return JsonError(400, "import takes no member '" + member.first +
                                "' (expected op, workspace, source or "
                                "append)");
    }
  }
  const JsonValue* workspace = body.Find("workspace");
  if (workspace == nullptr || !workspace->is_string() ||
      !WorkspaceCache::ValidName(workspace->string)) {
    return JsonError(400, "'workspace' (a valid workspace name) is required");
  }
  const JsonValue* source = body.Find("source");
  if (source == nullptr || !source->is_string()) {
    return JsonError(400,
                     "'source' (a server-local CSV directory) is required");
  }
  const std::string name = workspace->string;
  const std::filesystem::path target = workspaces_->WorkspacePath(name);
  bool append = false;
  if (const JsonValue* append_value = body.Find("append")) {
    if (!append_value->is_bool()) {
      return JsonError(400, "'append' must be a boolean");
    }
    append = append_value->boolean;
  }
  if (append) {
    if (!IsDiskCatalogDir(target)) {
      return FromStatus(Status::NotFound(
          "workspace '" + name + "' does not exist (append needs one)"));
    }
  } else if (IsDiskCatalogDir(target)) {
    return FromStatus(
        Status::AlreadyExists("workspace '" + name +
                              "' already exists (use \"append\": true to "
                              "add rows)"));
  }
  const std::string csv_dir = source->string;

  // The cache notices the commit on its own: the next request for this
  // workspace sees a new manifest and reopens the grown catalog.
  auto id = jobs_->Submit(
      name, (append ? "append " : "import ") + csv_dir,
      [name, target, csv_dir,
       append](const JobControl&) -> Result<std::string> {
        // The writer encodes on the job's own thread: the daemon runs its
        // jobs side by side on its pool.
        DiskStoreOptions options;
        options.threads = 1;
        std::unique_ptr<DiskCatalogWriter> writer;
        if (append) {
          SPIDER_ASSIGN_OR_RETURN(
              writer, DiskCatalogWriter::OpenForAppend(target, options));
        } else {
          SPIDER_ASSIGN_OR_RETURN(
              writer, DiskCatalogWriter::Create(target, name, options));
        }
        SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                                ImportCsvDirectory(csv_dir, CsvOptions{},
                                                   *writer));
        JsonWriter json;
        json.BeginObject();
        json.KV("schema_version", kReportSchemaVersion);
        json.KV("op", std::string(append ? "append" : "import"));
        json.KV("workspace", name);
        json.KV("tables", static_cast<int64_t>(catalog->table_count()));
        json.KV("attributes",
                static_cast<int64_t>(catalog->attribute_count()));
        json.EndObject();
        return json.str();
      });
  if (!id.ok()) return FromStatus(id.status());

  JsonWriter json;
  json.BeginObject();
  json.KV("id", *id);
  json.KV("state", std::string(JobStateName(JobState::kQueued)));
  json.EndObject();
  return JsonOk(json.str(), 202);
}

HttpResponse RequestRouter::HandleJobItem(const HttpRequest& request) const {
  std::string_view rest = std::string_view(request.path).substr(6);
  bool want_report = false;
  const size_t slash = rest.find('/');
  if (slash != std::string_view::npos) {
    if (rest.substr(slash + 1) != "report") {
      return JsonError(404, "no such endpoint: " + request.path);
    }
    want_report = true;
    rest = rest.substr(0, slash);
  }
  const std::optional<int64_t> id = ParseJobId(rest);
  if (!id.has_value()) {
    return JsonError(400, "invalid job id '" + std::string(rest) + "'");
  }

  if (request.method == "DELETE") {
    if (want_report) return JsonError(405, "method not allowed");
    if (!jobs_->Cancel(*id)) {
      return JsonError(404, "no such job: " + std::to_string(*id));
    }
    JsonWriter json;
    json.BeginObject();
    json.KV("id", *id);
    json.KV("cancelled", true);
    json.EndObject();
    return JsonOk(json.str());
  }
  if (request.method != "GET") return JsonError(405, "method not allowed");

  const std::optional<JobSnapshot> job = jobs_->Get(*id);
  if (!job.has_value()) {
    return JsonError(404, "no such job: " + std::to_string(*id));
  }
  if (want_report) {
    if (job->state == JobState::kFailed) {
      return JsonError(500, job->error);
    }
    if (job->report_json.empty()) {
      return JsonError(409, "job " + std::to_string(*id) +
                                " has no report yet (state: " +
                                std::string(JobStateName(job->state)) + ")");
    }
    // Verbatim: the exact document SessionReportToJson produced, so diffing
    // it against `spider profile --json` output is a byte comparison.
    return JsonOk(job->report_json);
  }
  JsonWriter json;
  WriteJobSnapshot(*job, json);
  return JsonOk(json.str());
}

}  // namespace spider
