// The one JSON rendering of a SessionReport, shared by every front-end.
//
// `spider profile --json` and spiderd's job-result endpoint must never
// drift: both call SessionReportToJson and emit its document verbatim, so
// the same report serializes to the same bytes regardless of transport.
// The document carries an explicit schema_version; additive changes (new
// keys) keep the version, renames/removals/type changes bump it — clients
// are expected to ignore keys they don't know (docs/SERVER.md spells out
// the policy).

#pragma once

#include <cstdint>
#include <string>

#include "src/ind/session.h"

namespace spider {

/// Version of the report document layout. Bump on any non-additive change
/// (history in docs/SERVER.md).
inline constexpr int64_t kReportSchemaVersion = 2;

/// What the serializer knows about the run but the SessionReport doesn't:
/// catalog shape and how the run ended.
struct ReportJsonContext {
  /// "memory" or "disk" (Catalog::out_of_core()).
  std::string backend = "memory";
  int64_t tables = 0;
  int64_t attributes = 0;
  /// True when a cancellation token fired (SIGINT on the CLI, DELETE
  /// /jobs/<id> or daemon shutdown on the server). finished=false plus
  /// cancelled=false means the time budget expired instead.
  bool cancelled = false;
};

/// Serializes a report to the canonical single-line JSON document. Handles
/// all report shapes: unary IND runs, n-ary expansions (the nary_* keys
/// appear) and UCC/FD/AFD discovery (uccs / fds arrays). `finished: false`
/// marks a partial run — every listed dependency is confirmed, the sweep
/// was cut short.
std::string SessionReportToJson(const SessionReport& report,
                                const ReportJsonContext& context);

/// Serializes the registry's capability listing — the `spider approaches
/// --json` document and spiderd's GET /approaches body, which the docs
/// capability matrix is generated from (tools/gen_capability_docs.sh).
std::string ApproachesToJson();

}  // namespace spider
