#include "src/ind/spider_merge.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/common/logging.h"
#include "src/common/tournament_tree.h"
#include "src/common/stopwatch.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/registry.h"

namespace spider {

namespace {

// A referenced cursor a dependent cursor's candidate is still open against,
// with the unmatched distinct dependent values so far (σ-partial mode
// tolerates a budget of them).
struct OpenRef {
  int cursor;
  int64_t misses;
};

// Per-attribute state in the merge.
struct AttributeCursor {
  AttributeId attr;
  std::unique_ptr<SortedSetReader> reader;
  // The cursor's current value: a zero-copy view into the reader's block
  // buffer, refreshed on every advance. Heap comparisons read this field
  // directly instead of calling into the reader.
  std::string_view current;
  // Candidate bookkeeping: this ⊆ r still open for each entry's cursor r,
  // sorted by cursor index.
  std::vector<OpenRef> open_refs;
  int ref_use_count = 0;     // number of deps whose open_refs contains this
  int64_t distinct_count = 0;  // |s(this)|, from extraction
  int64_t allowed_misses = 0;  // derived from distinct_count and sigma
  bool exhausted = false;
  bool closed = false;       // stream dropped (no live candidate needs it)
  // This cursor's slot in the dependent-frontier multiset while it is
  // dep-active and carries a value (see dep_currents in Run).
  std::optional<std::multiset<std::string_view>::iterator> dep_entry;
  // The last merge group this cursor was popped in (see Run).
  int64_t group_stamp = -1;

  bool dep_active() const { return !open_refs.empty(); }
  bool needed() const { return dep_active() || ref_use_count > 0; }
};

}  // namespace

SpiderMergeAlgorithm::SpiderMergeAlgorithm(const AlgorithmConfig& config)
    : config_(config) {
  SPIDER_CHECK(config_.extractor != nullptr)
      << "spider-merge requires a value-set extractor";
  SPIDER_CHECK_GE(config_.min_coverage, 0.0);
  SPIDER_CHECK_LE(config_.min_coverage, 1.0);
}

Result<IdRunResult> SpiderMergeAlgorithm::Run(
    const Catalog& catalog, const std::vector<AttributeRef>& attributes,
    const std::vector<AttributePair>& candidates, RunContext& context) {
  IdRunResult result;
  Stopwatch watch;
  watch.Start();
  context.Begin(static_cast<int64_t>(candidates.size()));

  // One cursor per distinct attribute, numbered in order of first
  // appearance in the candidate list. The numbering breaks ties between
  // equal values in the tree, which decides how far a reference cursor
  // gallops within a group, so it is part of the counters.
  std::vector<int> cursor_of(attributes.size(), -1);
  std::vector<AttributeCursor> cursors;
  auto cursor_for = [&](AttributeId attr) -> Result<int> {
    if (cursor_of[attr] >= 0) return cursor_of[attr];
    SPIDER_ASSIGN_OR_RETURN(
        SortedSetInfo info,
        config_.extractor->Extract(catalog, attributes[attr]));
    SortedSetReaderOptions reader_options;
    reader_options.allow_block_skip = config_.block_skip;
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<SortedSetReader> reader,
        SortedSetReader::Open(info.path, &result.counters, reader_options));
    AttributeCursor cursor;
    cursor.attr = attr;
    cursor.reader = std::move(reader);
    cursor.distinct_count = info.distinct_count;
    cursor_of[attr] = static_cast<int>(cursors.size());
    cursors.push_back(std::move(cursor));
    return cursor_of[attr];
  };

  for (const AttributePair& candidate : candidates) {
    SPIDER_ASSIGN_OR_RETURN(int dep, cursor_for(candidate.dependent));
    SPIDER_ASSIGN_OR_RETURN(int ref, cursor_for(candidate.referenced));
    cursors[static_cast<size_t>(dep)].open_refs.push_back(OpenRef{ref, 0});
  }
  // Each dependent's references sorted by cursor, duplicate candidates
  // dropped.
  for (AttributeCursor& cursor : cursors) {
    std::vector<OpenRef>& refs = cursor.open_refs;
    std::sort(refs.begin(), refs.end(), [](const OpenRef& a, const OpenRef& b) {
      return a.cursor < b.cursor;
    });
    refs.erase(std::unique(refs.begin(), refs.end(),
                           [](const OpenRef& a, const OpenRef& b) {
                             return a.cursor == b.cursor;
                           }),
               refs.end());
    result.counters.candidates_tested += static_cast<int64_t>(refs.size());
  }
  for (const AttributeCursor& cursor : cursors) {
    for (const OpenRef& open : cursor.open_refs) {
      ++cursors[static_cast<size_t>(open.cursor)].ref_use_count;
    }
  }
  // σ-partial budgets: each dependent tolerates
  // |s(d)| - ceil(sigma * |s(d)|) unmatched distinct values.
  for (AttributeCursor& cursor : cursors) {
    const double sigma = config_.min_coverage;
    cursor.allowed_misses =
        cursor.distinct_count -
        static_cast<int64_t>(
            std::ceil(sigma * static_cast<double>(cursor.distinct_count)));
  }
  if (result.counters.peak_open_files <
      static_cast<int64_t>(cursors.size())) {
    result.counters.peak_open_files = static_cast<int64_t>(cursors.size());
  }

  // The dependent frontier: the current value of every dep-active cursor
  // that still carries one, ordered like the merge. Its minimum is a sound
  // galloping target for any pure-reference cursor — values below it can
  // never match a current or future dependent value (dependents advance
  // monotonically), so the reference may SkipToAtLeast it, hopping whole
  // zonemap blocks on block-indexed files. Entries are views into reader
  // buffers; each is erased before its cursor advances (see the advance
  // loop), so the multiset never holds a dangling view.
  std::multiset<std::string_view> dep_currents;

  // Satisfies every open candidate of dependent cursor `d`.
  auto satisfy_all = [&](int d) {
    AttributeCursor& dep = cursors[static_cast<size_t>(d)];
    for (const OpenRef& open : dep.open_refs) {
      AttributeCursor& ref = cursors[static_cast<size_t>(open.cursor)];
      result.satisfied.push_back(AttributePair{dep.attr, ref.attr});
      --ref.ref_use_count;
      context.Step();
    }
    dep.open_refs.clear();
  };

  // Cursor-index tournament tree: entries are cursor ids ordered by the
  // cursor's current value with the cursor id as tie-break, so equal
  // values pop in ascending cursor order. A view stays valid until its
  // cursor advances, and a cursor only advances after it leaves the tree,
  // so comparisons never see a dangling view. The tree replays one leaf-to-root path per
  // operation (⌈log2 k⌉ comparisons), versus the former binary heap's
  // two-comparisons-per-level sift.
  auto heap_less = [&cursors](int a, int b) {
    const std::string_view va = cursors[static_cast<size_t>(a)].current;
    const std::string_view vb = cursors[static_cast<size_t>(b)].current;
    if (va != vb) return va < vb;
    return a < b;
  };
  TournamentTree<decltype(heap_less)> heap(
      static_cast<int>(cursors.size()), heap_less);

  // Prime the tree with each attribute's cursor. An empty dependent set
  // satisfies all its candidates vacuously — but only after ruling out an
  // I/O error: a corrupt first record also makes HasNext() false, and must
  // fail the run rather than fabricate INDs.
  for (size_t i = 0; i < cursors.size(); ++i) {
    AttributeCursor& cursor = cursors[i];
    if (cursor.reader->HasNext()) {
      cursor.current = cursor.reader->Peek();
      if (cursor.dep_active()) {
        cursor.dep_entry = dep_currents.insert(cursor.current);
      }
      heap.Push(static_cast<int>(i));
    } else {
      SPIDER_RETURN_NOT_OK(cursor.reader->status());
      cursor.exhausted = true;
      satisfy_all(static_cast<int>(i));
    }
  }

  // Merge loop: pop one group of equal values per iteration. Budget and
  // cancellation are polled once per kStopPollInterval groups so the hot
  // loop stays free of clock reads.
  constexpr int64_t kStopPollInterval = 256;
  int64_t groups = 0;
  std::vector<int> group;
  while (!heap.empty()) {
    const int64_t stamp = groups++;
    if (stamp % kStopPollInterval == 0 && context.ShouldStop()) {
      result.finished = false;
      break;
    }
    group.clear();
    group.push_back(heap.top());
    heap.Pop();
    // The group value lives in the first popped cursor's buffer; that
    // cursor does not advance until the group is processed, so the view is
    // stable for the whole iteration.
    const std::string_view value =
        cursors[static_cast<size_t>(group.front())].current;
    while (!heap.empty() &&
           cursors[static_cast<size_t>(heap.top())].current == value) {
      group.push_back(heap.top());
      heap.Pop();
    }
    // Stamping the members makes "r holds the value" one load per open
    // reference, however large the group.
    for (int index : group) {
      cursors[static_cast<size_t>(index)].group_stamp = stamp;
    }
    result.counters.comparisons += static_cast<int64_t>(group.size());

    // Charge a miss to candidates whose referenced attribute lacks this
    // value; refute those whose σ-budget is exhausted. The survivors are
    // compacted in place and stay sorted.
    for (int d : group) {
      AttributeCursor& dep = cursors[static_cast<size_t>(d)];
      if (!dep.dep_active()) continue;
      size_t kept = 0;
      for (OpenRef& open : dep.open_refs) {
        AttributeCursor& ref = cursors[static_cast<size_t>(open.cursor)];
        if (ref.group_stamp == stamp || ++open.misses <= dep.allowed_misses) {
          dep.open_refs[kept++] = open;
        } else {
          --ref.ref_use_count;
          context.Step();
        }
      }
      dep.open_refs.resize(kept);
    }

    // Advance group members; drop streams nobody needs any more. The group
    // value is consumed (counted as read) before the needed() check so the
    // tuples_read totals match the value-copying implementation, which
    // counted every value entering the heap.
    for (int index : group) {
      AttributeCursor& cursor = cursors[static_cast<size_t>(index)];
      // The frontier entry views the value about to be consumed; remove it
      // before the advance invalidates the view (re-inserted below).
      if (cursor.dep_entry) {
        dep_currents.erase(*cursor.dep_entry);
        cursor.dep_entry.reset();
      }
      cursor.reader->Skip();
      if (!cursor.needed()) {
        cursor.closed = true;
        // Dropped streams release their file handle and read buffer — on
        // paper-scale schemas thousands of streams close long before the
        // merge ends.
        cursor.reader.reset();
        cursor.current = std::string_view();
        continue;
      }
      if (config_.block_skip && !cursor.dep_active() &&
          !dep_currents.empty()) {
        // Pure reference stream: gallop to the dependent frontier. Deps
        // from this group that have not advanced yet still hold the group
        // value, making the target conservative (never beyond a value a
        // dependent could still need).
        cursor.reader->SkipToAtLeast(*dep_currents.begin());
      }
      if (cursor.reader->HasNext()) {
        cursor.current = cursor.reader->Peek();
        if (cursor.dep_active()) {
          cursor.dep_entry = dep_currents.insert(cursor.current);
        }
        heap.Push(index);
      } else {
        // Distinguish clean exhaustion from a read error before concluding
        // that every surviving referenced attribute contained all values.
        SPIDER_RETURN_NOT_OK(cursor.reader->status());
        cursor.exhausted = true;
        cursor.reader.reset();
        cursor.current = std::string_view();
        satisfy_all(index);
      }
    }
  }

  // Consistency: once the heap drains every candidate must be decided —
  // an exhausted dependent satisfied its survivors, a refuted candidate
  // was removed at the refuting value, and `needed()` forbids dropping a
  // stream that still carries candidates. (Not applicable after an early
  // stop, which legitimately leaves candidates undecided.)
  if (result.finished) {
    for (const AttributeCursor& cursor : cursors) {
      SPIDER_CHECK(cursor.open_refs.empty())
          << "spider-merge left an undecided candidate for "
          << attributes[cursor.attr].ToString();
    }
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterSpiderMergeAlgorithm(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.supports_partial = true;
  capabilities.summary =
      "heap-merged single pass (the paper's announced improvement); "
      "verifies sigma-partial INDs in the same scan";
  Status status = registry.Register(
      "spider-merge", capabilities, [](const AlgorithmConfig& config) {
        return std::make_unique<SpiderMergeAlgorithm>(config);
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
