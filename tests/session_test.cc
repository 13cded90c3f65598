#include "src/ind/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/datagen/uniprot_like.h"
#include "src/ind/report_json.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// A small catalog with one true FK-style inclusion and one decoy.
void FillCatalog(Catalog* catalog) {
  testing::AddStringColumn(catalog, "child", "fk", {"a", "b", "a", "b"});
  testing::AddStringColumn(catalog, "parent", "pk", {"a", "b", "c"}, true);
  testing::AddStringColumn(catalog, "decoy", "pk", {"x", "y", "z"}, true);
}

TEST(SessionTest, SweepOverAllApproachesFindsIdenticalInds) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  std::set<Ind> reference;
  bool first = true;
  for (const std::string& name : testing::UnaryApproachNames()) {
    RunOptions options;
    options.approach = name;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    EXPECT_EQ(report->approach, name);
    EXPECT_TRUE(report->run.finished) << name;
    auto found = testing::ToSet(report->run.satisfied);
    if (first) {
      reference = found;
      first = false;
      EXPECT_TRUE(reference.contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
    } else {
      EXPECT_EQ(found, reference) << name;
    }
  }
}

TEST(SessionTest, ExtractorCacheIsSharedAcrossRuns) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  RunOptions options;
  options.approach = "brute-force";
  auto one = session.Run(options);
  ASSERT_TRUE(one.ok());
  EXPECT_GT(one->run.counters.files_opened, 0);

  // The first run materialized the sorted sets into the session's cache.
  auto extractor = session.extractor();
  ASSERT_TRUE(extractor.ok());
  EXPECT_TRUE((*extractor)->Lookup(AttributeRef{"child", "fk"}).ok());

  // A second run (even with a different approach) reuses them.
  options.approach = "spider-merge";
  auto two = session.Run(options);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(testing::ToSet(one->run.satisfied),
            testing::ToSet(two->run.satisfied));
}

TEST(SessionTest, OwnedCatalogConstructor) {
  auto catalog = std::make_unique<Catalog>("owned");
  FillCatalog(catalog.get());
  SpiderSession session(std::move(catalog));
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(testing::ToSet(report->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, UnknownApproachFailsBeforeAnyWork) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "definitely-not-registered";
  auto report = session.Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST(SessionTest, SigmaRequiresPartialCapableApproach) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  RunOptions options;
  options.approach = "brute-force";
  options.min_coverage = 0.8;
  auto rejected = session.Run(options);
  EXPECT_FALSE(rejected.ok());

  options.approach = "spider-merge";
  auto accepted = session.Run(options);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  // σ-partial is a superset of the exact result.
  EXPECT_TRUE(testing::ToSet(accepted->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, TimeBudgetTerminatesBruteForceEarly) {
  // A generated dataset with enough candidates that a microscopic budget
  // expires mid-run: finished == false, satisfied is a partial subset.
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions unbounded;
  unbounded.approach = "brute-force";
  auto full = session.Run(unbounded);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->run.finished);
  ASSERT_FALSE(full->run.satisfied.empty());

  RunOptions bounded = unbounded;
  bounded.time_budget_seconds = 1e-9;
  auto partial = session.Run(bounded);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->run.finished);
  EXPECT_LT(partial->run.satisfied.size(), full->run.satisfied.size());
  // Whatever was confirmed before the budget expired is genuine.
  auto full_set = testing::ToSet(full->run.satisfied);
  for (const Ind& ind : partial->run.satisfied) {
    EXPECT_TRUE(full_set.contains(ind)) << ind.ToString();
  }
}

TEST(SessionTest, TimeBudgetBoundsEveryExternalApproach) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());

  for (const char* name :
       {"brute-force", "single-pass", "spider-merge", "de-marchi",
        "bell-brockhausen"}) {
    SpiderSession session(**catalog);
    RunOptions options;
    options.approach = name;
    options.time_budget_seconds = 1e-9;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_FALSE(report->run.finished) << name;
  }
}

TEST(SessionTest, CancellationStopsTheRun) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  CancellationToken token;
  token.Cancel();  // pre-cancelled: the run must stop at the first poll
  RunOptions options;
  options.approach = "brute-force";
  options.cancel = &token;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
  EXPECT_TRUE(report->run.satisfied.empty());
}

TEST(SessionTest, ProgressCallbackSeesEveryCandidate) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  int64_t calls = 0;
  int64_t last_done = 0;
  int64_t reported_total = -1;
  RunOptions options;
  options.approach = "brute-force";
  options.progress = [&](const RunProgress& progress) {
    ++calls;
    last_done = progress.done;
    reported_total = progress.total;
  };
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  const int64_t candidates =
      static_cast<int64_t>(report->candidates.candidates.size());
  ASSERT_GT(candidates, 0);
  EXPECT_EQ(calls, candidates);
  EXPECT_EQ(last_done, candidates);
  EXPECT_EQ(reported_total, candidates);
}

TEST(SessionTest, ReportToStringNamesTheApproach) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "sql-join";
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("sql-join"), std::string::npos);
}

// --- Coverage migrated from the deleted IndProfiler shim tests ----------

TEST(SessionTest, WorkDirOptionIsUsed) {
  Catalog catalog;
  FillCatalog(&catalog);
  auto dir = TempDir::Make("spider-session-work");
  ASSERT_TRUE(dir.ok());
  SessionOptions options;
  options.work_dir = (*dir)->path().string();
  SpiderSession session(catalog, options);
  ASSERT_TRUE(session.Run().ok());
  // Sorted sets were materialized into the provided directory.
  bool any_set_file = false;
  for (const auto& entry :
       std::filesystem::directory_iterator((*dir)->path())) {
    if (entry.path().extension() == ".set") any_set_file = true;
  }
  EXPECT_TRUE(any_set_file);
}

TEST(SessionTest, EmptyCatalog) {
  Catalog catalog;
  SpiderSession session(catalog);
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->run.satisfied.empty());
  EXPECT_EQ(report->candidates.raw_pair_count, 0);
}

TEST(SessionTest, MaxValuePretestReducesCandidates) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  auto baseline = session.Run();
  ASSERT_TRUE(baseline.ok());

  RunOptions pruned_options;
  pruned_options.generator.max_value_pretest = true;
  auto improved = session.Run(pruned_options);
  ASSERT_TRUE(improved.ok());
  EXPECT_LT(improved->candidates.candidates.size(),
            baseline->candidates.candidates.size());
  // Pruning must not lose INDs.
  EXPECT_EQ(testing::ToSet(improved->run.satisfied),
            testing::ToSet(baseline->run.satisfied));
}

// --- Partitioned parallel dispatch --------------------------------------

TEST(PartitionTest, DisjointCandidatesSplitIntoComponents) {
  std::vector<IndCandidate> candidates = {
      {{"a", "x"}, {"b", "x"}},  // component 1: {a.x, b.x}
      {{"c", "x"}, {"d", "x"}},  // component 2: {c.x, d.x}
      {{"b", "x"}, {"a", "x"}},  // component 1 again (shared attributes)
  };
  auto partitions = PartitionCandidatesByComponent(candidates);
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0].size(), 2u);  // both component-1 edges, input order
  EXPECT_EQ(partitions[0][0], candidates[0]);
  EXPECT_EQ(partitions[0][1], candidates[2]);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(partitions[1][0], candidates[1]);
}

TEST(PartitionTest, SplitForParallelismHalvesTheLargestPartition) {
  // One fully connected component of 32 candidates, one small one of 2.
  std::vector<IndCandidate> candidates;
  std::vector<std::vector<IndCandidate>> partitions(2);
  for (int i = 0; i < 32; ++i) {
    partitions[0].push_back(
        {{"t", "c" + std::to_string(i)}, {"t", "hub"}});
  }
  partitions[1].push_back({{"u", "a"}, {"u", "b"}});
  partitions[1].push_back({{"u", "b"}, {"u", "a"}});
  const std::vector<std::vector<IndCandidate>> original = partitions;

  auto split = SplitPartitionsForParallelism(std::move(partitions), 4);
  ASSERT_EQ(split.size(), 4u);
  // 32 → 16+16, then the first 16 (earliest tie) → 8+8.
  EXPECT_EQ(split[0].size(), 8u);
  EXPECT_EQ(split[1].size(), 8u);
  EXPECT_EQ(split[2].size(), 16u);
  EXPECT_EQ(split[3].size(), 2u);
  // Concatenating the splits reproduces the input candidate order.
  std::vector<IndCandidate> flattened;
  for (const auto& partition : split) {
    flattened.insert(flattened.end(), partition.begin(), partition.end());
  }
  std::vector<IndCandidate> expected = original[0];
  expected.insert(expected.end(), original[1].begin(), original[1].end());
  EXPECT_EQ(flattened, expected);
}

TEST(PartitionTest, SplitForParallelismLeavesSmallPartitionsAlone) {
  // Below 2 × kMinSplitPartition nothing splits: duplicated
  // referenced-side reads would outweigh the parallelism.
  std::vector<std::vector<IndCandidate>> partitions(1);
  for (size_t i = 0; i < 2 * kMinSplitPartition - 1; ++i) {
    partitions[0].push_back(
        {{"t", "c" + std::to_string(i)}, {"t", "hub"}});
  }
  auto split = SplitPartitionsForParallelism(std::move(partitions), 8);
  EXPECT_EQ(split.size(), 1u);
}

TEST(PartitionTest, ChainedAttributesStayInOnePartition) {
  // a ⊆ b, b ⊆ c: one transitive component even though no candidate names
  // both a and c.
  std::vector<IndCandidate> candidates = {
      {{"t", "a"}, {"t", "b"}},
      {{"t", "b"}, {"t", "c"}},
  };
  auto partitions = PartitionCandidatesByComponent(candidates);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].size(), 2u);
}

// The by-name partitioners are the id ones with names attached: the same
// partitions and splits, in the same order, however the ids are assigned
// (first appearance, as the adapters intern them, or a shuffled table
// standing in for the generator's catalog order).
TEST(PartitionTest, NamedPartitionsAreTheIdPartitionsNamed) {
  Random rng(1485);
  for (int round = 0; round < 30; ++round) {
    const int64_t attribute_count = rng.Uniform(1, 30);
    const int64_t count = rng.Uniform(0, 200);
    std::vector<IndCandidate> candidates;
    candidates.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      candidates.push_back(
          {{"t", "c" + std::to_string(rng.Uniform(0, attribute_count - 1))},
           {"t", "c" + std::to_string(rng.Uniform(0, attribute_count - 1))}});
    }
    const InternedCandidates interned = InternCandidates(candidates);
    std::vector<AttributeId> shuffled(interned.attributes.size());
    std::iota(shuffled.begin(), shuffled.end(), AttributeId{0});
    rng.Shuffle(&shuffled);
    std::vector<AttributeRef> table(interned.attributes.size());
    for (size_t id = 0; id < shuffled.size(); ++id) {
      table[shuffled[id]] = interned.attributes[id];
    }
    std::vector<AttributePair> pairs;
    pairs.reserve(interned.pairs.size());
    for (const AttributePair& pair : interned.pairs) {
      pairs.push_back({shuffled[pair.dependent], shuffled[pair.referenced]});
    }

    const auto by_name = PartitionCandidatesByComponent(candidates);
    const auto by_id = PartitionCandidatesByComponent(table.size(), pairs);
    ASSERT_EQ(by_id.size(), by_name.size()) << "round " << round;
    for (size_t i = 0; i < by_id.size(); ++i) {
      EXPECT_EQ(NamePairs<IndCandidate>(table, by_id[i]), by_name[i])
          << "round " << round << " partition " << i;
    }
    for (size_t target : {2, 4, 8}) {
      const auto split_by_name = SplitPartitionsForParallelism(by_name, target);
      const auto split_by_id = SplitPartitionsForParallelism(by_id, target);
      ASSERT_EQ(split_by_id.size(), split_by_name.size());
      for (size_t i = 0; i < split_by_id.size(); ++i) {
        EXPECT_EQ(NamePairs<IndCandidate>(table, split_by_id[i]),
                  split_by_name[i])
            << "round " << round << " target " << target;
      }
    }
  }
}

// A catalog of `clusters` disjoint FK clusters whose value ranges do not
// overlap, so the min/max-value pretests prune every cross-cluster
// candidate and the attribute graph decomposes into `clusters` components.
void FillClusteredCatalog(Catalog* catalog, int clusters) {
  for (int k = 0; k < clusters; ++k) {
    const std::string prefix(1, static_cast<char>('a' + k));
    const std::string suffix = std::to_string(k);
    testing::AddStringColumn(catalog, "child" + suffix, "fk",
                             {prefix + "1", prefix + "2", prefix + "1"});
    testing::AddStringColumn(
        catalog, "parent" + suffix, "pk",
        {prefix + "1", prefix + "2", prefix + "3"}, true);
  }
}

TEST(SessionTest, ParallelRunMatchesSerialForEveryApproach) {
  // The acceptance bar for the parallel dispatcher: threads=N returns a
  // byte-identical (sorted) satisfied set for every registered approach,
  // with the candidate set genuinely split across partitions.
  Catalog catalog;
  FillClusteredCatalog(&catalog, 6);
  SpiderSession session(catalog);

  for (const std::string& name : testing::UnaryApproachNames()) {
    RunOptions serial;
    serial.approach = name;
    serial.generator.max_value_pretest = true;
    serial.generator.min_value_pretest = true;
    serial.threads = 1;
    auto serial_report = session.Run(serial);
    ASSERT_TRUE(serial_report.ok()) << name;
    EXPECT_EQ(serial_report->run.satisfied.size(), 6u) << name;

    RunOptions parallel = serial;
    parallel.threads = 4;
    auto parallel_report = session.Run(parallel);
    ASSERT_TRUE(parallel_report.ok()) << name;

    EXPECT_EQ(parallel_report->partitions, 6) << name;
    EXPECT_EQ(parallel_report->threads_used, 4) << name;
    EXPECT_EQ(parallel_report->run.satisfied, serial_report->run.satisfied)
        << name;  // vector equality: same INDs in the same (sorted) order
    EXPECT_EQ(parallel_report->run.counters.tuples_read,
              serial_report->run.counters.tuples_read)
        << name;
  }

  // The dispatcher also runs (and stays correct) when everything is one
  // component — the uniprot-like schema is fully connected.
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto uniprot = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(uniprot.ok());
  SpiderSession connected(**uniprot);
  RunOptions serial;
  auto serial_report = connected.Run(serial);
  ASSERT_TRUE(serial_report.ok());
  RunOptions parallel = serial;
  parallel.threads = 4;
  auto parallel_report = connected.Run(parallel);
  ASSERT_TRUE(parallel_report.ok());
  EXPECT_EQ(parallel_report->run.satisfied, serial_report->run.satisfied);
  // The single component is split so --threads=4 actually engages more
  // than one worker (the candidate set is large enough to halve).
  EXPECT_GT(parallel_report->partitions, 1);
}

TEST(SessionTest, ThreadsZeroResolvesToHardwareConcurrency) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.threads = 0;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->threads_used, 1);
  EXPECT_TRUE(testing::ToSet(report->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, SatisfiedSetIsSortedForAnyThreadCount) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  for (int threads : {1, 3}) {
    RunOptions options;
    options.threads = threads;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(std::is_sorted(report->run.satisfied.begin(),
                               report->run.satisfied.end()))
        << "threads=" << threads;
  }
}

TEST(SessionTest, ParallelCancellationStopsEveryPartition) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  CancellationToken token;
  token.Cancel();  // pre-cancelled: every partition stops at its first poll
  RunOptions options;
  options.cancel = &token;
  options.threads = 4;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
  EXPECT_TRUE(report->run.satisfied.empty());
}

TEST(SessionTest, ParallelProgressAggregatesAcrossPartitions) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> max_done{0};
  RunOptions options;
  options.approach = "brute-force";
  options.threads = 4;
  options.progress = [&](const RunProgress& progress) {
    ++calls;
    int64_t expected = max_done.load();
    while (progress.done > expected &&
           !max_done.compare_exchange_weak(expected, progress.done)) {
    }
  };
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  const int64_t candidates =
      static_cast<int64_t>(report->candidates.candidates.size());
  ASSERT_GT(candidates, 0);
  // Brute force steps once per candidate; the aggregated counter must reach
  // the full candidate count across all partitions.
  EXPECT_EQ(calls.load(), candidates);
  EXPECT_EQ(max_done.load(), candidates);
}

TEST(SessionTest, ParallelTimeBudgetReturnsPartialResult) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions options;
  options.threads = 4;
  options.time_budget_seconds = 1e-9;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
}

// --- One driver, every family --------------------------------------------

struct BudgetCase {
  const char* approach;
  int threads;
};

void PrintTo(const BudgetCase& c, std::ostream* os) {
  *os << c.approach << "@" << c.threads;
}

class SessionBudgetTest : public ::testing::TestWithParam<BudgetCase> {};

// The budget is wall clock from Run() entry, so a microscopic one expires
// before the first algorithm starts: every family must still return a
// report, marked unfinished, holding only confirmed dependencies.
TEST_P(SessionBudgetTest, ExpiredBudgetReturnsOnlyConfirmedResults) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions options;
  options.approach = GetParam().approach;
  options.threads = GetParam().threads;
  auto full = session.Run(options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  options.time_budget_seconds = 1e-9;
  auto bounded = session.Run(options);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();

  if (bounded->kind == DependencyKind::kInd) {
    ASSERT_TRUE(full->run.finished);
    EXPECT_FALSE(bounded->run.finished);
    const std::set<Ind> confirmed = testing::ToSet(full->run.satisfied);
    for (const Ind& ind : bounded->run.satisfied) {
      EXPECT_TRUE(confirmed.contains(ind)) << ind.ToString();
    }
    if (bounded->nary) {
      // The expansion never starts on an incomplete unary set.
      ASSERT_TRUE(full->nary_run.finished);
      EXPECT_FALSE(bounded->nary_run.finished);
      EXPECT_TRUE(bounded->nary_run.satisfied.empty());
    }
  } else {
    ASSERT_TRUE(full->dependency.finished);
    EXPECT_FALSE(bounded->dependency.finished);
    for (const Ucc& ucc : bounded->dependency.uccs) {
      EXPECT_NE(std::find(full->dependency.uccs.begin(),
                          full->dependency.uccs.end(), ucc),
                full->dependency.uccs.end())
          << ucc.ToString();
    }
    for (const Fd& fd : bounded->dependency.fds) {
      EXPECT_NE(std::find(full->dependency.fds.begin(),
                          full->dependency.fds.end(), fd),
                full->dependency.fds.end())
          << fd.ToString();
    }
  }
  const std::string json = SessionReportToJson(*bounded, ReportJsonContext{});
  EXPECT_NE(json.find("\"budget_expired\":true"), std::string::npos) << json;
}

INSTANTIATE_TEST_SUITE_P(
    OnePerFamily, SessionBudgetTest,
    ::testing::Values(BudgetCase{"spider-merge", 1},
                      BudgetCase{"spider-merge", 4}, BudgetCase{"nary", 1},
                      BudgetCase{"ucc-levelwise", 1},
                      BudgetCase{"fd-levelwise", 1}));

// parent(p0..p5) / child(c0..c5): child rows copy parent rows, except
// that c1 takes another in-domain value in one row — every unary IND
// c_i ⊆ p_i holds, the wide pairings through c1 do not. Every batched
// discoverer has validations left after its first one here.
void FillWideCatalog(Catalog* catalog, std::vector<Ind>* unary) {
  Table* parent = *catalog->CreateTable("parent");
  Table* child = *catalog->CreateTable("child");
  const int cols = 6;
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(
        parent->AddColumn("p" + std::to_string(c), TypeId::kString).ok());
    ASSERT_TRUE(
        child->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
    unary->push_back(Ind{{"child", "c" + std::to_string(c)},
                         {"parent", "p" + std::to_string(c)}});
  }
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(c) + "_" +
                                  std::to_string(i)));
    }
    ASSERT_TRUE(parent->AppendRow(row).ok());
    if (i < 8) {
      if (i == 2) row[1] = Value::String("v1_9");
      ASSERT_TRUE(child->AppendRow(std::move(row)).ok());
    }
  }
}

class StopMidRunTest : public ::testing::TestWithParam<BudgetCase> {};

// Cancelling from the first progress step stops each batched discoverer
// inside its own run (the batch driver's poll or the strategy's inner
// one): the run returns OK, unfinished, with confirmed dependencies only.
TEST_P(StopMidRunTest, CancelAfterFirstStepKeepsOnlyConfirmedResults) {
  Catalog catalog;
  std::vector<Ind> unary;
  FillWideCatalog(&catalog, &unary);
  auto dir = TempDir::Make("spider-stop-mid-run");
  ASSERT_TRUE(dir.ok());
  ValueSetExtractor extractor((*dir)->path());
  std::unique_ptr<ThreadPool> pool;
  AlgorithmConfig config;
  config.extractor = &extractor;
  if (GetParam().threads > 1) {
    pool = std::make_unique<ThreadPool>(GetParam().threads);
    config.pool = pool.get();
  }
  CancellationToken token;
  RunContext bounded;
  bounded.cancel = &token;
  bounded.progress = [&token](const RunProgress&) { token.Cancel(); };

  const std::string approach = GetParam().approach;
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  auto entry = registry.Find(approach);
  ASSERT_TRUE(entry.ok());
  if ((*entry)->capabilities.nary) {
    auto algorithm = registry.Create<NaryAlgorithm>(approach, config);
    ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
    auto full = (*algorithm)->Run(catalog, unary);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full->finished);
    auto partial = (*algorithm)->Run(catalog, unary, bounded);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_FALSE(partial->finished);
    const std::set<NaryInd> confirmed(full->satisfied.begin(),
                                      full->satisfied.end());
    for (const NaryInd& ind : partial->satisfied) {
      EXPECT_TRUE(confirmed.contains(ind)) << ind.ToString();
    }
  } else {
    auto algorithm = registry.Create<DependencyAlgorithm>(approach, config);
    ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
    auto full = (*algorithm)->Run(catalog);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full->finished);
    auto partial = (*algorithm)->Run(catalog, bounded);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_FALSE(partial->finished);
    const std::set<Ucc> uccs(full->uccs.begin(), full->uccs.end());
    for (const Ucc& ucc : partial->uccs) {
      EXPECT_TRUE(uccs.contains(ucc)) << ucc.ToString();
    }
    const std::set<Fd> fds(full->fds.begin(), full->fds.end());
    for (const Fd& fd : partial->fds) {
      EXPECT_TRUE(fds.contains(fd)) << fd.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryBatchedDiscoverer, StopMidRunTest,
    ::testing::Values(BudgetCase{"nary", 1}, BudgetCase{"nary", 4},
                      BudgetCase{"clique-nary", 1},
                      BudgetCase{"clique-nary", 4}, BudgetCase{"zigzag", 1},
                      BudgetCase{"zigzag", 4}, BudgetCase{"ucc-levelwise", 1},
                      BudgetCase{"ucc-levelwise", 4},
                      BudgetCase{"fd-levelwise", 1},
                      BudgetCase{"fd-levelwise", 4}));

TEST(SessionTest, ValidationRejectsBeforeAnyWork) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  // Run rejects exactly what ValidateRunOptions (the front-ends' check)
  // rejects, with the same status.
  auto rejected = [&session](RunOptions options) {
    auto report = session.Run(options);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(ValidateRunOptions(options).ToString(),
              report.status().ToString());
    return report.status();
  };

  RunOptions kind_mismatch;
  kind_mismatch.approach = "spider-merge";
  kind_mismatch.kind = DependencyKind::kUcc;
  EXPECT_EQ(rejected(kind_mismatch).message(),
            "approach 'spider-merge' discovers inds, not uccs (approaches for "
            "that kind: ucc-levelwise)");

  RunOptions unary_error;
  unary_error.approach = "spider-merge";
  unary_error.error_threshold = 0.2;
  EXPECT_TRUE(rejected(unary_error).IsInvalidArgument());

  RunOptions sigma_for_ucc;
  sigma_for_ucc.approach = "ucc-levelwise";
  sigma_for_ucc.min_coverage = 0.5;
  EXPECT_TRUE(rejected(sigma_for_ucc).IsInvalidArgument());

  RunOptions sigma_for_nary;
  sigma_for_nary.approach = "nary";
  sigma_for_nary.min_coverage = 0.5;
  EXPECT_EQ(rejected(sigma_for_nary).message(),
            "nary does not support partial (sigma < 1) coverage");

  RunOptions exact_expansion;
  exact_expansion.approach = "zigzag";
  exact_expansion.error_threshold = 0.2;
  EXPECT_EQ(rejected(exact_expansion).message(),
            "zigzag does not support an error threshold (error > 0)");

  // nary_base must be a unary verifier — neither an expansion nor another
  // kind's discoverer.
  RunOptions nary_base;
  nary_base.approach = "nary";
  nary_base.nary_base = "zigzag";
  EXPECT_EQ(rejected(nary_base).message(),
            "nary_base must name a unary approach, got n-ary expansion "
            "'zigzag'");
  nary_base.nary_base = "ucc-levelwise";
  EXPECT_EQ(rejected(nary_base).message(),
            "nary_base must name a unary approach, got ucc discoverer "
            "'ucc-levelwise'");
  nary_base.nary_base = "no-such-base";
  EXPECT_TRUE(rejected(nary_base).IsNotFound());

  // nary_base resolves whatever the approach and is never an expansion;
  // another kind's discoverer is only wrong where an expansion reads it.
  RunOptions unread_base;
  unread_base.approach = "brute-force";
  unread_base.nary_base = "zigzag";
  EXPECT_EQ(rejected(unread_base).message(),
            "nary_base must name a unary approach, got n-ary expansion "
            "'zigzag'");
  unread_base.nary_base = "no-such-base";
  EXPECT_TRUE(rejected(unread_base).IsNotFound());
  unread_base.nary_base = "ucc-levelwise";
  EXPECT_TRUE(ValidateRunOptions(unread_base).ok());

  // None of the rejected runs materialized a sorted set.
  auto extractor = session.extractor();
  ASSERT_TRUE(extractor.ok());
  EXPECT_EQ((*extractor)->sets_extracted(), 0);
}

}  // namespace
}  // namespace spider
