#include "src/ind/registry.h"

#include <gtest/gtest.h>

#include "src/common/temp_dir.h"
#include "src/ind/de_marchi.h"
#include "src/ind/fd_levelwise.h"
#include "src/ind/nary.h"
#include "tests/test_util.h"

namespace spider {
namespace {

using Entry = AlgorithmRegistry::Entry;

const Entry& MustFind(std::string_view name) {
  auto entry = AlgorithmRegistry::Global().Find(name);
  EXPECT_TRUE(entry.ok()) << name;
  return **entry;
}

// The family of a registered approach, as the alternative its factory
// holds.
bool IsUnary(const Entry& entry) {
  return std::holds_alternative<AlgorithmRegistry::Factory>(entry.factory);
}
bool IsNary(const Entry& entry) {
  return std::holds_alternative<AlgorithmRegistry::NaryFactory>(entry.factory);
}

// Creates `name` through the family given by `family` (an AnyFactory
// alternative index) and returns the status.
Status CreateAs(size_t family, std::string_view name,
                const AlgorithmConfig& config) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  switch (family) {
    case 0:
      return registry.Create(name, config).status();
    case 1:
      return registry.Create<NaryAlgorithm>(name, config).status();
    default:
      return registry.Create<DependencyAlgorithm>(name, config).status();
  }
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-registry-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
    extractor_ = std::make_unique<ValueSetExtractor>(dir_->path());
    config_.extractor = extractor_.get();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<ValueSetExtractor> extractor_;
  AlgorithmConfig config_;
};

TEST(RegistryTableTest, OneTableInRegistrationOrder) {
  const std::vector<std::string> names = AlgorithmRegistry::Global().Names();
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "brute-force", "single-pass", "sql-join", "sql-minus",
                "sql-not-in", "spider-merge", "de-marchi", "bell-brockhausen",
                "nary", "clique-nary", "zigzag", "ucc-levelwise",
                "fd-levelwise", "afd-levelwise"}));
  for (const std::string& name : names) EXPECT_EQ(MustFind(name).name, name);
  EXPECT_EQ(testing::UnaryApproachNames(),
            (std::vector<std::string>(names.begin(), names.begin() + 8)));
}

TEST(RegistryTableTest, NamesForKindPartitionTheNamespace) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  // kInd spans both IND families: unary verifiers then n-ary expansions.
  std::vector<std::string> ind_names = testing::UnaryApproachNames();
  for (const char* name : {"nary", "clique-nary", "zigzag"}) {
    ind_names.push_back(name);
  }
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kInd), ind_names);
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kUcc),
            std::vector<std::string>{"ucc-levelwise"});
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kFd),
            std::vector<std::string>{"fd-levelwise"});
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kAfd),
            std::vector<std::string>{"afd-levelwise"});

  // The per-kind default is the kind's first registered name.
  auto default_ind = registry.DefaultNameForKind(DependencyKind::kInd);
  ASSERT_TRUE(default_ind.ok());
  EXPECT_EQ(*default_ind, ind_names.front());
  auto default_ucc = registry.DefaultNameForKind(DependencyKind::kUcc);
  ASSERT_TRUE(default_ucc.ok());
  EXPECT_EQ(*default_ucc, "ucc-levelwise");
}

TEST(RegistryTableTest, CapabilitiesMatchTheFactoryFamily) {
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    const Entry& entry = MustFind(name);
    const AlgorithmCapabilities& capabilities = entry.capabilities;
    EXPECT_EQ(capabilities.nary, IsNary(entry)) << name;
    if (IsUnary(entry) || IsNary(entry)) {
      EXPECT_EQ(capabilities.kind, DependencyKind::kInd) << name;
    } else {
      EXPECT_NE(capabilities.kind, DependencyKind::kInd) << name;
    }
    if (!IsUnary(entry)) {
      // Expansions and discoverers ride the sorted-set seam.
      EXPECT_TRUE(capabilities.needs_extractor) << name;
    }
  }
}

TEST_F(RegistryTest, CreateResolvesEveryNameInItsFamilyOnly) {
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    const size_t family = MustFind(name).factory.index();
    for (size_t as = 0; as < 3; ++as) {
      const Status status = CreateAs(as, name, config_);
      if (as == family) {
        EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
      } else {
        // Cross-family misuse is a usage error, not NotFound: the name
        // exists, the family is wrong.
        EXPECT_TRUE(status.IsInvalidArgument())
            << name << " as " << as << ": " << status.ToString();
      }
    }
  }
  // The registered name is the algorithm's display name, in every family.
  auto unary = AlgorithmRegistry::Global().Create("spider-merge", config_);
  ASSERT_TRUE(unary.ok());
  EXPECT_EQ((*unary)->name(), "spider-merge");
  auto nary =
      AlgorithmRegistry::Global().Create<NaryAlgorithm>("zigzag", config_);
  ASSERT_TRUE(nary.ok());
  EXPECT_EQ((*nary)->name(), "zigzag");
  auto fd = AlgorithmRegistry::Global().Create<DependencyAlgorithm>(
      "afd-levelwise", config_);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ((*fd)->name(), "afd-levelwise");
}

TEST_F(RegistryTest, FamilyMismatchNamesBothFamilies) {
  const Status status =
      AlgorithmRegistry::Global().Create("zigzag", config_).status();
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(),
            "zigzag is an n-ary IND expansion, not a unary IND verifier (run "
            "it through SpiderSession)");
  const Status dependency = AlgorithmRegistry::Global()
                                .Create<NaryAlgorithm>("ucc-levelwise", config_)
                                .status();
  EXPECT_EQ(dependency.message(),
            "ucc-levelwise is a ucc discoverer, not an n-ary IND expansion "
            "(run it through SpiderSession)");
}

TEST(RegistryTableTest, UnknownNameIsNotFoundInEveryFamily) {
  for (size_t family = 0; family < 3; ++family) {
    const Status status = CreateAs(family, "no-such-approach", {});
    EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  }
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .Find("no-such-approach")
                  .status()
                  .IsNotFound());
}

TEST(RegistryTableTest, UnknownNameSuggestsTheNearestApproach) {
  // Lookup failures teach the namespace: valid names grouped per kind
  // plus a nearest-match suggestion for plausible typos.
  Status status =
      AlgorithmRegistry::Global().Create("spider-merg", {}).status();
  ASSERT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("did you mean 'spider-merge'?"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("ucc: ucc-levelwise"), std::string::npos)
      << status.ToString();

  // Unrelated garbage gets the listing but no far-fetched suggestion.
  Status garbage =
      AlgorithmRegistry::Global().Create("qqqqqqqqqqqq", {}).status();
  ASSERT_TRUE(garbage.IsNotFound());
  EXPECT_EQ(garbage.message().find("did you mean"), std::string::npos)
      << garbage.ToString();
}

TEST(RegistryTableTest, ExtractorRequirementMatchesCapabilities) {
  // Creating without an extractor must fail exactly for the approaches
  // whose capabilities say they need one, in every family.
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    const Entry& entry = MustFind(name);
    const Status without = CreateAs(entry.factory.index(), name, {});
    EXPECT_EQ(without.ok(), !entry.capabilities.needs_extractor) << name;
    if (!without.ok()) {
      EXPECT_TRUE(without.IsInvalidArgument()) << name;
    }
  }
}

TEST_F(RegistryTest, PartialCoverageRequiresCapability) {
  AlgorithmConfig partial = config_;
  partial.min_coverage = 0.9;
  for (const std::string& name : testing::UnaryApproachNames()) {
    auto created = AlgorithmRegistry::Global().Create(name, partial);
    EXPECT_EQ(created.ok(), MustFind(name).capabilities.supports_partial)
        << name;
  }
  // The maximal-IND searches verify exact containment only.
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .Create<NaryAlgorithm>("clique-nary", partial)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RegistryTest, OpenFileBudgetRequiresCapability) {
  // Every family is gated: only an approach that bounds its open files
  // takes a budget, and no approach takes a budget of one file.
  AlgorithmConfig bounded = config_;
  bounded.max_open_files = 2;
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    const Entry& entry = MustFind(name);
    const Status status = CreateAs(entry.factory.index(), name, bounded);
    EXPECT_EQ(status.ok(), entry.capabilities.bounds_open_files)
        << name << ": " << status.ToString();
  }
  EXPECT_TRUE(MustFind("single-pass").capabilities.bounds_open_files);
  for (const int budget : {1, -1}) {
    bounded.max_open_files = budget;
    EXPECT_TRUE(AlgorithmRegistry::Global()
                    .Create("single-pass", bounded)
                    .status()
                    .IsInvalidArgument())
        << budget;
  }
}

TEST_F(RegistryTest, ErrorThresholdRequiresCapability) {
  // Approximate discovery is gated per approach: the levelwise expansion
  // and the AFD discoverer accept a g3' error threshold, the exact ones
  // don't.
  AlgorithmConfig approximate = config_;
  approximate.error_threshold = 0.25;
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    const Entry& entry = MustFind(name);
    if (IsUnary(entry)) continue;
    const Status status = CreateAs(entry.factory.index(), name, approximate);
    EXPECT_EQ(status.ok(), name == "nary" || name == "afd-levelwise")
        << name << ": " << status.ToString();
  }
  // And it must be a valid g3' error: [0, 1).
  approximate.error_threshold = 1.0;
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .Create<DependencyAlgorithm>("afd-levelwise", approximate)
                  .status()
                  .IsInvalidArgument());
}

TEST(RegistryTableTest, DatabaseInternalCapabilityMatchesBehavior) {
  // Database-internal approaches must answer without any sorted value
  // sets; database-external ones read them (tuples_read > 0).
  Catalog catalog;
  testing::AddStringColumn(&catalog, "child", "fk", {"a", "b"});
  testing::AddStringColumn(&catalog, "parent", "pk", {"a", "b", "c"}, true);
  const std::vector<IndCandidate> candidates = {
      {{"child", "fk"}, {"parent", "pk"}}};

  auto dir = TempDir::Make("spider-registry-behavior");
  ASSERT_TRUE(dir.ok());
  for (const std::string& name : testing::UnaryApproachNames()) {
    const AlgorithmCapabilities& capabilities = MustFind(name).capabilities;
    ValueSetExtractor extractor((*dir)->path());
    AlgorithmConfig config;
    config.extractor = &extractor;
    auto algorithm = AlgorithmRegistry::Global().Create(name, config);
    ASSERT_TRUE(algorithm.ok()) << name;
    auto result = (*algorithm)->Run(catalog, candidates);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->satisfied.size(), 1u) << name;
    if (capabilities.needs_extractor) {
      EXPECT_GT(result->counters.tuples_read, 0) << name;
    }
  }
}

TEST(RegistryTableTest, DuplicateNamesAreRejectedAcrossFamilies) {
  AlgorithmRegistry registry;
  // Never called: registration alone is under test.
  AlgorithmRegistry::Factory unary = [](const AlgorithmConfig&) {
    return std::unique_ptr<IndAlgorithm>();
  };
  AlgorithmRegistry::NaryFactory nary = [](const AlgorithmConfig&) {
    return std::unique_ptr<NaryAlgorithm>();
  };
  AlgorithmRegistry::DependencyFactory dependency = [](const AlgorithmConfig&) {
    return std::unique_ptr<DependencyAlgorithm>();
  };
  AlgorithmCapabilities ucc;
  ucc.kind = DependencyKind::kUcc;
  ASSERT_TRUE(registry.Register("custom", {}, unary).ok());
  for (const Status& duplicate :
       {registry.Register("custom", {}, unary),
        registry.Register("custom", {}, nary),
        registry.Register("custom", ucc, dependency)}) {
    EXPECT_TRUE(duplicate.IsAlreadyExists()) << duplicate.ToString();
  }
  EXPECT_FALSE(registry.Register("", {}, unary).ok());
  // A dependency discoverer must name the non-IND kind it discovers.
  EXPECT_TRUE(registry.Register("ind-discoverer", {}, dependency)
                  .IsInvalidArgument());
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"custom"});
}

TEST_F(RegistryTest, CustomRegistrationOfEveryFamilyIsCreatable) {
  // The extension path: a consumer registers its own approaches and
  // resolves them by name, no enum involved.
  AlgorithmRegistry registry;
  AlgorithmCapabilities unary;
  unary.summary = "delegates to de-marchi";
  unary.kind = DependencyKind::kUcc;  // IND factories are forced to kInd
  ASSERT_TRUE(registry
                  .Register("my-unary", unary,
                            [](const AlgorithmConfig&) {
                              return std::make_unique<DeMarchiAlgorithm>();
                            })
                  .ok());
  AlgorithmCapabilities nary;
  nary.needs_extractor = true;
  ASSERT_TRUE(registry
                  .Register("my-nary", nary,
                            [](const AlgorithmConfig& config) {
                              return std::make_unique<LevelwiseNaryAlgorithm>(
                                  config);
                            })
                  .ok());
  AlgorithmCapabilities fd;
  fd.kind = DependencyKind::kFd;
  fd.needs_extractor = true;
  ASSERT_TRUE(registry
                  .Register("my-fd", fd,
                            [](const AlgorithmConfig& config) {
                              return std::make_unique<FdLevelwiseAlgorithm>(
                                  config, "my-fd");
                            })
                  .ok());

  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"my-unary", "my-nary", "my-fd"}));
  EXPECT_TRUE(registry.Create("my-unary", {}).ok());
  EXPECT_TRUE(registry.Create<NaryAlgorithm>("my-nary", config_).ok());
  EXPECT_TRUE(registry.Create<DependencyAlgorithm>("my-fd", config_).ok());

  auto unary_entry = registry.Find("my-unary");
  ASSERT_TRUE(unary_entry.ok());
  EXPECT_EQ((*unary_entry)->capabilities.kind, DependencyKind::kInd);
  EXPECT_FALSE((*unary_entry)->capabilities.nary);
  auto nary_entry = registry.Find("my-nary");
  ASSERT_TRUE(nary_entry.ok());
  EXPECT_TRUE((*nary_entry)->capabilities.nary);
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kInd),
            (std::vector<std::string>{"my-unary", "my-nary"}));
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kFd),
            std::vector<std::string>{"my-fd"});
}

}  // namespace
}  // namespace spider
