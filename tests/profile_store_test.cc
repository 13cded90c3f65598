// ProfileStore unit tests: the v3 manifest round-trips every field and
// every byte a name can hold, any damage to a saved manifest (a
// truncation, a bit flip, a hostile count or id under a valid checksum, a
// pre-v2 text manifest, a v2 one) loads as an empty profile without
// crashing or allocating by an unchecked count, and concurrent saves of
// one store all commit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/temp_dir.h"
#include "src/common/thread_pool.h"
#include "src/common/value_codec.h"
#include "src/extsort/profile_store.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

ProfileVerdict Verdict(bool satisfied, uint64_t dependent_fingerprint,
                       uint64_t referenced_fingerprint) {
  ProfileVerdict verdict;
  verdict.satisfied = satisfied;
  verdict.dependent_fingerprint = dependent_fingerprint;
  verdict.referenced_fingerprint = referenced_fingerprint;
  return verdict;
}

void ExpectSameVerdict(const std::optional<ProfileVerdict>& actual,
                       const ProfileVerdict& expected) {
  ASSERT_TRUE(actual.has_value());
  EXPECT_EQ(actual->satisfied, expected.satisfied);
  EXPECT_EQ(actual->dependent_fingerprint, expected.dependent_fingerprint);
  EXPECT_EQ(actual->referenced_fingerprint, expected.referenced_fingerprint);
}

void ExpectSameSet(const std::optional<ProfileSetEntry>& actual,
                   const ProfileSetEntry& expected) {
  ASSERT_TRUE(actual.has_value()) << expected.file_name;
  EXPECT_EQ(actual->file_name, expected.file_name);
  EXPECT_EQ(actual->file_bytes, expected.file_bytes);
  EXPECT_EQ(actual->content_fingerprint, expected.content_fingerprint);
  EXPECT_EQ(actual->source_fingerprint, expected.source_fingerprint);
  EXPECT_EQ(actual->distinct_count, expected.distinct_count);
}

// Bytes a text manifest, a TSV field or a length prefix could trip over.
const std::string kAwkward =
    std::string("tab\there\nnl%25%") + '\0' + "nul\xC3\xBC\xFF";

std::vector<ProfileSetEntry> SampleSets() {
  ProfileSetEntry both;
  both.file_name = "orders-" + kAwkward + ".set";
  both.file_bytes = 123456789;
  both.content_fingerprint = 0xFFFFFFFFFFFFFFFFULL;
  both.source_fingerprint = 0x0123456789ABCDEFULL;
  both.distinct_count = 42;

  ProfileSetEntry none;
  none.file_name = "empty.set";

  ProfileSetEntry nul;
  nul.file_name = std::string("nul\0.set", 8);
  nul.file_bytes = 1;
  nul.distinct_count = 1;
  return {both, none, nul};
}

// A profile with awkward names, one attribute (`orders.customer`) whose
// verdicts carry two different fingerprints, and an overwritten key.
struct SampleVerdict {
  AttributeRef dependent;
  AttributeRef referenced;
  ProfileVerdict verdict;
};

std::vector<SampleVerdict> SampleVerdicts() {
  const AttributeRef customer{"orders", "customer"};
  const AttributeRef id{"customers", "id"};
  const AttributeRef awkward{kAwkward, "col\t" + kAwkward};
  const AttributeRef unicode{"t\xC3\xA4", std::string("c\0\n", 3)};
  return {
      {customer, id, Verdict(true, 11, 22)},
      {customer, awkward, Verdict(false, 12, 33)},  // second fingerprint
      {awkward, unicode, Verdict(true, 33, 44)},
      {unicode, customer, Verdict(false, 44, 11)},
      {id, customer, Verdict(false, 22, 12)},
  };
}

void FillSample(ProfileStore& store) {
  for (const ProfileSetEntry& entry : SampleSets()) store.PutSet(entry);
  // An older verdict for the first key, overwritten below.
  const std::vector<SampleVerdict> verdicts = SampleVerdicts();
  store.PutVerdict(verdicts[0].dependent, verdicts[0].referenced,
                   Verdict(false, 99, 98));
  for (const SampleVerdict& v : verdicts) {
    store.PutVerdict(v.dependent, v.referenced, v.verdict);
  }
}

void ExpectSample(const ProfileStore& store) {
  const std::vector<ProfileSetEntry> sets = SampleSets();
  EXPECT_EQ(store.set_count(), static_cast<int64_t>(sets.size()));
  for (const ProfileSetEntry& entry : sets) {
    ExpectSameSet(store.FindSet(entry.file_name), entry);
  }
  const std::vector<SampleVerdict> verdicts = SampleVerdicts();
  EXPECT_EQ(store.verdict_count(), static_cast<int64_t>(verdicts.size()));
  for (const SampleVerdict& v : verdicts) {
    SCOPED_TRACE(v.dependent.ToString() + " -> " + v.referenced.ToString());
    ExpectSameVerdict(store.FindVerdict(v.dependent, v.referenced),
                      v.verdict);
  }
  EXPECT_FALSE(
      store.FindVerdict(verdicts[1].referenced, verdicts[1].dependent)
          .has_value());
}

void ExpectEmpty(const ProfileStore& store) {
  EXPECT_EQ(store.set_count(), 0);
  EXPECT_EQ(store.verdict_count(), 0);
}

class ProfileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-profile-store");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = std::move(dir).value();
  }

  const fs::path& dir() const { return dir_->path(); }
  fs::path manifest() const { return dir() / kProfileManifestName; }

  // A fresh store over dir(), loaded.
  std::unique_ptr<ProfileStore> Reload() const {
    auto store = std::make_unique<ProfileStore>(dir());
    store->Load();
    return store;
  }

  // Writes `body` behind the magic and `version`, with a valid checksum,
  // so only the parser's own checks stand between it and the process.
  void WriteSealed(const std::string& body, char version = 3) const {
    std::string bytes = "SpPrfMan";
    bytes.push_back(version);
    bytes += body;
    AppendFixed64(&bytes, HashString(bytes));
    WriteBytes(manifest(), bytes);
  }

 private:
  std::unique_ptr<TempDir> dir_;
};

TEST_F(ProfileStoreTest, SaveLoadRoundTripsEveryField) {
  ProfileStore store(dir());
  FillSample(store);
  ExpectSample(store);
  ASSERT_TRUE(store.Save().ok());
  ExpectSample(*Reload());
}

TEST_F(ProfileStoreTest, EmptyStoreRoundTrips) {
  ProfileStore store(dir());
  store.Load();  // no manifest yet
  ExpectEmpty(store);
  ASSERT_TRUE(store.Save().ok());
  EXPECT_TRUE(fs::exists(manifest()));
  ExpectEmpty(*Reload());
}

TEST_F(ProfileStoreTest, SaveIsCanonicalAndDropsUnreferencedSides) {
  ProfileStore forward(dir());
  FillSample(forward);
  ASSERT_TRUE(forward.Save().ok());
  const std::string expected = ReadBytes(manifest());

  // The same profile built in the opposite order, with a side that the
  // overwrite leaves unreferenced, encodes to the same bytes.
  ProfileStore backward(dir());
  const std::vector<SampleVerdict> verdicts = SampleVerdicts();
  for (auto it = verdicts.rbegin(); it != verdicts.rend(); ++it) {
    backward.PutVerdict(it->dependent, it->referenced, Verdict(true, 7, 7));
    backward.PutVerdict(it->dependent, it->referenced, it->verdict);
  }
  const std::vector<ProfileSetEntry> sets = SampleSets();
  for (auto it = sets.rbegin(); it != sets.rend(); ++it) backward.PutSet(*it);
  ASSERT_TRUE(backward.Save().ok());
  EXPECT_EQ(ReadBytes(manifest()), expected);
}

TEST_F(ProfileStoreTest, IdPathAgreesWithTheWrappers) {
  ProfileStore store(dir());
  FillSample(store);
  const std::vector<SampleVerdict> verdicts = SampleVerdicts();
  const AttributeRef unknown{"nowhere", "nothing"};
  const std::vector<ProfileStore::SideKey> keys = {
      {&verdicts[0].dependent, 11},  // orders.customer, first fingerprint
      {&verdicts[0].referenced, 22},
      {&verdicts[1].referenced, 33},
      {&verdicts[0].dependent, 12},  // orders.customer, second fingerprint
      {&verdicts[0].referenced, 23},  // a fingerprint never recorded
      {&unknown, 1},
  };
  const std::vector<ProfileStore::SideId> sides = store.InternSides(keys);
  ASSERT_EQ(sides.size(), keys.size());
  for (const ProfileStore::SideId side : sides) {
    EXPECT_NE(side, ProfileStore::kNoSide);
  }
  EXPECT_NE(sides[0], sides[3]);
  EXPECT_EQ(store.InternSides(keys), sides);  // resolving again is stable
  EXPECT_EQ(store.verdict_count(), static_cast<int64_t>(verdicts.size()));

  const std::vector<std::pair<ProfileStore::SideId, ProfileStore::SideId>>
      pairs = {{sides[0], sides[1]},  // customer@11 -> id@22: satisfied
               {sides[3], sides[2]},  // customer@12 -> awkward@33
               {sides[3], sides[1]},  // stale dependent fingerprint
               {sides[0], sides[4]},  // a side no verdict was decided under
               {sides[5], sides[1]},  // an attribute with no verdict
               {ProfileStore::kNoSide, sides[1]}};
  const std::vector<std::optional<bool>> found = store.FindVerdicts(pairs);
  ASSERT_EQ(found.size(), pairs.size());
  EXPECT_EQ(found[0], std::optional<bool>(true));
  EXPECT_EQ(found[1], std::optional<bool>(false));
  for (size_t i = 2; i < found.size(); ++i) {
    EXPECT_FALSE(found[i].has_value()) << "pair " << i;
  }

  // Recording by id overwrites what the wrapper reads back.
  const std::vector<ProfileStore::SideVerdict> recorded = {
      {sides[0], sides[4], false}, {sides[5], sides[0], true}};
  store.PutVerdicts(recorded);
  EXPECT_EQ(store.verdict_count(),
            static_cast<int64_t>(verdicts.size()) + 1);
  ExpectSameVerdict(
      store.FindVerdict(verdicts[0].dependent, verdicts[0].referenced),
      Verdict(false, 11, 23));
  ExpectSameVerdict(store.FindVerdict(unknown, verdicts[0].dependent),
                    Verdict(true, 1, 11));
}

TEST_F(ProfileStoreTest, EveryTruncationAndBitFlipLoadsEmpty) {
  {
    ProfileStore store(dir());
    FillSample(store);
    ASSERT_TRUE(store.Save().ok());
  }
  const std::string pristine = ReadBytes(manifest());
  ASSERT_GT(pristine.size(), 100u);
  ExpectSample(*Reload());

  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    SCOPED_TRACE("truncated to " + std::to_string(keep));
    WriteBytes(manifest(), pristine.substr(0, keep));
    ExpectEmpty(*Reload());
  }
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flipped bit " + std::to_string(bit) + " of byte " +
                   std::to_string(byte));
      std::string damaged = pristine;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      WriteBytes(manifest(), damaged);
      ExpectEmpty(*Reload());
    }
  }
}

// The pieces of a hand-built body.
std::string Varint(uint64_t v) {
  std::string out;
  EncodeVarint(&out, v);
  return out;
}

std::string String(const std::string& s) {
  std::string out;
  AppendLengthPrefixed(&out, s);
  return out;
}

std::string Fixed64(uint64_t v) {
  std::string out;
  AppendFixed64(&out, v);
  return out;
}

// No sets; attributes a.x@1 and b.y@2 (sides 0 and 1).
std::string TwoAttributes() {
  return Varint(0) + Varint(2) + String("a") + String("x") + Varint(1) +
         Fixed64(1) + String("b") + String("y") + Varint(1) + Fixed64(2);
}

TEST_F(ProfileStoreTest, HandBuiltBodyLoads) {
  // The control for the hostile bodies below: the same helpers, well
  // formed, loads — so their rejection is the parser's doing.
  WriteSealed(TwoAttributes() + Varint(2) +   // two verdicts
              Varint(0) + Varint(1) + Varint(1 << 1 | 1) +  // a.x ⊆ b.y
              Varint(1) + Varint(1) + Varint(0 << 1 | 0));  // b.y ⊈ a.x
  const std::unique_ptr<ProfileStore> store = Reload();
  EXPECT_EQ(store->verdict_count(), 2);
  ExpectSameVerdict(store->FindVerdict({"a", "x"}, {"b", "y"}),
                    Verdict(true, 1, 2));
  ExpectSameVerdict(store->FindVerdict({"b", "y"}, {"a", "x"}),
                    Verdict(false, 2, 1));
}

TEST_F(ProfileStoreTest, HostileBodiesLoadEmpty) {
  const uint64_t kHuge = uint64_t{1} << 60;
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"set count beyond the bytes", Varint(kHuge) + String("x.set")},
      {"set name longer than the bytes",
       Varint(1) + Varint(kHuge) + std::string(32, 'a')},
      {"attribute count beyond the bytes",
       Varint(0) + Varint(kHuge) + String("a") + String("x")},
      {"side count beyond the bytes",
       Varint(0) + Varint(1) + String("a") + String("x") + Varint(kHuge) +
           Fixed64(1)},
      {"verdict count beyond the bytes",
       TwoAttributes() + Varint(kHuge) + Varint(0) + Varint(1) + Varint(2)},
      {"group larger than the verdict count",
       TwoAttributes() + Varint(1) + Varint(0) + Varint(kHuge) + Varint(2)},
      {"dependent side out of range",
       TwoAttributes() + Varint(1) + Varint(2) + Varint(1) + Varint(2)},
      {"referenced side out of range",
       TwoAttributes() + Varint(1) + Varint(0) + Varint(1) +
           Varint(7 << 1 | 1)},
      {"side delta overflowing the id",
       TwoAttributes() + Varint(2) + Varint(0) + Varint(2) + Varint(1 << 1) +
           Varint((~uint64_t{0} >> 1) << 1)},
      {"repeated attribute pair",
       TwoAttributes() + Varint(2) + Varint(0) + Varint(1) + Varint(1 << 1) +
           Varint(0) + Varint(1) + Varint(1 << 1)},
      {"repeated attribute name",
       Varint(0) + Varint(2) + String("a") + String("x") + Varint(1) +
           Fixed64(1) + String("a") + String("x") + Varint(1) + Fixed64(2) +
           Varint(0)},
      {"attribute without a side",
       Varint(0) + Varint(1) + String("a") + String("x") + Varint(0) +
           Varint(0) + std::string(8, '\0')},
      {"fingerprints not ascending",
       Varint(0) + Varint(1) + String("a") + String("x") + Varint(2) +
           Fixed64(5) + Fixed64(5) + Varint(0)},
      {"over-long varint", std::string(10, '\x80') + "\x01"},
      {"trailing bytes", TwoAttributes() + Varint(0) + "x"},
      {"empty body", ""},
  };
  for (const auto& [what, body] : bodies) {
    SCOPED_TRACE(what);
    WriteSealed(body);
    ExpectEmpty(*Reload());
  }
}

TEST_F(ProfileStoreTest, V2ManifestLoadsEmptyAndIsResealed) {
  // Version 2 also held each set's block count, flags, min and max. Its
  // profile is a cache miss: it loads empty, and the next seal writes v3.
  const std::string v2_set = String("x.set") + Varint(7) + Fixed64(1) +
                             Fixed64(2) + Varint(1) + Varint(1) + "\x03" +
                             String("a") + String("a");
  WriteSealed(Varint(1) + v2_set + Varint(0) + Varint(0), /*version=*/2);
  const std::unique_ptr<ProfileStore> store = Reload();
  ExpectEmpty(*store);
  ProfileSetEntry entry;
  entry.file_name = "x.set";
  entry.file_bytes = 7;
  entry.distinct_count = 1;
  store->PutSet(entry);
  ASSERT_TRUE(store->Save().ok());
  EXPECT_EQ(ReadBytes(manifest())[8], 3);
  ExpectSameSet(Reload()->FindSet("x.set"), entry);
}

TEST_F(ProfileStoreTest, TextManifestLoadsEmptyAndIsRewritten) {
  // The pre-v2 format: percent-escaped TSV behind its own whole-file
  // checksum, which is valid here — only the magic turns it away.
  std::string text =
      "spider-profile\t1\n"
      "verdict\torders\tcustomer\tcustomers\tid\t1\t"
      "000000000000000b\t0000000000000016\n"
      "end\n";
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(HashString(text)));
  text += std::string("checksum\t") + checksum + "\n";
  WriteBytes(manifest(), text);

  const std::unique_ptr<ProfileStore> store = Reload();
  ExpectEmpty(*store);
  store->PutVerdict({"orders", "customer"}, {"customers", "id"},
                    Verdict(true, 11, 22));
  ASSERT_TRUE(store->Save().ok());
  const std::unique_ptr<ProfileStore> reloaded = Reload();
  EXPECT_EQ(reloaded->verdict_count(), 1);
  ExpectSameVerdict(
      reloaded->FindVerdict({"orders", "customer"}, {"customers", "id"}),
      Verdict(true, 11, 22));
}

TEST_F(ProfileStoreTest, ConcurrentSavesAllCommit) {
  // spiderd seals one shared store from concurrent jobs: every Save must
  // commit (none may lose the temp file to the other writer), and the
  // survivor must be a whole manifest.
  constexpr int kVerdicts = 200;
  constexpr int kRounds = 2000;
  ProfileStore store(dir());
  for (int i = 0; i < kVerdicts; ++i) {
    store.PutVerdict({"dep", "c" + std::to_string(i % 20)},
                     {"ref", "c" + std::to_string(i)},
                     Verdict(i % 3 == 0, 1, 2));
  }
  ASSERT_EQ(store.verdict_count(), kVerdicts);

  std::atomic<int> failures{0};
  std::string first_error;
  std::atomic<bool> recorded{false};
  ThreadPool pool(2);
  std::vector<std::future<void>> writers;
  writers.reserve(2);
  for (int writer = 0; writer < 2; ++writer) {
    writers.push_back(pool.Submit([&] {
      for (int round = 0; round < kRounds; ++round) {
        const Status saved = store.Save();
        if (saved.ok()) continue;
        failures.fetch_add(1);
        if (!recorded.exchange(true)) first_error = saved.ToString();
      }
    }));
  }
  for (std::future<void>& writer : writers) writer.get();
  EXPECT_EQ(failures.load(), 0) << first_error;
  EXPECT_EQ(Reload()->verdict_count(), kVerdicts);
}

}  // namespace
}  // namespace spider
