// The store-manifest codec, driven directly: DecodeStoreManifest is a pure
// function over untrusted bytes. Every field round-trips, every byte a
// name or value can hold included; every truncation of a valid two-table
// manifest fails cleanly; and a fixed-seed loop of multi-byte overwrites,
// huge varint lengths and counts, and inserted and deleted bytes ends in
// OK or an InvalidArgument, never an abort. ASan and UBSan run this suite
// like every other.

#include "src/storage/store_manifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/common/value_codec.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

// Bytes a text format, a length prefix or a C string could trip over.
const std::string kAwkward =
    std::string("tab\there\nnl%25%") + '\0' + "nul\xC3\xBC\xFF";

ManifestColumn Column(std::string name, TypeId type, int64_t bytes,
                      std::vector<uint64_t> offsets, int64_t non_null,
                      int64_t distinct, std::optional<std::string> min,
                      std::optional<std::string> max) {
  ManifestColumn column;
  column.name = std::move(name);
  column.type = type;
  column.bytes = bytes;
  column.block_offsets = std::move(offsets);
  column.stats.non_null_count = non_null;
  column.stats.distinct_count = distinct;
  column.stats.min_value = std::move(min);
  column.stats.max_value = std::move(max);
  return column;
}

// Two tables whose columns cover their files exactly: every type, both
// declared-unique values, min and max present and absent, awkward names
// and values, interleaved blocks, and a foreign key.
ManifestData Sample() {
  ManifestData data;
  data.catalog_name = "cat-" + kAwkward;
  data.block_bytes = 1024;
  ManifestTable t;
  t.name = kAwkward;
  t.row_count = 40;
  t.file_name = "t-0123456789abcdef.col";
  t.file_bytes = 300;
  t.columns = {
      Column("i", TypeId::kInteger, 100, {0, 150}, 40, 40, "-1", "99"),
      Column("d" + kAwkward, TypeId::kDouble, 120, {60, 200}, 35, 7, kAwkward,
             std::string("\0", 1)),
      Column("s", TypeId::kString, 80, {250}, 0, 0, std::nullopt, std::nullopt),
  };
  t.columns[0].declared_unique = true;
  ManifestTable u;
  u.name = "u";
  u.row_count = 0;
  u.file_name = "u.col";
  u.file_bytes = 0;
  u.columns = {Column("l", TypeId::kLob, 0, {}, 0, 0, std::nullopt, "")};
  data.tables = {t, u};
  data.foreign_keys = {{{kAwkward, "i"}, {"u", "l"}},
                       {{"u", "l"}, {kAwkward, "d" + kAwkward}}};
  return data;
}

void ExpectSameManifest(const ManifestData& actual,
                        const ManifestData& expected) {
  EXPECT_EQ(actual.catalog_name, expected.catalog_name);
  EXPECT_EQ(actual.block_bytes, expected.block_bytes);
  ASSERT_EQ(actual.tables.size(), expected.tables.size());
  for (size_t t = 0; t < actual.tables.size(); ++t) {
    const ManifestTable& a = actual.tables[t];
    const ManifestTable& e = expected.tables[t];
    EXPECT_EQ(a.name, e.name);
    EXPECT_EQ(a.row_count, e.row_count);
    EXPECT_EQ(a.file_name, e.file_name);
    EXPECT_EQ(a.file_bytes, e.file_bytes);
    ASSERT_EQ(a.columns.size(), e.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      SCOPED_TRACE(e.columns[c].name);
      const ManifestColumn& ac = a.columns[c];
      const ManifestColumn& ec = e.columns[c];
      EXPECT_EQ(ac.name, ec.name);
      EXPECT_EQ(ac.type, ec.type);
      EXPECT_EQ(ac.declared_unique, ec.declared_unique);
      EXPECT_EQ(ac.bytes, ec.bytes);
      EXPECT_EQ(ac.block_offsets, ec.block_offsets);
      EXPECT_EQ(ac.stats.non_null_count, ec.stats.non_null_count);
      EXPECT_EQ(ac.stats.distinct_count, ec.stats.distinct_count);
      EXPECT_EQ(ac.stats.min_value, ec.stats.min_value);
      EXPECT_EQ(ac.stats.max_value, ec.stats.max_value);
    }
  }
  EXPECT_EQ(actual.foreign_keys, expected.foreign_keys);
}

TEST(StoreManifestTest, RoundTripsEveryField) {
  const ManifestData sample = Sample();
  const std::string bytes = EncodeStoreManifest(sample);
  Result<ManifestData> decoded = DecodeStoreManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameManifest(*decoded, sample);
  EXPECT_EQ(EncodeStoreManifest(*decoded), bytes);

  // The row count is the table's; the rest of each column's statistics
  // follow from it.
  const ColumnStats& i = decoded->tables[0].columns[0].stats;
  EXPECT_EQ(i.row_count, 40);
  EXPECT_EQ(i.null_count, 0);
  EXPECT_TRUE(i.verified_unique);
  const ColumnStats& d = decoded->tables[0].columns[1].stats;
  EXPECT_EQ(d.row_count, 40);
  EXPECT_EQ(d.null_count, 5);
  EXPECT_FALSE(d.verified_unique);
}

// The manifest a writer commits for two tables of several blocks each,
// one declared unique, with a foreign key between them.
std::string WrittenManifest(const TempDir& dir) {
  DiskStoreOptions options;
  options.block_bytes = 1024;
  const auto workspace = dir.path() / "ws";
  auto writer = DiskCatalogWriter::Create(workspace, "db", options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::string table : {"parent", "child"}) {
    EXPECT_TRUE((*writer)->BeginTable(table).ok());
    EXPECT_TRUE((*writer)->AddColumn("id", TypeId::kInteger, true).ok());
    EXPECT_TRUE((*writer)->AddColumn("code", TypeId::kString).ok());
    const int rows = table == "parent" ? 300 : 500;
    for (int r = 0; r < rows; ++r) {
      const int id = table == "parent" ? r : r * 7 % 300;
      Value code = r % 11 == 0 ? Value::Null()
                               : Value::String("p" + std::to_string(id));
      EXPECT_TRUE(
          (*writer)->AppendRow({Value::Integer(id), std::move(code)}).ok());
    }
    EXPECT_TRUE((*writer)->FinishTable().ok());
  }
  (*writer)->DeclareForeignKey({{"child", "id"}, {"parent", "id"}});
  EXPECT_TRUE((*writer)->Finish().ok());
  Result<std::string> bytes = ReadFileBytes(workspace / kDiskStoreManifestName);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : "";
}

class WrittenManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-store-manifest-test");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = std::move(dir).value();
    manifest_ = WrittenManifest(*dir_);
    Result<ManifestData> decoded = DecodeStoreManifest(manifest_);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->tables.size(), 2u);
    for (const ManifestTable& table : decoded->tables) {
      for (const ManifestColumn& column : table.columns) {
        ASSERT_GT(column.block_offsets.size(), 1u) << column.name;
      }
    }
    ASSERT_EQ(EncodeStoreManifest(*decoded), manifest_);
  }

  std::unique_ptr<TempDir> dir_;
  std::string manifest_;
};

TEST_F(WrittenManifestTest, EveryTruncationFailsCleanly) {
  for (size_t keep = 0; keep < manifest_.size(); ++keep) {
    const Status status =
        DecodeStoreManifest(manifest_.substr(0, keep)).status();
    EXPECT_TRUE(status.IsInvalidArgument())
        << "truncated to " << keep << ": " << status.ToString();
  }
}

// The mutations: `rng` picks one and where it applies.
std::string Mutate(const std::string& original, Random& rng) {
  std::string bytes = original;
  const auto at = [&](size_t size) {
    return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(size)));
  };
  switch (rng.Uniform(0, 4)) {
    case 0: {  // overwrite one to eight bytes
      const int64_t count = rng.Uniform(1, 8);
      for (int64_t i = 0; i < count; ++i) {
        bytes[at(bytes.size() - 1)] = static_cast<char>(rng.Uniform(0, 255));
      }
      break;
    }
    case 1: {  // a varint (a length, a count, an offset) made huge
      const uint64_t huge =
          rng.Bernoulli(0.5) ? rng.Next() : uint64_t{1} << rng.Uniform(7, 63);
      std::string varint;
      EncodeVarint(&varint, huge);
      const size_t pos = at(bytes.size() - 1);
      const auto replaced = static_cast<size_t>(rng.Uniform(1, 3));
      bytes.replace(pos, std::min(replaced, bytes.size() - pos), varint);
      break;
    }
    case 2: {  // inserted bytes
      std::string inserted(static_cast<size_t>(rng.Uniform(1, 8)), '\0');
      for (char& c : inserted) c = static_cast<char>(rng.Uniform(0, 255));
      bytes.insert(at(bytes.size()), inserted);
      break;
    }
    case 3: {  // deleted bytes
      const size_t pos = at(bytes.size() - 1);
      bytes.erase(pos, static_cast<size_t>(rng.Uniform(1, 8)));
      break;
    }
    default: {  // one bit flipped past the header
      const size_t pos = 9 + at(bytes.size() - 10);
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(0, 7)));
      break;
    }
  }
  return bytes;
}

TEST_F(WrittenManifestTest, SeededMutationsEndInOkOrAnError) {
  constexpr uint64_t kSeed = 20240611;
  constexpr int kMutants = 20000;
  RecordProperty("seed", std::to_string(kSeed));
  Random rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(manifest_, rng);
    Result<ManifestData> decoded = DecodeStoreManifest(mutant);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument())
          << "seed " << kSeed << ", mutant " << i << ": "
          << decoded.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    // What decodes re-encodes to a manifest that decodes to the same bytes.
    const std::string encoded = EncodeStoreManifest(*decoded);
    Result<ManifestData> again = DecodeStoreManifest(encoded);
    ASSERT_TRUE(again.ok()) << "seed " << kSeed << ", mutant " << i << ": "
                            << again.status().ToString();
    EXPECT_EQ(EncodeStoreManifest(*again), encoded)
        << "seed " << kSeed << ", mutant " << i;
  }
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  // The loop reached both the decoder's error paths and its accepting one.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace spider
