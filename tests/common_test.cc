#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "src/common/counters.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/temp_dir.h"

namespace spider {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::IOError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllCodePredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::IOError("a"), Status::IOError("a"));
  EXPECT_FALSE(Status::IOError("a") == Status::IOError("b"));
  EXPECT_FALSE(Status::IOError("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    SPIDER_RETURN_NOT_OK(Status::NotFound("gone"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto succeeds = []() -> Status {
    SPIDER_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached end");
  };
  EXPECT_TRUE(succeeds().IsInvalidArgument());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(3), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(3), 3);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string out = std::move(r).value();
  EXPECT_EQ(out, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    SPIDER_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  ASSERT_TRUE(outer(false).ok());
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsInternal());
}

// ------------------------------------------------------------ StringUtil

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(SplitString("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(SplitString(JoinStrings(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  abc\t\n"), "abc");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringUtilTest, CasePrefixSuffix) {
  EXPECT_EQ(ToLowerAscii("AbC9"), "abc9");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, LetterClassifier) {
  EXPECT_TRUE(ContainsLetter("1a2"));
  EXPECT_FALSE(ContainsLetter("123-"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(139356), "139,356");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatBytes(3LL << 20), "3.0MB");
  EXPECT_EQ(FormatBytes(17LL << 30), "17.0GB");
}

// AppendDouble is the one canonical double renderer; printf("%.17g") is
// the reference it must equal byte for byte.
TEST(StringUtilTest, AppendDoubleMatchesPrintf) {
  int mismatches = 0;
  auto check = [&mismatches](double v) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    char text[kDoubleTextBytes];
    const std::string actual(text, AppendDouble(text, v));
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "AppendDouble gave " << actual << ", printf "
                    << expected;
    }
  };
  using Limits = std::numeric_limits<double>;
  for (double v : {-0.0, 0.0, 0.1, 1e21, 5e-324, 1e16, -1e16, 1e-5, 1e15,
                   123456789012345678.0, Limits::max(), Limits::lowest(),
                   Limits::min(), Limits::denorm_min(), Limits::infinity(),
                   -Limits::infinity()}) {
    check(v);
  }
  Random rng(20261017);
  for (int tested = 0; tested < 1'000'000;) {
    const uint64_t bits = rng.Next();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    check(v);
    ++tested;
  }
  for (int i = 0; i < 100'000; ++i) {
    check(rng.NextDouble() * 200.0 - 100.0);
    check(static_cast<double>(static_cast<int64_t>(rng.Next() >> 11)) -
          static_cast<double>(1LL << 52));
  }
  EXPECT_EQ(mismatches, 0);
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicUnderSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RandomTest, UniformRespectsBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
  // Degenerate range.
  EXPECT_EQ(rng.Uniform(5, 5), 5);
}

TEST(RandomTest, UniformCoversRange) {
  Random rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ZipfStaysInRangeAndSkews) {
  Random rng(13);
  int64_t ones = 0;
  int64_t tens = 0;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Zipf(10, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 10);
    if (v == 1) ++ones;
    if (v == 10) ++tens;
  }
  EXPECT_GT(ones, tens * 2);
}

TEST(RandomTest, StringGenerators) {
  Random rng(17);
  for (int i = 0; i < 50; ++i) {
    std::string a = rng.AlphaString(3, 7);
    EXPECT_GE(a.size(), 3u);
    EXPECT_LE(a.size(), 7u);
    for (char c : a) EXPECT_TRUE(c >= 'a' && c <= 'z');
    std::string d = rng.DigitString(2, 4);
    EXPECT_GE(d.size(), 2u);
    EXPECT_LE(d.size(), 4u);
    for (char c : d) EXPECT_TRUE(c >= '0' && c <= '9');
  }
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, FormatsSecondsMinutesHours) {
  EXPECT_EQ(Stopwatch::FormatDuration(7.3), "7.30s");
  EXPECT_EQ(Stopwatch::FormatDuration(903), "15m03.0s");
  EXPECT_EQ(Stopwatch::FormatDuration(3 * 3600 + 13 * 60), "3h13m00s");
  EXPECT_EQ(Stopwatch::FormatDuration(-1), "0.00s");
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch watch;
  watch.Start();
  int64_t first = watch.ElapsedNanos();
  int64_t second = watch.ElapsedNanos();
  EXPECT_GE(second, first);
  EXPECT_GE(first, 0);
}

// --------------------------------------------------------------- TempDir

TEST(TempDirTest, CreatesAndRemoves) {
  std::filesystem::path path;
  {
    auto dir = TempDir::Make("spider-test");
    ASSERT_TRUE(dir.ok());
    path = (*dir)->path();
    EXPECT_TRUE(std::filesystem::is_directory(path));
    // Create a file inside to exercise recursive removal.
    std::filesystem::path file = (*dir)->FilePath("x.txt");
    FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, DistinctDirsPerCall) {
  auto a = TempDir::Make("spider-test");
  auto b = TempDir::Make("spider-test");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->path(), (*b)->path());
}

TEST(TempDirTest, KeepPreservesDirectory) {
  std::filesystem::path path;
  {
    auto dir = TempDir::Make("spider-keep");
    ASSERT_TRUE(dir.ok());
    (*dir)->Keep();
    path = (*dir)->path();
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(path);
}

TEST(TempDirTest, MakeSharedSweepsOnlyOrphanedSiblings) {
  namespace fs = std::filesystem;
  auto parent = TempDir::Make("spider-shared");
  ASSERT_TRUE(parent.ok());
  const fs::path root = (*parent)->path();
  // A killed owner's directory, and a file it kept beside it: nobody
  // holds the directory's lock.
  ASSERT_TRUE(fs::create_directories(root / "x.tmp-1-0" / "sub"));
  std::ofstream(root / "x.tmp-1-0" / "run.spill.tmp-1-3") << "half-written";
  std::ofstream(root / "x.tmp-1-0.a.set.tmp-1-4") << "half-written";
  // A live owner's directory and file: its lock is held.
  ASSERT_TRUE(fs::create_directory(root / "x.tmp-2-0"));
  std::ofstream(root / "x.tmp-2-0.b.set") << "being written";
  ScopedFd held(::open((root / "x.tmp-2-0").c_str(), O_RDONLY | O_DIRECTORY));
  ASSERT_GE(held.get(), 0);
  ASSERT_EQ(::flock(held.get(), LOCK_EX | LOCK_NB), 0);
  // Neither another prefix nor a plain file is a scratch directory, and a
  // longer name is not the orphan's.
  ASSERT_TRUE(fs::create_directory(root / "y.tmp-1-0"));
  std::ofstream(root / "x.tmp-3-0") << "not a directory";
  std::ofstream(root / "x.tmp-1-01.c") << "another owner's";

  fs::path first_path;
  {
    auto first = TempDir::MakeShared(root, "x");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    first_path = (*first)->path();
    EXPECT_EQ(first_path.parent_path(), root);
    EXPECT_EQ(first_path.filename().string().rfind("x.tmp-", 0), 0u);
    EXPECT_FALSE(fs::exists(root / "x.tmp-1-0"));
    EXPECT_FALSE(fs::exists(root / "x.tmp-1-0.a.set.tmp-1-4"));
    EXPECT_TRUE(fs::is_directory(root / "x.tmp-2-0"));
    EXPECT_TRUE(fs::is_regular_file(root / "x.tmp-2-0.b.set"));
    EXPECT_TRUE(fs::is_directory(root / "y.tmp-1-0"));
    EXPECT_TRUE(fs::is_regular_file(root / "x.tmp-3-0"));
    EXPECT_TRUE(fs::is_regular_file(root / "x.tmp-1-01.c"));
    // A second owner in the same process sweeps around the first.
    auto second = TempDir::MakeShared(root, "x");
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_NE((*second)->path(), first_path);
    EXPECT_TRUE(fs::is_directory(first_path));
  }
  EXPECT_FALSE(fs::exists(first_path));
  // Once its owner lets go, the live owner's directory is an orphan too.
  held.Reset();
  auto third = TempDir::MakeShared(root, "x");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_FALSE(fs::exists(root / "x.tmp-2-0"));
  EXPECT_FALSE(fs::exists(root / "x.tmp-2-0.b.set"));
}

// -------------------------------------------------------------- Counters

TEST(CountersTest, MergeAddsAndTakesPeakMax) {
  RunCounters a;
  a.tuples_read = 10;
  a.comparisons = 5;
  a.peak_open_files = 3;
  RunCounters b;
  b.tuples_read = 7;
  b.candidates_tested = 2;
  b.peak_open_files = 9;
  a.Merge(b);
  EXPECT_EQ(a.tuples_read, 17);
  EXPECT_EQ(a.comparisons, 5);
  EXPECT_EQ(a.candidates_tested, 2);
  EXPECT_EQ(a.peak_open_files, 9);
}

TEST(CountersTest, ResetZeroes) {
  RunCounters a;
  a.tuples_read = 10;
  a.Reset();
  EXPECT_EQ(a.tuples_read, 0);
  EXPECT_EQ(a.ToString().find("tuples_read=0"), 0u);
}

}  // namespace
}  // namespace spider
