#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/common/value_codec.h"

namespace spider {
namespace {

std::vector<std::string> RoundTrip(const std::vector<std::string>& values) {
  std::string buffer;
  for (const std::string& v : values) AppendLengthPrefixed(&buffer, v);
  std::vector<std::string> out;
  SpanReader in(buffer);
  std::string value;
  while (in.remaining() > 0 && in.String(&value)) out.push_back(value);
  EXPECT_EQ(in.remaining(), 0u);
  return out;
}

TEST(ValueCodecTest, SimpleRoundTrip) {
  std::vector<std::string> values{"a", "bc", "def"};
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(ValueCodecTest, EmptyStringRecord) {
  std::vector<std::string> values{"", "x", ""};
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(ValueCodecTest, BinarySafeContent) {
  std::string nasty("with\nnewline\tand\0nul", 20);
  std::vector<std::string> values{nasty, "plain"};
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(ValueCodecTest, LongRecordExercisesMultiByteVarint) {
  std::string big(300, 'z');          // needs 2 varint bytes
  std::string bigger(70000, 'q');     // needs 3 varint bytes
  std::vector<std::string> values{big, bigger};
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(ValueCodecTest, TruncatedPayloadFailsTheRead) {
  std::string buffer;
  AppendLengthPrefixed(&buffer, "abcdef");
  SpanReader in(std::string_view(buffer).substr(0, buffer.size() - 2));
  std::string value;
  EXPECT_FALSE(in.String(&value));
}

TEST(ValueCodecTest, TruncatedVarintFailsTheRead) {
  // 0x80 promises a continuation byte that never comes.
  const std::string buffer(1, static_cast<char>(0x80));
  SpanReader in(buffer);
  uint64_t length = 0;
  EXPECT_FALSE(in.Varint(&length));
}

}  // namespace
}  // namespace spider
