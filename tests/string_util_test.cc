#include "common/string_util.h"

#include "gtest/gtest.h"

namespace aggcache {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(5000, 'z');
  std::string result = StrFormat("<%s>", long_arg.c_str());
  EXPECT_EQ(result.size(), 5002u);
  EXPECT_EQ(result.front(), '<');
  EXPECT_EQ(result.back(), '>');
}

TEST(StrJoinTest, JoinsParts) {
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"a"}, ", "), "a");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "|"), "a|b|c");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 << 20), "3.0 MiB");
  EXPECT_EQ(HumanBytes(size_t{5} << 30), "5.0 GiB");
}

TEST(SplitKeyValuesTest, KeepsPairsInOrderAndSkipsBareParts) {
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(SplitKeyValues("events=4096,threads=32"),
            (Pairs{{"events", "4096"}, {"threads", "32"}}));
  EXPECT_EQ(SplitKeyValues("on,sample=16,,x="),
            (Pairs{{"sample", "16"}, {"x", ""}}));
  EXPECT_TRUE(SplitKeyValues("").empty());
}

TEST(JsonEscapeTest, PinsTheEscapes) {
  std::string out = "x";
  AppendJsonEscaped(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\te\\u0001f");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  // Bytes >= 0x20, UTF-8 included, pass through untouched.
  EXPECT_EQ(JsonEscape("plain \xc3\xbc"), "plain \xc3\xbc");
  EXPECT_EQ(JsonEscape(""), "");
}

}  // namespace
}  // namespace aggcache
