// The tools' shared argument helpers (tools/cli.hpp): strict integers,
// byte-size lists and the report-file writer. cli_hostile_args.sh runs the
// built tools on the same hostile inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"

namespace han::cli {
namespace {

TEST(CliIntArg, AcceptsWholeNumbersAtOrAboveTheMinimum) {
  int n = -7;
  EXPECT_TRUE(int_arg("0", 0, &n));
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(int_arg("42", 1, &n));
  EXPECT_EQ(n, 42);
  EXPECT_TRUE(int_arg("2147483647", 1, &n));
  EXPECT_EQ(n, 2147483647);
  long keep = -1;
  EXPECT_TRUE(int_arg("3", 0L, &keep));
  EXPECT_EQ(keep, 3);
  std::uint64_t seed = 0;
  EXPECT_TRUE(int_arg("18446744073709551615", std::uint64_t{0}, &seed));
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(CliIntArg, RejectsGarbageAndLeavesTheValue) {
  // Each of these used to read as a prefix or a silent 0 through
  // std::atoi / std::atol / std::strtoull.
  for (const char* bad : {"", "abc", "2x", "3abc", " 5", "+5", "5 ", "0x10",
                          "1e3", "-3", "2147483648", "99999999999999999999"}) {
    int n = 11;
    EXPECT_FALSE(int_arg(bad, 1, &n)) << "'" << bad << "'";
    EXPECT_EQ(n, 11) << "'" << bad << "'";
  }
  int n = 11;
  EXPECT_FALSE(int_arg("0", 1, &n));  // below the minimum
  long keep = 5;
  EXPECT_FALSE(int_arg("-1", 0L, &keep));
  EXPECT_FALSE(int_arg("abc", 0L, &keep));
  EXPECT_EQ(keep, 5);
  std::uint64_t seed = 9;
  EXPECT_FALSE(int_arg("-1", std::uint64_t{0}, &seed));
  EXPECT_FALSE(int_arg("18446744073709551616", std::uint64_t{0}, &seed));
  EXPECT_EQ(seed, 9u);
}

TEST(CliSizeList, ParsesTheByteSizeGrammar) {
  std::vector<std::size_t> sizes;
  ASSERT_TRUE(size_list("64K,1M,4096,1g,128KB", false, &sizes));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{64 << 10, 1 << 20, 4096,
                                             1u << 30, 128 << 10}));
  ASSERT_TRUE(size_list("65536,1048576", true, &sizes));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{64 << 10, 1 << 20}));
  ASSERT_TRUE(size_list("1M,64K", false, &sizes));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1 << 20, 64 << 10}));
}

TEST(CliSizeList, RejectsMalformedListsAndClears) {
  for (const char* bad : {"", ",", "64K,", ",64K", "64K,,1M", "0", "64K,0",
                          "64X", "K", "-1", " 64K", "18446744073709551617",
                          "18014398509481985K"}) {
    std::vector<std::size_t> sizes{7};
    EXPECT_FALSE(size_list(bad, false, &sizes)) << "'" << bad << "'";
    EXPECT_TRUE(sizes.empty()) << "'" << bad << "'";
  }
}

TEST(CliSizeList, AscendingRejectsDescentAndRepeats) {
  std::vector<std::size_t> sizes;
  EXPECT_FALSE(size_list("8388608,1048576", true, &sizes));
  EXPECT_FALSE(size_list("1M,1M", true, &sizes));
  EXPECT_FALSE(size_list("2,1", true, &sizes));
  EXPECT_FALSE(size_list("64K,1M,512K", true, &sizes));
  EXPECT_TRUE(sizes.empty());
  EXPECT_TRUE(size_list("8388608,1048576", false, &sizes));
}

TEST(CliWriteFile, WritesTheTextOrFailsLoudly) {
  const std::string path = ::testing::TempDir() + "cli_write_file.json";
  ASSERT_TRUE(write_file("test_cli", path, "{\"a\": 1}\n"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\"a\": 1}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(write_file("test_cli", path + ".missing/dir/x.json", "{}"));
}

TEST(CliBadValue, ExitsOne) {
  EXPECT_EQ(bad_value("test_cli", "--keep", "abc"), 1);
}

}  // namespace
}  // namespace han::cli
