#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/flags.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace dtdbd {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

// Dropout draws its whole mask in one BernoulliFill call. It must make
// the same draws as one Bernoulli(p) call per element and leave the same
// state, so a checkpoint resumed mid-run replays the same masks.
TEST(RngTest, BernoulliFillMatchesBernoulliCalls) {
  for (double p : {0.0, 0.1, 0.5, 0.9}) {
    for (int64_t n : {0, 1, 7, 1000}) {
      Rng one_by_one(29), batched(29);
      std::vector<float> expected(static_cast<size_t>(n));
      for (float& v : expected) v = one_by_one.Bernoulli(p) ? 0.0f : 2.0f;
      std::vector<float> mask(static_cast<size_t>(n), -1.0f);
      batched.BernoulliFill(p, 0.0f, 2.0f, mask.data(), n);
      EXPECT_EQ(mask, expected) << "p=" << p << " n=" << n;
      EXPECT_EQ(batched.GetState(), one_by_one.GetState());
      EXPECT_EQ(batched.Next(), one_by_one.Next()) << "p=" << p << " n=" << n;
    }
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.Categorical({1.0, 2.0, 1.0})];
  }
  EXPECT_NEAR(counts[1] / 30000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[0] / 30000.0, 0.25, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeights) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.Categorical({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream should not replay the parent's outputs.
  Rng parent2(31);
  parent2.Fork();
  EXPECT_NE(child.Next(), parent.Next());
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status e = Status::NotFound("missing thing");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), StatusCode::kNotFound);
  EXPECT_EQ(e.ToString(), "NotFound: missing thing");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok_value(42);
  EXPECT_TRUE(ok_value.ok());
  EXPECT_EQ(ok_value.value(), 42);

  StatusOr<int> err(Status::IoError("disk"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIoError);
}

// A payload type with no default constructor: StatusOr must not require one
// (it stores the value in a std::optional).
struct NoDefault {
  explicit NoDefault(int v) : value(v) {}
  NoDefault(const NoDefault&) = default;
  NoDefault(NoDefault&&) = default;
  int value;
};

TEST(StatusOrTest, WorksWithNonDefaultConstructibleType) {
  StatusOr<NoDefault> ok_value(NoDefault(7));
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(ok_value.value().value, 7);

  StatusOr<NoDefault> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);

  // Move extraction hands the payload out without a default-constructed hole.
  StatusOr<std::unique_ptr<int>> ptr(std::make_unique<int>(5));
  ASSERT_TRUE(ptr.ok());
  std::unique_ptr<int> owned = std::move(ptr).value();
  EXPECT_EQ(*owned, 5);
}

namespace statusor_macros {

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status CheckPositive(int x) {
  DTDBD_RETURN_IF_ERROR(ParsePositive(x).status());
  return Status::Ok();
}

StatusOr<int> SumOfTwo(int a, int b) {
  DTDBD_ASSIGN_OR_RETURN(int pa, ParsePositive(a));
  DTDBD_ASSIGN_OR_RETURN(int pb, ParsePositive(b));
  return pa + pb;
}

}  // namespace statusor_macros

TEST(StatusOrTest, MacrosPropagateErrors) {
  EXPECT_TRUE(statusor_macros::CheckPositive(3).ok());
  EXPECT_EQ(statusor_macros::CheckPositive(-1).code(),
            StatusCode::kInvalidArgument);

  auto sum = statusor_macros::SumOfTwo(2, 3);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value(), 5);
  EXPECT_FALSE(statusor_macros::SumOfTwo(2, -3).ok());
  EXPECT_FALSE(statusor_macros::SumOfTwo(-2, 3).ok());
}

TEST(FlagParserTest, ParsesForms) {
  const char* argv[] = {"prog",        "--alpha=2.5", "--epochs", "7",
                        "--verbose",   "--no-daa",    "pos1",     "--name",
                        "experiment1"};
  FlagParser flags(9, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 2.5);
  EXPECT_EQ(flags.GetInt("epochs", 0), 7);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("daa", true));
  EXPECT_EQ(flags.GetString("name", ""), "experiment1");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(FlagParserTest, Defaults) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("missing", 5), 5);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer_name", "2.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer_name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(0.123456, 4), "0.1235");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 1), "2.0");
}

TEST(CheckDeathTest, FailsWithMessage) {
  EXPECT_DEATH(DTDBD_CHECK(false) << "custom context 42",
               "custom context 42");
  EXPECT_DEATH(DTDBD_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(CheckTest, PassingCheckDoesNothing) {
  DTDBD_CHECK(true);
  DTDBD_CHECK_EQ(3, 3);
  DTDBD_CHECK_LT(1, 2) << "not printed";
}

TEST(LoggingTest, ConcurrentWritersNeverInterleaveWithinALine) {
  // Capture stderr, hammer the logger from two threads, and verify every
  // emitted line is intact: a torn write would splice one thread's marker
  // into the middle of the other's line.
  std::ostringstream captured;
  std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
  constexpr int kLinesPerThread = 500;
  const auto writer = [](const char* marker) {
    for (int i = 0; i < kLinesPerThread; ++i) {
      DTDBD_LOG(Info) << "stress " << marker << " line " << i << " end";
    }
  };
  std::thread a(writer, "AAAA");
  std::thread b(writer, "BBBB");
  a.join();
  b.join();
  std::cerr.rdbuf(saved);

  std::istringstream lines(captured.str());
  std::string line;
  int stress_lines = 0;
  while (std::getline(lines, line)) {
    if (line.find("stress") == std::string::npos) continue;
    ++stress_lines;
    const bool from_a = line.find("AAAA") != std::string::npos;
    const bool from_b = line.find("BBBB") != std::string::npos;
    EXPECT_TRUE(from_a != from_b) << "torn line: " << line;
    // Complete prefix and suffix: one "[I " header, terminal " end".
    EXPECT_EQ(line.rfind("[I ", 0), 0u) << "torn line: " << line;
    EXPECT_EQ(line.substr(line.size() - 4), " end") << "torn line: " << line;
  }
  EXPECT_EQ(stress_lines, 2 * kLinesPerThread);
}

TEST(AtomicWriteFileTest, WritesAndReplacesAtomically) {
  const std::string path = ::testing::TempDir() + "atomic_write_test.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  std::ifstream in1(path, std::ios::binary);
  std::string got1((std::istreambuf_iterator<char>(in1)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(got1, "first contents");
  // Overwrite goes through the same tmp+rename path; no partial state and
  // no leftover temp file.
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  std::ifstream in2(path, std::ios::binary);
  std::string got2((std::istreambuf_iterator<char>(in2)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(got2, "second");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(AtomicWriteFileTest, FailsOnUnwritableDirectory) {
  EXPECT_FALSE(AtomicWriteFile("/nonexistent_dir_xyz/file.txt", "x").ok());
}

TEST(AtomicWriteFileTest, CleansUpTempFileWhenPublishFails) {
  // Target an existing directory: the tmp file writes fine but the
  // publishing rename(2) must fail (EISDIR) — and the tmp file must not be
  // left behind to litter the checkpoint directory.
  const std::string target = ::testing::TempDir() + "atomic_write_blocked";
  ASSERT_EQ(::mkdir(target.c_str(), 0755), 0) << std::strerror(errno);
  EXPECT_FALSE(AtomicWriteFile(target, "contents").ok());
  struct stat st;
  EXPECT_NE(::stat((target + ".tmp").c_str(), &st), 0)
      << "temp file leaked after failed publish";
  ASSERT_EQ(::rmdir(target.c_str()), 0);
}

TEST(AtomicWriteFileTest, SurvivingFileIsDurablyPublished) {
  // The rename is followed by an fsync of the containing directory; at this
  // API level we can only assert the call still succeeds end-to-end and the
  // published contents are intact (the durability itself needs a crash rig).
  const std::string dir = ::testing::TempDir() + "atomic_write_dirsync";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << std::strerror(errno);
  const std::string path = dir + "/nested.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "durable").ok());
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "durable");
  in.close();
  ASSERT_EQ(::unlink(path.c_str()), 0);
  ASSERT_EQ(::rmdir(dir.c_str()), 0);
}

}  // namespace
}  // namespace dtdbd
