// Tests for the harness utilities: PRNG, statistics, CLI parsing, tables, wait stats,
// free lists, and the throughput runner.
#include <cstring>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "src/harness/cli.h"
#include "src/harness/free_list.h"
#include "src/harness/prng.h"
#include "src/harness/stats.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/harness/wait_stats.h"

namespace srl {
namespace {

TEST(PrngTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 2);
}

TEST(PrngTest, NextBelowInBounds) {
  Xoshiro256 rng(7);
  for (uint64_t bound : {1ull, 2ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(PrngTest, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  bool seen[8] = {};
  for (int i = 0; i < 500; ++i) {
    seen[rng.NextBelow(8)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 1000, 0.5, 0.05);  // loose uniformity sanity
}

TEST(StatsTest, SummaryBasics) {
  const Summary s = Summarize({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-9);
  EXPECT_NEAR(s.RelStddevPct(), 50.0, 1e-9);
}

TEST(StatsTest, SingleAndEmpty) {
  EXPECT_DOUBLE_EQ(Summarize({5.0}).stddev, 0.0);
  EXPECT_DOUBLE_EQ(Summarize({}).mean, 0.0);
}

TEST(CliTest, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--secs=0.5", "--threads", "1,2,4", "--csv"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.GetDouble("--secs", 1.0), 0.5);
  EXPECT_EQ(cli.GetIntList("--threads", {8}), (std::vector<int>{1, 2, 4}));
  EXPECT_TRUE(cli.GetBool("--csv"));
  EXPECT_FALSE(cli.GetBool("--quiet"));
  EXPECT_EQ(cli.GetInt("--missing", 42), 42);
  EXPECT_EQ(cli.GetString("--missing", "x"), "x");
}

TEST(CliTest, RejectUnknownAcceptsEveryQueriedFlag) {
  const char* argv[] = {"prog", "--secs=0.5", "--threads", "1,2", "--csv"};
  Cli cli(5, const_cast<char**>(argv));
  cli.GetDouble("--secs", 1.0);
  cli.GetIntList("--threads", {8});  // "1,2" is its value, not a flag
  cli.GetBool("--csv");
  cli.GetBool("--quiet");  // asked for but absent: fine
  cli.RejectUnknown();     // returns: every --flag given was asked for
}

// A typo'd flag must not silently run the default workload: the first --flag nobody
// asked for ends the program with exit status 2 and is named on stderr.
TEST(CliTest, RejectUnknownExitsNamingFirstUnqueriedFlag) {
  const char* argv[] = {"prog", "--secs=0.5", "--thraeds=4", "--jsn", "out.json"};
  Cli cli(5, const_cast<char**>(argv));
  cli.GetDouble("--secs", 1.0);
  cli.GetIntList("--threads", {8});
  cli.JsonPath();
  EXPECT_EXIT(cli.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag --thraeds ");
}

TEST(TableTest, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream text;
  t.Print(text, /*csv=*/false);
  EXPECT_NE(text.str().find("longer"), std::string::npos);
  std::ostringstream csv;
  t.Print(csv, /*csv=*/true);
  EXPECT_EQ(csv.str(), "name,value\na,1\nlonger,22\n");
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
}

TEST(WaitStatsTest, MeansAndReset) {
  WaitStats ws;
  ws.RecordRead(100);
  ws.RecordRead(200);
  ws.RecordWrite(1000);
  EXPECT_EQ(ws.ReadCount(), 2u);
  EXPECT_EQ(ws.WriteCount(), 1u);
  EXPECT_DOUBLE_EQ(ws.MeanReadNs(), 150.0);
  EXPECT_DOUBLE_EQ(ws.MeanWriteNs(), 1000.0);
  EXPECT_DOUBLE_EQ(ws.MeanTotalNs(), 1300.0 / 3);
  ws.Reset();
  EXPECT_EQ(ws.ReadCount(), 0u);
  EXPECT_DOUBLE_EQ(ws.MeanReadNs(), 0.0);
}

struct PooledThing {
  int value = 0;
  PooledThing* pool_next = nullptr;
};

TEST(FreeListTest, RecyclesNodes) {
  FreeList<PooledThing> list;
  PooledThing* a = list.Get();
  a->value = 7;
  list.Put(a);
  PooledThing* b = list.Get();
  EXPECT_EQ(a, b) << "free list must hand back the recycled node";
  list.Put(b);
}

TEST(ThroughputRunnerTest, CountsAllThreadsOps) {
  const double ops_per_sec = MeasureThroughput(3, 0.05, [](int, std::atomic<bool>& stop) {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++n;
    }
    return n;
  });
  EXPECT_GT(ops_per_sec, 0.0);
}

TEST(ThroughputRunnerTest, RepeatedProducesSummary) {
  const Summary s =
      MeasureThroughputRepeated(2, 0.02, 3, [](int, std::atomic<bool>& stop) {
        uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          ++n;
        }
        return n;
      });
  EXPECT_GT(s.mean, 0.0);
  EXPECT_GE(s.max, s.min);
}

}  // namespace
}  // namespace srl
