#include <limits>

#include <gtest/gtest.h>

#include "src/support/cpu_features.h"
#include "src/support/json_writer.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/table.h"

namespace cdmpp {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000) == b.UniformInt(0, 1000)) {
      ++same;
    }
  }
  EXPECT_LT(same, 10);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 7);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(4);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(6);
  Rng child = a.Fork();
  EXPECT_NE(a.UniformInt(0, 1 << 30), child.UniformInt(0, 1 << 30));
}

TEST(StatsTest, MeanAndStddev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Stddev(xs), 2.0);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(Skewness({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
}

TEST(StatsTest, PercentileDegenerateInputs) {
  // Empty reduces to 0 (matching Mean/Stddev); one sample is every
  // percentile of itself.
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 100), 7.5);
}

TEST(StatsTest, PercentilesMatchesRepeatedPercentileCalls) {
  std::vector<double> xs = {9, 1, 5, 3, 7};
  std::vector<double> got = Percentiles(xs, {0.0, 50.0, 99.0, 100.0});
  ASSERT_EQ(got.size(), 4u);
  EXPECT_DOUBLE_EQ(got[0], Percentile(xs, 0.0));
  EXPECT_DOUBLE_EQ(got[1], Percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(got[2], Percentile(xs, 99.0));
  EXPECT_DOUBLE_EQ(got[3], Percentile(xs, 100.0));

  std::vector<double> empty = Percentiles({}, {50.0, 99.0});
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_DOUBLE_EQ(empty[0], 0.0);
  EXPECT_DOUBLE_EQ(empty[1], 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  for (double& y : ys) {
    y = -y;
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(StatsTest, SkewnessSignReflectsTail) {
  std::vector<double> right_tail = {1, 1, 1, 1, 2, 2, 3, 20};
  EXPECT_GT(Skewness(right_tail), 1.0);
}

TEST(StatsTest, HistogramCountsSumToN) {
  std::vector<double> xs;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    xs.push_back(rng.Uniform(0, 10));
  }
  auto h = Histogram(xs, 16);
  size_t total = 0;
  for (size_t c : h) {
    total += c;
  }
  EXPECT_EQ(total, xs.size());
}

TEST(StatsTest, MapeAndRmse) {
  std::vector<double> truth = {10, 20};
  std::vector<double> pred = {11, 18};
  EXPECT_NEAR(Mape(pred, truth), (0.1 + 0.1) / 2.0, 1e-12);
  EXPECT_NEAR(Rmse(pred, truth), std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(StatsTest, MapeSkipsZeroTruth) {
  EXPECT_DOUBLE_EQ(Mape({5.0, 10.0}, {0.0, 10.0}), 0.0);
}

TEST(StatsTest, AccuracyWithinTolerance) {
  std::vector<double> truth = {100, 100, 100, 100};
  std::vector<double> pred = {105, 115, 125, 90};
  EXPECT_DOUBLE_EQ(AccuracyWithin(pred, truth, 0.2), 0.75);
  EXPECT_DOUBLE_EQ(AccuracyWithin(pred, truth, 0.1), 0.5);
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.1403, 2), "14.03%");
}

TEST(TableTest, CsvRoundTrip) {
  std::string path = "/tmp/cdmpp_table_test.csv";
  ASSERT_TRUE(WriteCsv(path, {"a", "b"}, {{1.5, 2.5}, {3.0, 4.0}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_EQ(std::string(buf), "a,b\n");
  std::fclose(f);
}

// ---- CDMPP_PRECISION parsing (the ResolveNumThreads hardening pattern) -----

TEST(ParsePrecisionTest, AcceptsExactSpellingsOnly) {
  Precision p = Precision::kInt8;
  ASSERT_TRUE(ParsePrecision("fp32", &p));
  EXPECT_EQ(p, Precision::kFp32);
  ASSERT_TRUE(ParsePrecision("int8", &p));
  EXPECT_EQ(p, Precision::kInt8);
}

TEST(ParsePrecisionTest, RejectsMalformedValuesWritingNothing) {
  // Misconfigured values must be rejected whole, never prefix-matched or
  // silently coerced — a typo'd CDMPP_PRECISION should fall back loudly, not
  // serve the wrong tier. The sentinel verifies *out is untouched on reject.
  const Precision sentinel = Precision::kInt8;
  for (const char* bad : {static_cast<const char*>(nullptr), "", " ", "int", "int8x",
                          "int8 ", " int8", "INT8", "Fp32", "fp", "fp32x", "int8-head",
                          "int8-heads", "int8-headss", "int8-heads ", "int8heads", "int16",
                          "8"}) {
    Precision p = sentinel;
    EXPECT_FALSE(ParsePrecision(bad, &p)) << "accepted: '" << (bad ? bad : "<null>") << "'";
    EXPECT_EQ(p, sentinel) << "wrote on reject: '" << (bad ? bad : "<null>") << "'";
  }
}

TEST(ParsePrecisionTest, NameRoundTripsEveryPrecision) {
  for (Precision p : {Precision::kFp32, Precision::kInt8}) {
    Precision parsed = p == Precision::kFp32 ? Precision::kInt8 : Precision::kFp32;
    ASSERT_TRUE(ParsePrecision(PrecisionName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
}

}  // namespace
// ---- JsonWriter (the bench artifacts' emitter) -------------------------------

TEST(JsonWriterTest, NestsEscapesAndClampsNonFinite) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("a\"b\\c\nd\te\x01");
  w.Key("nan");
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("inf");
  w.Double(-std::numeric_limits<double>::infinity());
  w.Key("list");
  w.BeginArray();
  w.Int(-1);
  w.Uint(2);
  w.Double(1.5);
  w.BeginObject();
  w.EndObject();
  w.BeginArray();
  w.EndArray();
  w.Bool(true);
  w.EndArray();
  w.Key("raw");
  w.RawValue("{\"x\": [1, 2]}");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\\\\c\\nd\\te\\u0001\",\n"
            "  \"nan\": 0,\n"
            "  \"inf\": 0,\n"
            "  \"list\": [\n"
            "    -1,\n"
            "    2,\n"
            "    1.5,\n"
            "    {},\n"
            "    [],\n"
            "    true\n"
            "  ],\n"
            "  \"raw\": {\"x\": [1, 2]}\n"
            "}");
}

TEST(JsonWriterDeathTest, UnclosedBeginChecks) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Key("series");
        w.BeginArray();
        w.EndArray();
        (void)w.str();
      },
      "unclosed");
}

}  // namespace cdmpp
