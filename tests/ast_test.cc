#include <cmath>

#include <gtest/gtest.h>

#include "src/ast/compact_ast.h"
#include "src/dataset/model_zoo.h"
#include "src/support/fnv_hash.h"
#include "src/tir/schedule.h"

namespace cdmpp {
namespace {

Task MakeConv() {
  Task t;
  t.kind = OpKind::kConv2d;
  t.dims = {1, 32, 28, 28, 64, 3, 3};
  t.fused_relu = true;
  t.name = "conv";
  return t;
}

TEST(CompactAstTest, BasicInvariants) {
  Rng rng(21);
  Task t = MakeConv();
  for (int trial = 0; trial < 100; ++trial) {
    TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
    CompactAst ast = ExtractCompactAst(prog);
    EXPECT_EQ(static_cast<int>(ast.leaves.size()), ast.num_leaves);
    EXPECT_EQ(ast.leaves.size(), ast.ordering.size());
    EXPECT_LE(ast.num_leaves, ast.num_nodes);
    EXPECT_GT(ast.num_leaves, 0);
    // Ordering strictly increasing and within [0, num_nodes).
    for (size_t i = 0; i < ast.ordering.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(ast.ordering[i], ast.ordering[i - 1]);
      }
      EXPECT_GE(ast.ordering[i], 0);
      EXPECT_LT(ast.ordering[i], ast.num_nodes);
    }
  }
}

TEST(CompactAstTest, LeafRangeIsNarrowerThanNodeRange) {
  // The paper's Fig. 2 motivation: across many schedules, leaf counts vary
  // much less than node counts.
  Rng rng(22);
  Task t = MakeConv();
  int min_nodes = 1 << 30, max_nodes = 0, min_leaves = 1 << 30, max_leaves = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
    CompactAst ast = ExtractCompactAst(prog);
    min_nodes = std::min(min_nodes, ast.num_nodes);
    max_nodes = std::max(max_nodes, ast.num_nodes);
    min_leaves = std::min(min_leaves, ast.num_leaves);
    max_leaves = std::max(max_leaves, ast.num_leaves);
  }
  EXPECT_GT(max_nodes - min_nodes, max_leaves - min_leaves);
}

TEST(CompactAstTest, FeatureValuesFinite) {
  Rng rng(23);
  Task t = MakeConv();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  CompactAst ast = ExtractCompactAst(prog);
  for (const ComputationVector& cv : ast.leaves) {
    for (float v : cv) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(CompactAstTest, OneHotComputeKindSumsToOne) {
  Rng rng(24);
  Task t = MakeConv();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  CompactAst ast = ExtractCompactAst(prog);
  for (const ComputationVector& cv : ast.leaves) {
    float sum = 0.0f;
    for (int j = 29; j < 35; ++j) {
      sum += cv[static_cast<size_t>(j)];
    }
    EXPECT_FLOAT_EQ(sum, 1.0f);
  }
}

TEST(CompactAstTest, VectorizeFlagReflectsSchedule) {
  Task t = MakeConv();
  ScheduleDesc sched;
  sched.primitives.push_back({PrimitiveKind::kVectorize, -1, 0});
  CompactAst ast = ExtractCompactAst(GenerateProgram(t, sched));
  bool any = false;
  for (const ComputationVector& cv : ast.leaves) {
    any |= cv[19] == 1.0f;
  }
  EXPECT_TRUE(any);

  CompactAst plain = ExtractCompactAst(GenerateProgram(t, ScheduleDesc{}));
  for (const ComputationVector& cv : plain.leaves) {
    EXPECT_EQ(cv[19], 0.0f);
    EXPECT_EQ(cv[22], 0.0f);
  }
}

// Pins extraction field for field: one FNV-1a over Hash(), num_nodes,
// max_depth and ProgramFlops of 2,000 programs sampled from the model zoo.
// Extraction and lowering run no kernel code, so one value holds under every
// kernel ISA.
TEST(CompactAstTest, ZooProgramsMatchGoldenFingerprint) {
  std::vector<Task> tasks;
  for (const NetworkDef& net : BuildModelZoo()) {
    for (const NetworkOp& op : net.ops) {
      tasks.push_back(op.task);
    }
  }
  Rng rng(2024);
  uint64_t h = kFnvOffset;
  for (int i = 0; i < 2000; ++i) {
    const Task& t = tasks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tasks.size()) - 1))];
    TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
    CompactAst ast = ExtractCompactAst(prog);
    h = FnvMix(h, ast.Hash());
    h = FnvMix(h, static_cast<uint64_t>(ast.num_nodes));
    h = FnvMix(h, static_cast<uint64_t>(ast.max_depth));
    h = FnvMixDouble(h, ProgramFlops(prog));
  }
  EXPECT_EQ(h, 0x6bc7a9f6b4f8a87eull);
}

TEST(CompactAstHashTest, EqualAstsHashEqual) {
  Task t = MakeConv();
  ScheduleDesc sched;
  sched.primitives.push_back({PrimitiveKind::kVectorize, -1, 0});
  CompactAst a = ExtractCompactAst(GenerateProgram(t, sched));
  CompactAst b = ExtractCompactAst(GenerateProgram(t, sched));
  EXPECT_EQ(a.Hash(), b.Hash());
  // Hashing is a pure function: repeated calls agree.
  EXPECT_EQ(a.Hash(), a.Hash());
}

TEST(CompactAstHashTest, DistinctContentsHashDistinct) {
  Task t = MakeConv();
  Rng rng(17);
  std::vector<CompactAst> asts;
  for (int i = 0; i < 16; ++i) {
    asts.push_back(ExtractCompactAst(GenerateProgram(t, SampleSchedule(t, &rng))));
  }
  auto same_content = [](const CompactAst& a, const CompactAst& b) {
    return a.num_nodes == b.num_nodes && a.num_leaves == b.num_leaves &&
           a.max_depth == b.max_depth && a.ordering == b.ordering && a.leaves == b.leaves;
  };
  int distinct_pairs = 0;
  for (size_t i = 0; i < asts.size(); ++i) {
    for (size_t j = i + 1; j < asts.size(); ++j) {
      if (!same_content(asts[i], asts[j])) {
        ++distinct_pairs;
        EXPECT_NE(asts[i].Hash(), asts[j].Hash());
      }
    }
  }
  EXPECT_GT(distinct_pairs, 0);  // sampling actually produced variety
}

TEST(CompactAstHashTest, SensitiveToSingleLeafBit) {
  Task t = MakeConv();
  CompactAst ast = ExtractCompactAst(GenerateProgram(t, ScheduleDesc{}));
  uint64_t before = ast.Hash();
  ast.leaves[0][0] += 1.0f;
  EXPECT_NE(ast.Hash(), before);
}

TEST(PositionalEncodingTest, ValuesBounded) {
  for (int pos = 0; pos < 100; ++pos) {
    ComputationVector pe = PositionalEncoding(pos, 10000.0);
    for (float v : pe) {
      EXPECT_GE(v, -1.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(PositionalEncodingTest, PositionZeroIsSinCosPattern) {
  ComputationVector pe = PositionalEncoding(0, 10000.0);
  for (int d = 0; d * 2 < kFeatDim; ++d) {
    EXPECT_FLOAT_EQ(pe[static_cast<size_t>(2 * d)], 0.0f);      // sin(0)
    if (2 * d + 1 < kFeatDim) {
      EXPECT_FLOAT_EQ(pe[static_cast<size_t>(2 * d + 1)], 1.0f);  // cos(0)
    }
  }
}

TEST(PositionalEncodingTest, DistinctPositionsDistinct) {
  for (int a = 0; a < 20; ++a) {
    for (int b = a + 1; b < 20; ++b) {
      ComputationVector pa = PositionalEncoding(a, 10000.0);
      ComputationVector pb = PositionalEncoding(b, 10000.0);
      double diff = 0.0;
      for (int j = 0; j < kFeatDim; ++j) {
        diff += std::abs(pa[static_cast<size_t>(j)] - pb[static_cast<size_t>(j)]);
      }
      EXPECT_GT(diff, 1e-3) << a << " vs " << b;
    }
  }
}

TEST(EncodeFeaturesTest, PeChangesEncodingOnlyWhenEnabled) {
  Rng rng(25);
  Task t = MakeConv();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  CompactAst ast = ExtractCompactAst(prog);
  std::vector<float> with_pe = EncodeFeatures(ast, true);
  std::vector<float> without = EncodeFeatures(ast, false);
  ASSERT_EQ(with_pe.size(), without.size());
  ASSERT_EQ(with_pe.size(), static_cast<size_t>(ast.num_leaves) * kFeatDim);
  double diff = 0.0;
  for (size_t i = 0; i < with_pe.size(); ++i) {
    diff += std::abs(with_pe[i] - without[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(AggregateFeaturesTest, TracksLeafAndNodeCounts) {
  Rng rng(26);
  Task t = MakeConv();
  TensorProgram prog = GenerateProgram(t, SampleSchedule(t, &rng));
  CompactAst ast = ExtractCompactAst(prog);
  std::vector<float> agg = AggregateFeatures(ast);
  ASSERT_EQ(agg.size(), static_cast<size_t>(kFeatDim + 2));
  EXPECT_FLOAT_EQ(agg[kFeatDim], static_cast<float>(ast.num_leaves));
  EXPECT_FLOAT_EQ(agg[kFeatDim + 1], static_cast<float>(ast.num_nodes));
}

}  // namespace
}  // namespace cdmpp
