// Reproduces the paper's §7 figures and tables (plus Figs. 2, 5 and 18), one
// named figure per argument:
//
//   bench_paper fig06 tab03      runs Fig. 6, then Table 3
//
// Every argument must name a row of kFigures; an unknown name exits 1 before
// any figure runs. Each figure builds its own dataset and seeds its own Rngs,
// so its output does not depend on which figures ran before it. Fig. 14(b)
// and Table 6 (schedule search, autotuner) live in bench_tuning.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/baselines/habitat.h"
#include "src/baselines/tiramisu.h"
#include "src/baselines/tlp.h"
#include "src/baselines/xgb_model.h"
#include "src/core/sampler.h"
#include "src/exp/exp_common.h"
#include "src/ml/cmd.h"
#include "src/ml/transforms.h"
#include "src/ml/tsne.h"
#include "src/replay/e2e.h"
#include "src/support/stats.h"

namespace cdmpp {
namespace {

// Helpers shared by several figures.

// Progress line for long sweeps; flushed so a piped log shows it at once.
void PrintDone(const std::string& what) {
  std::printf("[%s done]\n", what.c_str());
  std::fflush(stdout);
}

// The Tiramisu baseline of Figs. 6 and 7, on a short budget: it trains one
// program per optimizer step.
TiramisuConfig BenchTiramisuConfig() {
  TiramisuConfig cfg;
  cfg.epochs = 4;
  cfg.max_train_programs_per_epoch = 1000;
  return cfg;
}

using EvalGrid = std::vector<std::vector<EvalStats>>;  // [device][variant]

// Ablation sweep: on each device's own split (Rng seed_base + device, at most
// `max_train` training samples), pre-trains BenchPredictorConfig(epochs) once
// per value of `field` and evaluates it on the test split.
template <typename T>
EvalGrid SweepPerDevice(const Dataset& ds, const std::vector<int>& devices, uint64_t seed_base,
                        size_t max_train, int epochs, T PredictorConfig::*field,
                        const std::vector<T>& values) {
  EvalGrid grid;
  for (int device : devices) {
    Rng rng(seed_base + static_cast<uint64_t>(device));
    SplitIndices split = SplitDataset(ds, {device}, {}, &rng);
    std::vector<int> train = Take(split.train, max_train);
    std::vector<EvalStats>& row = grid.emplace_back();
    for (const T& value : values) {
      PredictorConfig cfg = BenchPredictorConfig(epochs);
      cfg.*field = value;
      CdmppPredictor predictor(cfg);
      predictor.Pretrain(ds, train, split.valid);
      row.push_back(predictor.Evaluate(ds, split.test));
    }
    PrintDone(DeviceById(device).name);
  }
  return grid;
}

// Prints one row per device: its name, then `cell` of each variant's stats.
void PrintGrid(std::vector<std::string> header, const std::vector<int>& devices,
               const EvalGrid& grid, std::string (*cell)(const EvalStats&)) {
  TablePrinter table(std::move(header));
  for (size_t d = 0; d < devices.size(); ++d) {
    std::vector<std::string> row = {DeviceById(devices[d]).name};
    for (const EvalStats& eval : grid[d]) {
      row.push_back(cell(eval));
    }
    table.AddRow(std::move(row));
  }
  table.Print(stdout);
}

std::string MapeCell(const EvalStats& eval) { return FormatPercent(eval.mape, 2); }

// Cross-device recipe of §7.3: pre-train on (up to 4000) source samples, then
// fine-tune 4 epochs on 2000 source samples plus the target-device programs of
// 20 KMeans-sampled tasks (paper: 50 of ~2000 tasks; we have ~340), with CMD
// between source and target latents.
void PretrainAndFinetuneOnTarget(CdmppPredictor* predictor, const Dataset& ds,
                                 const SplitIndices& src, int target, Rng* rng) {
  predictor->Pretrain(ds, Take(src.train, 4000), src.valid);
  std::vector<int> tasks = SelectTasksKMeans(ds, 20, rng);
  std::vector<int> target_labeled = SamplesForTasksOnDevice(ds, tasks, target);
  std::vector<int> labeled = Take(src.train, 2000);
  labeled.insert(labeled.end(), target_labeled.begin(), target_labeled.end());
  predictor->Finetune(ds, labeled, Take(src.train, 400), Take(SamplesOnDevice(ds, target), 400),
                      4);
}

// 2-D t-SNE (200 iterations) of the latents of the first 120 source and 120
// target samples, written as x, y, is_target rows to `path`.
void WriteTsneCsv(CdmppPredictor* predictor, const Dataset& ds, const std::vector<int>& source,
                  const std::vector<int>& target, uint64_t seed, const std::string& path) {
  std::vector<int> vis = Take(source, 120);
  const size_t num_source = vis.size();
  std::vector<int> vis_target = Take(target, 120);
  vis.insert(vis.end(), vis_target.begin(), vis_target.end());
  Matrix z = predictor->EncodeLatent(ds, vis);
  Rng trng(seed);
  TsneOptions topts;
  topts.iterations = 200;
  Matrix emb = TsneEmbed(z, topts, &trng);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < emb.rows(); ++i) {
    rows.push_back({static_cast<double>(emb.At(i, 0)), static_cast<double>(emb.At(i, 1)),
                    static_cast<size_t>(i) < num_source ? 0.0 : 1.0});
  }
  WriteCsv(path, {"x", "y", "is_target"}, rows);
  std::printf("[t-SNE coordinates written to %s]\n", path.c_str());
}

// Fig. 2: AST node counts vary widely; leaf counts stay in a narrow
// range, which motivates the compact AST and leaf-count batching.
void PrintDistribution(const char* label, const std::vector<double>& xs) {
  std::printf("\n%s: min=%.0f p25=%.0f median=%.0f p75=%.0f max=%.0f\n", label,
              Percentile(xs, 0), Percentile(xs, 25), Percentile(xs, 50), Percentile(xs, 75),
              Percentile(xs, 100));
  const size_t bins = 12;
  auto hist = Histogram(xs, bins);
  double lo = Percentile(xs, 0);
  double hi = Percentile(xs, 100);
  size_t peak = 1;
  for (size_t c : hist) {
    peak = std::max(peak, c);
  }
  for (size_t b = 0; b < bins; ++b) {
    double from = lo + (hi - lo) * static_cast<double>(b) / bins;
    double to = lo + (hi - lo) * static_cast<double>(b + 1) / bins;
    int bar = static_cast<int>(50.0 * static_cast<double>(hist[b]) / static_cast<double>(peak));
    std::printf("  [%5.1f, %5.1f) %6zu %s\n", from, to, hist[b], std::string(bar, '#').c_str());
  }
}

void Fig02() {
  Dataset ds = BuildBenchDataset({0});
  std::vector<double> nodes;
  std::vector<double> leaves;
  for (const ProgramRecord& rec : ds.programs) {
    nodes.push_back(rec.ast.num_nodes);
    leaves.push_back(rec.ast.num_leaves);
  }
  PrintDistribution("(a) AST node count", nodes);
  PrintDistribution("(b) AST leaf-node count", leaves);
  double node_range = Percentile(nodes, 100) - Percentile(nodes, 0);
  double leaf_range = Percentile(leaves, 100) - Percentile(leaves, 0);
  std::printf("\nRange(node count) = %.0f vs Range(leaf count) = %.0f — leaf range is %.1fx"
              " narrower, enabling leaf-count-bucketed batching (paper's key observation).\n",
              node_range, leaf_range, node_range / std::max(1.0, leaf_range));
}

// Fig. 5: raw latency labels are long-tailed; Box-Cox yields the most
// symmetric distribution.
void Fig05() {
  Dataset ds = BuildBenchDataset({0});
  std::vector<double> y;
  for (const Sample& s : ds.samples) {
    y.push_back(s.latency_seconds * 1e3);  // ms
  }
  TablePrinter table({"normalization", "skewness", "mean", "stddev", "p1", "p99"});
  for (NormKind kind : {NormKind::kNone, NormKind::kBoxCox, NormKind::kYeoJohnson,
                        NormKind::kQuantile}) {
    auto tf = MakeLabelTransform(kind);
    tf->Fit(y);
    std::vector<double> t = tf->TransformAll(y);
    table.AddRow({NormKindName(kind), FormatDouble(Skewness(t), 3), FormatDouble(Mean(t), 3),
                  FormatDouble(Stddev(t), 3), FormatDouble(Percentile(t, 1), 3),
                  FormatDouble(Percentile(t, 99), 3)});
  }
  table.Print(stdout);
  std::printf("\nRaw-label skewness = %.2f (long tail, paper Fig. 5(a)).\n", Skewness(y));
  std::printf("Box-Cox should show |skewness| closest to 0 (paper Fig. 5(b)).\n");
}

// Fig. 6 + §7.2: per-device pre-training error of CDMPP, XGBoost and
// Tiramisu, and their training throughput.
void Fig06() {
  Dataset ds = BuildBenchDataset();
  TablePrinter gpu_table({"device", "CDMPP", "XGBoost", "Tiramisu"});
  TablePrinter other_table({"device", "CDMPP", "XGBoost", "Tiramisu"});
  std::vector<double> thr_cdmpp, thr_xgb, thr_tiramisu;
  for (const DeviceSpec& spec : DeviceRegistry()) {
    Rng rng(1000 + static_cast<uint64_t>(spec.id));
    SplitIndices split = SplitDataset(ds, {spec.id}, {}, &rng);

    CdmppPredictor cdmpp(BenchPredictorConfig(/*epochs=*/110));
    TrainStats cdmpp_stats = cdmpp.Pretrain(ds, split.train, split.valid);
    EvalStats cdmpp_eval = cdmpp.Evaluate(ds, split.test);
    thr_cdmpp.push_back(cdmpp_stats.throughput_samples_per_sec);

    XgbCostModel xgb;
    Rng xrng(2000 + static_cast<uint64_t>(spec.id));
    thr_xgb.push_back(xgb.Fit(ds, split.train, &xrng));
    EvalStats xgb_eval = EvalPredictions(ds, split.test, xgb.Predict(ds, split.test));

    TiramisuModel tiramisu(BenchTiramisuConfig());
    thr_tiramisu.push_back(tiramisu.Fit(ds, split.train));
    std::vector<int> tiny_test = Take(split.test, 150);
    EvalStats t_eval = EvalPredictions(ds, tiny_test, tiramisu.Predict(ds, tiny_test));

    TablePrinter& table = spec.cls == DeviceClass::kGpu ? gpu_table : other_table;
    table.AddRow({spec.name, FormatPercent(cdmpp_eval.mape, 2), FormatPercent(xgb_eval.mape, 2),
                  FormatPercent(t_eval.mape, 2)});
    PrintDone(spec.name);
  }
  std::printf("\n(a) GPUs — MAPE at the TIR level:\n");
  gpu_table.Print(stdout);
  std::printf("\n(b) Inference accelerator and CPUs — MAPE at the TIR level:\n");
  other_table.Print(stdout);

  std::printf("\nTraining throughput (samples/s, averaged over devices) — paper §7.2 reports"
              " XGBoost 644588 >> CDMPP 14241 >> Tiramisu 1870:\n");
  TablePrinter thr({"method", "samples/s"});
  thr.AddRow({"XGBoost", FormatDouble(Mean(thr_xgb), 0)});
  thr.AddRow({"CDMPP", FormatDouble(Mean(thr_cdmpp), 0)});
  thr.AddRow({"Tiramisu", FormatDouble(Mean(thr_tiramisu), 0)});
  thr.Print(stdout);
}

// Fig. 7 / Fig. 15: cross-model error on hold-out networks. CDMPP
// pre-trains on the other models and fine-tunes with CMD against the target
// network's input features only (§7.2).
void Fig07() {
  Dataset ds = BuildBenchDataset({0, 7});  // T4, AMD EPYC 7452
  std::vector<int> holdout_ids;
  for (const std::string& name : HoldoutNetworkNames()) {
    int id = ds.ModelIdByName(name);
    CDMPP_CHECK(id >= 0);
    holdout_ids.push_back(id);
  }
  for (int device : {0, 7}) {
    const DeviceSpec& spec = DeviceById(device);
    std::printf("\nCross-model learning on %s:\n", spec.name.c_str());
    Rng rng(3000 + static_cast<uint64_t>(device));
    SplitIndices split = SplitDataset(ds, {device}, holdout_ids, &rng);

    XgbCostModel xgb;
    Rng xrng(3100 + static_cast<uint64_t>(device));
    xgb.Fit(ds, split.train, &xrng);
    TiramisuModel tiramisu(BenchTiramisuConfig());
    tiramisu.Fit(ds, split.train);

    TablePrinter table({"target network", "CDMPP (finetuned)", "XGBoost", "Tiramisu"});
    for (size_t h = 0; h < holdout_ids.size(); ++h) {
      std::vector<int> target = SamplesOfModelOnDevice(ds, holdout_ids[h], device);
      CDMPP_CHECK(!target.empty());
      // Fine-tune per target network: labels from the source models only,
      // CMD between source latents and the target network's features.
      CdmppPredictor tuned(BenchPredictorConfig(50));
      tuned.Pretrain(ds, split.train, split.valid);
      tuned.Finetune(ds, split.train, Take(split.train, 400), Take(target, 400), 3);

      EvalStats cdmpp_eval = tuned.Evaluate(ds, target);
      EvalStats xgb_eval = EvalPredictions(ds, target, xgb.Predict(ds, target));
      std::vector<int> tiny = Take(target, 120);
      EvalStats t_eval = EvalPredictions(ds, tiny, tiramisu.Predict(ds, tiny));
      table.AddRow({HoldoutNetworkNames()[h], FormatPercent(cdmpp_eval.mape, 2),
                    FormatPercent(xgb_eval.mape, 2), FormatPercent(t_eval.mape, 2)});
    }
    table.Print(stdout);
  }
  std::printf("\nPaper's qualitative claim: CDMPP achieves the lowest error on every"
              " target network (Fig. 7).\n");
}

// Fig. 8 / Fig. 16: latent CMD between source models and a hold-out
// network with and without the CMD regularizer; the paper's t-SNE plots are
// written as CSV.
void Fig08() {
  Dataset ds = BuildBenchDataset({0});
  TablePrinter table({"target network", "CMD w/o reg", "CMD w/ reg", "reduction"});
  for (const std::string& target_name :
       {std::string("bert_tiny_bs1_s128"), std::string("mobilenet_v2_w100_bs1_r224")}) {
    int target_id = ds.ModelIdByName(target_name);
    CDMPP_CHECK(target_id >= 0);
    Rng rng(4000);
    SplitIndices split = SplitDataset(ds, {0}, {target_id}, &rng);
    std::vector<int> target = SamplesOfModelOnDevice(ds, target_id, 0);
    std::vector<int> source = Take(split.train, 400);

    // Without CMD: plain pre-training.
    CdmppPredictor plain(BenchPredictorConfig(40));
    plain.Pretrain(ds, split.train, {});
    double cmd_without =
        CmdDistance(plain.EncodeLatent(ds, source), plain.EncodeLatent(ds, Take(target, 400)));

    // With CMD: fine-tune adds the regularizer against the target features.
    CdmppPredictor reg(BenchPredictorConfig(40));
    reg.Pretrain(ds, split.train, {});
    reg.Finetune(ds, split.train, source, Take(target, 400), 4);
    double cmd_with =
        CmdDistance(reg.EncodeLatent(ds, source), reg.EncodeLatent(ds, Take(target, 400)));

    table.AddRow({target_name, FormatDouble(cmd_without, 4), FormatDouble(cmd_with, 4),
                  FormatPercent(1.0 - cmd_with / std::max(1e-12, cmd_without), 1)});
    WriteTsneCsv(&reg, ds, source, target, 5, "fig08_tsne_" + target_name + ".csv");
  }
  table.Print(stdout);
  std::printf("\nPaper's claim: CMD regularization reduces the representation discrepancy"
              " between source and target networks (Fig. 8(b) vs 8(a)).\n");
}

// Fig. 9 / Fig. 17: end-to-end network latency composed from per-program
// predictions by the replayer, against the ground-truth replay.
void Fig09() {
  // One cross-device CDMPP predictor (trained on T4 + V100 + HL-100 jointly);
  // one XGBoost with device features.
  Dataset ds = BuildBenchDataset({0, 3, 5});
  Rng rng(5000);
  SplitIndices split = SplitDataset(ds, {}, {}, &rng);
  CdmppPredictor cdmpp(BenchPredictorConfig(45));
  cdmpp.Pretrain(ds, split.train, split.valid);
  XgbCostModel xgb;
  Rng xrng(5100);
  xgb.Fit(ds, split.train, &xrng);

  const std::vector<std::pair<std::string, std::string>> workloads = {
      {"resnet50_bs1_r224", "ResNet-50 (1)"},   {"resnet50_bs4_r224", "ResNet-50 (4)"},
      {"resnet50_bs8_r224", "ResNet-50 (8)"},   {"inception_v3_bs1_r224", "InceptionV3 (1)"},
      {"bert_base_bs1_s128", "BERT Base (1)"},  {"bert_base_bs4_s128", "BERT Base (4)"},
  };
  std::vector<double> cdmpp_errors;
  std::vector<double> xgb_errors;
  for (int device : {0, 3, 5}) {
    const DeviceSpec& spec = DeviceById(device);
    std::printf("\nEnd-to-end prediction on %s%s:\n", spec.name.c_str(),
                device == 5 ? " (Fig. 9(c) suite, GEMM ops split across 3 engines)" : "");
    TablePrinter table({"network", "truth (ms)", "CDMPP (ms)", "CDMPP err", "XGB (ms)",
                        "XGB err"});
    for (const auto& [name, label] : workloads) {
      NetworkDef net = BuildNetworkByName(name);
      NetworkSchedules scheds = ChooseSchedules(net, 77);
      double truth = E2eGroundTruth(net, spec, scheds);
      double pred_cdmpp = E2ePredicted(net, spec, scheds, [&](const CompactAst& ast, int dev) {
        return cdmpp.PredictAst(ast, dev);
      });
      double pred_xgb = E2ePredicted(net, spec, scheds, [&](const CompactAst& ast, int dev) {
        return xgb.PredictAst(ast, dev);
      });
      double err_c = std::abs(pred_cdmpp - truth) / truth;
      double err_x = std::abs(pred_xgb - truth) / truth;
      cdmpp_errors.push_back(err_c);
      xgb_errors.push_back(err_x);
      table.AddRow({label, FormatDouble(truth * 1e3, 3), FormatDouble(pred_cdmpp * 1e3, 3),
                    FormatPercent(err_c, 1), FormatDouble(pred_xgb * 1e3, 3),
                    FormatPercent(err_x, 1)});
    }
    table.Print(stdout);
  }
  std::printf("\nAverage end-to-end error: CDMPP %.1f%%, XGBoost %.1f%% (paper: 12.4%% vs"
              " 63.8%%; Tiramisu 293.6%%).\n",
              Mean(cdmpp_errors) * 100.0, Mean(xgb_errors) * 100.0);
}

// Fig. 10: cross-device error under the three source -> target scenarios
// of §7.3, against TLP (relative-time model) and Habitat (roofline scaling;
// GPUs only).
void Fig10() {
  struct Scenario {
    std::string label;
    std::vector<int> sources;
    int target;
    bool habitat_supported;
  };
  Dataset ds = BuildBenchDataset();
  const std::vector<Scenario> scenarios = {
      {"GPUs -> T4 (GPU)", {1, 2, 3, 4}, 0, true},
      {"GPUs+CPUs -> EPYC (CPU)", {0, 1, 2, 3, 4, 6, 8}, 7, false},
      {"GPUs -> HL-100 (accel)", {0, 1, 2, 3, 4}, 5, false},
  };
  TablePrinter table({"scenario", "CDMPP", "TLP", "Habitat"});
  for (const Scenario& sc : scenarios) {
    Rng rng(6000 + static_cast<uint64_t>(sc.target));
    SplitIndices src = SplitDataset(ds, sc.sources, {}, &rng);
    SplitIndices tgt = SplitDataset(ds, {sc.target}, {}, &rng);

    CdmppPredictor cdmpp(BenchPredictorConfig(30));
    PretrainAndFinetuneOnTarget(&cdmpp, ds, src, sc.target, &rng);
    EvalStats cdmpp_eval = cdmpp.Evaluate(ds, tgt.test);

    // TLP: trained on sources (device features included), absolute time via
    // the source task means.
    TlpConfig tlp_cfg;
    tlp_cfg.epochs = 15;
    TlpModel tlp(tlp_cfg);
    tlp.Fit(ds, Take(src.train, 4000));
    EvalStats tlp_eval = EvalPredictions(ds, tgt.test, tlp.Predict(ds, tgt.test));

    std::string habitat_cell = "n/a (GPUs only)";
    if (sc.habitat_supported) {
      HabitatModel habitat{HabitatConfig{}};
      habitat.Fit(ds, src.train, /*source_device=*/sc.sources.front());
      EvalStats h_eval = EvalPredictions(ds, tgt.test, habitat.Predict(ds, tgt.test));
      habitat_cell = FormatPercent(h_eval.mape, 2);
    }
    table.AddRow({sc.label, FormatPercent(cdmpp_eval.mape, 2), FormatPercent(tlp_eval.mape, 2),
                  habitat_cell});
    PrintDone(sc.label);
  }
  table.Print(stdout);
  std::printf("\nPaper's claims: CDMPP lowest everywhere (10.85%% avg); TLP large on"
              " absolute time; Habitat GPU-only and schedule-blind.\n");
}

// Fig. 11: CMD between GPU and EPYC latents before and after
// cross-device fine-tuning, plus the t-SNE CSV.
void Fig11() {
  Dataset ds = BuildBenchDataset({0, 3, 7});  // T4, V100 sources; EPYC target
  Rng rng(7000);
  SplitIndices src = SplitDataset(ds, {0, 3}, {}, &rng);
  std::vector<int> src_sub = Take(src.train, 400);
  std::vector<int> tgt_sub = Take(SamplesOnDevice(ds, 7), 400);

  PredictorConfig cfg = BenchPredictorConfig(40);
  cfg.alpha_cmd = 1.5;  // emphasize the CMD term so the alignment is visible
  CdmppPredictor predictor(cfg);
  predictor.Pretrain(ds, src.train, {});
  double before = CmdDistance(predictor.EncodeLatent(ds, src_sub),
                              predictor.EncodeLatent(ds, tgt_sub));
  // One-epoch fine-tune steps: Finetune keeps its best-validation snapshot,
  // which with a single epoch is simply the epoch-end state, so CMD progress
  // accumulates across calls.
  for (int step = 0; step < 8; ++step) {
    predictor.Finetune(ds, Take(src.train, 2000), src_sub, tgt_sub, 1);
  }
  double after = CmdDistance(predictor.EncodeLatent(ds, src_sub),
                             predictor.EncodeLatent(ds, tgt_sub));

  TablePrinter table({"stage", "CMD(GPU latents, EPYC latents)"});
  table.AddRow({"before fine-tuning (Fig. 11(a))", FormatDouble(before, 4)});
  table.AddRow({"after fine-tuning (Fig. 11(b))", FormatDouble(after, 4)});
  table.Print(stdout);
  std::printf("\nReduction: %.1f%% — fine-tuning aligns source and target device"
              " representations (paper Fig. 11).\n",
              (1.0 - after / std::max(1e-12, before)) * 100.0);
  WriteTsneCsv(&predictor, ds, src_sub, tgt_sub, 8, "fig11_tsne_epyc.csv");
}

// Fig. 12: cross-device end-to-end prediction onto unseen GPUs against
// Habitat. TLP is excluded as in the paper: relative times do not sum to an
// end-to-end latency.
void Fig12() {
  Dataset ds = BuildBenchDataset({0, 1, 2, 3, 4});  // all GPUs
  const std::vector<std::string> nets = {"resnet50_bs1_r224", "bert_tiny_bs1_s128",
                                         "inception_v3_bs1_r224"};
  for (int target : {2, 3}) {  // P100, V100
    std::vector<int> sources;
    for (int g : GpuDeviceIds()) {
      if (g != target) {
        sources.push_back(g);
      }
    }
    Rng rng(8000 + static_cast<uint64_t>(target));
    SplitIndices src = SplitDataset(ds, sources, {}, &rng);
    CdmppPredictor cdmpp(BenchPredictorConfig(22));
    PretrainAndFinetuneOnTarget(&cdmpp, ds, src, target, &rng);
    HabitatModel habitat{HabitatConfig{}};
    habitat.Fit(ds, src.train, sources.front());

    const DeviceSpec& spec = DeviceById(target);
    std::printf("\nPrediction onto %s:\n", spec.name.c_str());
    TablePrinter table({"network", "truth (ms)", "CDMPP (ms)", "CDMPP err", "Habitat (ms)",
                        "Habitat err"});
    std::vector<double> cerr, herr;
    for (const std::string& name : nets) {
      NetworkDef net = BuildNetworkByName(name);
      NetworkSchedules scheds = ChooseSchedules(net, 88);
      double truth = E2eGroundTruth(net, spec, scheds);
      double pc = E2ePredicted(net, spec, scheds, [&](const CompactAst& ast, int dev) {
        return cdmpp.PredictAst(ast, dev);
      });
      // Habitat predicts at the operator level (schedule-blind).
      double ph = ReplayNetwork(net, spec, [&](const NetworkOp& op) {
        return habitat.PredictTask(op.task, target);
      });
      cerr.push_back(std::abs(pc - truth) / truth);
      herr.push_back(std::abs(ph - truth) / truth);
      table.AddRow({name, FormatDouble(truth * 1e3, 3), FormatDouble(pc * 1e3, 3),
                    FormatPercent(cerr.back(), 1), FormatDouble(ph * 1e3, 3),
                    FormatPercent(herr.back(), 1)});
    }
    table.Print(stdout);
    std::printf("Average: CDMPP %.1f%% vs Habitat %.1f%% (paper: 15.72%% vs 28.01%%).\n",
                Mean(cerr) * 100.0, Mean(herr) * 100.0);
  }
}

// Fig. 13: KMeans (Algorithm 1) vs random task selection for
// cross-device fine-tuning onto T4, per budget of sampled tasks.
void Fig13() {
  Dataset ds = BuildBenchDataset({0, 1, 2, 3, 4});
  const int target = 0;  // T4
  std::vector<int> sources = {1, 2, 3, 4};
  Rng rng(9000);
  SplitIndices src = SplitDataset(ds, sources, {}, &rng);
  SplitIndices tgt = SplitDataset(ds, {target}, {}, &rng);
  std::vector<int> tgt_domain = Take(SamplesOnDevice(ds, target), 400);
  std::vector<int> src_domain = Take(src.train, 400);

  // Pre-train once on the source GPUs; every fine-tuning run restarts from
  // this state, so the sweep isolates the effect of the sampling strategy.
  CdmppPredictor predictor(BenchPredictorConfig(22));
  predictor.Pretrain(ds, Take(src.train, 4000), {});
  // Touch target samples once so the leaf-count heads exist before export.
  predictor.Evaluate(ds, Take(tgt.test, 8));
  std::vector<Matrix> pretrained = predictor.ExportParams();

  auto finetune_and_eval = [&](const std::vector<int>& tasks) {
    predictor.ImportParams(pretrained);
    std::vector<int> target_labeled = SamplesForTasksOnDevice(ds, tasks, target);
    std::vector<int> labeled = Take(src.train, 1500);
    labeled.insert(labeled.end(), target_labeled.begin(), target_labeled.end());
    predictor.Finetune(ds, labeled, src_domain, tgt_domain, 4);
    return predictor.Evaluate(ds, tgt.test).mape;
  };

  TablePrinter table({"# sampled tasks", "KMeans sampling", "random sampling (avg of 3)"});
  for (int kappa : {5, 15, 30, 60}) {
    Rng krng(9100 + static_cast<uint64_t>(kappa));
    double kmeans_mape = finetune_and_eval(SelectTasksKMeans(ds, kappa, &krng));
    std::vector<double> random_mapes;
    for (uint64_t rep = 0; rep < 3; ++rep) {
      Rng rrng(9200 + static_cast<uint64_t>(kappa) * 10 + rep);
      random_mapes.push_back(finetune_and_eval(SelectTasksRandom(ds, kappa, &rrng)));
    }
    table.AddRow({std::to_string(kappa), FormatPercent(kmeans_mape, 2),
                  FormatPercent(Mean(random_mapes), 2)});
    PrintDone("kappa=" + std::to_string(kappa));
  }
  table.Print(stdout);
  std::printf("\nPaper's claims: KMeans sampling beats random at equal budgets, and the"
              " error saturates beyond ~50 sampled tasks (Fig. 13).\n");
}

// Fig. 14(a): the positional-encoding ablation (§4.2), per device.
void Fig14a() {
  const std::vector<int> devices = {0, 3};  // T4, V100
  Dataset ds = BuildBenchDataset(devices);
  EvalGrid grid =
      SweepPerDevice(ds, devices, 12000, SIZE_MAX, 90, &PredictorConfig::use_pe, {true, false});
  PrintGrid({"device", "w/ PE", "w/o PE"}, devices, grid, MapeCell);
  std::printf("\nPaper's claim: encoding leaf positions reduces prediction error"
              " (Fig. 14(a)).\n");
}

// Fig. 18 (Appendix D.3): CMD(train subset, test subset) against the
// test error on that subset, cross-model and cross-device; the paper observes
// a positive correlation.
void Fig18() {
  Dataset ds = BuildBenchDataset();
  Rng rng(14000);

  // (a) Cross-model: train on T4; test subsets = per-model sample sets.
  SplitIndices split = SplitDataset(ds, {0}, {}, &rng);
  CdmppPredictor predictor(BenchPredictorConfig(40));
  predictor.Pretrain(ds, split.train, split.valid);
  std::vector<int> train_sub = Take(split.train, 400);
  Matrix z_train = predictor.EncodeLatent(ds, train_sub);

  std::vector<double> cmds;
  std::vector<double> errors;
  std::vector<std::vector<double>> rows;
  for (const NetworkDef& net : ds.networks) {
    std::vector<int> subset = Take(SamplesOfModelOnDevice(ds, net.id, 0), 200);
    if (subset.size() < 30) {
      continue;
    }
    double cmd = CmdDistance(z_train, predictor.EncodeLatent(ds, subset));
    double mape = predictor.Evaluate(ds, subset).mape;
    cmds.push_back(cmd);
    errors.push_back(mape);
    rows.push_back({cmd, mape, 0.0});
  }
  double corr_model = PearsonCorrelation(cmds, errors);
  std::printf("(a) Cross-model (T4): %zu model subsets, Pearson(CMD, test MAPE) = %.3f\n",
              cmds.size(), corr_model);

  // (b) Cross-device: same model set, test subsets = per-device samples.
  std::vector<double> dev_cmds;
  std::vector<double> dev_errors;
  for (const DeviceSpec& spec : DeviceRegistry()) {
    if (spec.id == 0) {
      continue;
    }
    std::vector<int> subset = Take(SamplesOnDevice(ds, spec.id), 200);
    double cmd = CmdDistance(z_train, predictor.EncodeLatent(ds, subset));
    double mape = predictor.Evaluate(ds, subset).mape;
    dev_cmds.push_back(cmd);
    dev_errors.push_back(mape);
    rows.push_back({cmd, mape, 1.0});
  }
  double corr_device = PearsonCorrelation(dev_cmds, dev_errors);
  std::printf("(b) Cross-device (train T4): %zu device subsets, Pearson(CMD, MAPE) = %.3f\n",
              dev_cmds.size(), corr_device);

  WriteCsv("fig18_cmd_vs_error.csv", {"cmd", "test_mape", "is_cross_device"}, rows);
  std::printf("[scatter data written to fig18_cmd_vs_error.csv]\n");
  std::printf("\nPaper's claim: test error is positively related to the CMD between the"
              " training and test distributions (both correlations should be > 0).\n");
}

// Table 3: pre-training error under each label normalization (§5.4).
void Tab03() {
  const std::vector<int> devices = {0, 4, 1};  // T4, A100, K80
  Dataset ds = BuildBenchDataset(devices);
  EvalGrid grid = SweepPerDevice(
      ds, devices, 10000, 900, 28, &PredictorConfig::norm,
      {NormKind::kBoxCox, NormKind::kYeoJohnson, NormKind::kQuantile, NormKind::kNone});
  PrintGrid({"device", "Box-Cox", "Yeo-Johnson", "Quantile", "original Y"}, devices, grid,
            MapeCell);
  std::printf("\nPaper Table 3 (MAPE %%): T4 15.18/49.30/17.88/72.55;"
              " A100 17.53/20.09/17.38/68.77; K80 14.79/24.88/15.37/71.34.\n"
              "Expected shape: Box-Cox (or Quantile) best; original Y much worse.\n");
}

// Tables 4 and 5 print MAPE and RMSE from one sweep over training objectives
// (§5.2); the hybrid MSE+MAPE of Eqn. 3 should win on both.
void Tab04And05() {
  const std::vector<int> devices = {0, 4, 1};
  Dataset ds = BuildBenchDataset(devices);
  EvalGrid grid = SweepPerDevice(
      ds, devices, 11000, 900, 28, &PredictorConfig::loss,
      {LossKind::kMse, LossKind::kMape, LossKind::kMspe, LossKind::kHybrid});
  const std::vector<std::string> header = {"device", "MSE", "MAPE", "MSPE", "MSE+MAPE"};
  std::printf("\nTable 4 analogue — MAPE by training objective:\n");
  PrintGrid(header, devices, grid, MapeCell);
  std::printf("\nTable 5 analogue — RMSE (ms) by training objective:\n");
  PrintGrid(header, devices, grid,
            [](const EvalStats& eval) { return FormatDouble(eval.rmse_ms, 3); });
  std::printf("\nPaper shape: MSE alone -> large relative error; MAPE/MSPE alone ->"
              " underestimation and large RMSE; MSE+MAPE best on both metrics.\n");
}

struct Figure {
  const char* name;
  const char* paper_ref;
  const char* description;
  void (*run)();
};

constexpr Figure kFigures[] = {
    {"fig02", "Fig. 2", "AST node-count vs leaf-node-count distributions over the dataset", Fig02},
    {"fig05", "Fig. 5", "latency label distribution under each normalization (T4)", Fig05},
    {"fig06", "Fig. 6 + §7.2 throughput",
     "per-device pre-training MAPE: CDMPP vs XGBoost vs Tiramisu", Fig06},
    {"fig07", "Fig. 7 / Fig. 15", "cross-model MAPE on hold-out networks (T4, EPYC)", Fig07},
    {"fig08", "Fig. 8 / Fig. 16",
     "latent CMD between source models and a hold-out network, w/ and w/o CMD regularization"
     " (T4)",
     Fig08},
    {"fig09", "Fig. 9 / Fig. 17", "end-to-end network latency: prediction vs ground-truth replay",
     Fig09},
    {"fig10", "Fig. 10", "cross-device MAPE: CDMPP vs TLP vs Habitat", Fig10},
    {"fig11", "Fig. 11", "latent CMD before/after CDPP fine-tuning (target: EPYC)", Fig11},
    {"fig12", "Fig. 12", "cross-device end-to-end prediction (targets P100, V100) vs Habitat",
     Fig12},
    {"fig13", "Fig. 13",
     "KMeans vs random task sampling for cross-device fine-tuning (target T4)", Fig13},
    {"fig14a", "Fig. 14(a)", "MAPE with and without the pre-order positional encoding", Fig14a},
    {"fig18", "Fig. 18", "correlation between latent CMD(train, test) and test error", Fig18},
    {"tab03", "Table 3", "MAPE by label-normalization method (T4, A100, K80)", Tab03},
    {"tab04_05", "Tables 4 and 5", "MAPE and RMSE by training objective (T4, A100, K80)",
     Tab04And05},
};

int Main(int argc, char** argv) {
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const Figure* fig = std::find_if(std::begin(kFigures), std::end(kFigures), [&](const Figure& f) {
      return std::strcmp(f.name, argv[i]) == 0;
    });
    if (fig == std::end(kFigures)) {
      std::fprintf(stderr, "bench_paper: unknown figure '%s'\n", argv[i]);
      return 1;
    }
    selected.push_back(fig);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "usage: bench_paper FIGURE...  (FIGURE:");
    for (const Figure& fig : kFigures) {
      std::fprintf(stderr, " %s", fig.name);
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }
  for (const Figure* fig : selected) {
    PrintBenchHeader(std::string("bench_paper ") + fig->name, fig->paper_ref, fig->description);
    fig->run();
  }
  return 0;
}

}  // namespace
}  // namespace cdmpp

int main(int argc, char** argv) { return cdmpp::Main(argc, argv); }
