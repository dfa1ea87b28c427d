// Shared experiment harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the DTDBD paper.
// The harness owns the common machinery: building the Chinese/English
// corpora (statistics matched to paper Tables IV/V), wiring the frozen
// encoder, training baselines (with the right adversarial settings for
// EANN/EDDFN), training the DAT-IE unbiased teacher, and running DTDBD.
//
// Profiles: the default "quick" profile scales the corpora down and trains
// few epochs so the full bench suite completes in minutes on a laptop;
// pass --full for the larger run. Pass --scale / --epochs to override.
#ifndef DTDBD_BENCH_HARNESS_H_
#define DTDBD_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "metrics/metrics.h"
#include "models/model.h"
#include "text/frozen_encoder.h"

namespace dtdbd::bench {

struct Profile {
  double scale = 0.45;      // corpus scale vs. the paper's dataset sizes
  int epochs = 10;          // baseline / teacher training epochs
  int distill_epochs = 12;  // DTDBD distillation epochs
  int64_t batch_size = 32;
  float lr = 1e-3f;
  float dat_alpha = 2.5f;    // DAT-IE alpha (Eq. 11)
  float dat_lambda = 1.5f;   // gradient-reversal strength for the teacher
  float eann_alpha = 0.5f;   // adversarial weight for EANN/EDDFN baselines
  int64_t encoder_dim = 32;
  uint64_t seed = 2024;
  bool verbose = false;
};

// Builds a profile from --full/--scale/--epochs/--seed/--verbose flags.
Profile ProfileFromFlags(const FlagParser& flags);

// A prepared experiment: corpus, splits, frozen encoder, model config.
class Workbench {
 public:
  Workbench(data::CorpusConfig corpus_config, const Profile& profile);

  Workbench(const Workbench&) = delete;
  Workbench& operator=(const Workbench&) = delete;

  const Profile& profile() const { return profile_; }
  const data::NewsDataset& dataset() const { return dataset_; }
  const data::NewsDataset& train() const { return splits_.train; }
  const data::NewsDataset& val() const { return splits_.val; }
  const data::NewsDataset& test() const { return splits_.test; }
  const models::ModelConfig& model_config() const { return model_config_; }

  // Trains one baseline from the zoo and reports test metrics.
  std::unique_ptr<models::FakeNewsModel> TrainBaseline(
      const std::string& name, metrics::EvalReport* test_report);

  // Trains the DAT-IE unbiased teacher on the given student architecture.
  // beta_ratio 0.2 is the paper's DAT-IE; 0 gives plain DAT (Table IX).
  std::unique_ptr<DatWrapper> TrainUnbiasedTeacher(
      const std::string& student_arch, float beta_ratio,
      metrics::EvalReport* test_report);

  // Distills a fresh `student_arch` student from the given (trained)
  // teachers with DTDBD and reports test metrics. `options_override`
  // customizes the ablation flags; epochs/lr/seed are filled from the
  // profile.
  std::unique_ptr<models::FakeNewsModel> RunDtdbd(
      const std::string& student_arch, models::FakeNewsModel* unbiased,
      models::FakeNewsModel* clean, DtdbdOptions options_override,
      metrics::EvalReport* test_report);

 private:
  Profile profile_;
  data::NewsDataset dataset_;
  data::DatasetSplits splits_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig model_config_;
  uint64_t next_model_seed_;
};

std::unique_ptr<Workbench> MakeChineseBench(const Profile& profile);
std::unique_ptr<Workbench> MakeEnglishBench(const Profile& profile);

// Prints `status` and exits 1 if a training run failed (a resume error, or
// the guard gave up on a diverged run), so no table row is ever printed
// from a half-trained model.
void ExitIfTrainingFailed(const Status& status, const std::string& what);

// Formats an EvalReport row: per-domain F1 columns + overall
// F1/FNED/FPED/Total (the layout of paper Tables VI/VII).
std::vector<std::string> ReportRow(const std::string& name,
                                   const metrics::EvalReport& report,
                                   bool include_domains = true);

}  // namespace dtdbd::bench

#endif  // DTDBD_BENCH_HARNESS_H_
