// Example: bias audit on the English (FakeNewsNet+COVID-like) corpus.
//
// Trains MDFEND (a strong multi-domain detector) and a DTDBD student, then
// contrasts their per-domain FNR/FPR. Gossipcop and COVID are real-heavy
// (23% / 22% fake), so a prior-leaning model under-calls "fake" there; the
// paper's Table VII shows DTDBD cutting the equality differences roughly
// in half while giving up ~1 point of F1.
//
//   ./build/examples/english_bias_study [--scale 0.15] [--epochs 8]
#include <cstdio>

#include "common/flags.h"
#include "common/table.h"
#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "text/frozen_encoder.h"

int main(int argc, char** argv) {
  using namespace dtdbd;
  FlagParser flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.2);
  const int epochs = flags.GetInt("epochs", 10);

  data::NewsDataset dataset =
      data::GenerateCorpus(data::EnglishConfig(scale, /*seed=*/41));
  Rng split_rng(43);
  data::DatasetSplits splits =
      data::StratifiedSplit(dataset, 0.7, 0.1, &split_rng);
  std::printf("English corpus: %lld samples over %d domains\n",
              static_cast<long long>(dataset.size()), dataset.num_domains());

  text::FrozenEncoder encoder(dataset.vocab->size(), 32, /*seed=*/47);
  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;
  config.seed = 53;

  // Baseline detector.
  auto mdfend = models::CreateModel("MDFEND", config);
  TrainOptions topts;
  topts.epochs = epochs;
  const TrainResult mdfend_trained =
      TrainSupervised(mdfend.get(), splits.train, nullptr, topts);
  if (!mdfend_trained.status.ok()) {
    std::printf("MDFEND training failed: %s\n",
                mdfend_trained.status.ToString().c_str());
    return 1;
  }
  auto mdfend_report = EvaluateModel(mdfend.get(), splits.test);
  std::printf("MDFEND: %s\n", mdfend_report.Summary().c_str());

  // DTDBD student with MDFEND as the clean teacher ("Our(MD)").
  DatIeOptions dat_options;
  dat_options.train.epochs = epochs * 3 / 2;
  models::ModelConfig teacher_config = config;
  teacher_config.adversarial_lambda = 1.5f;
  TrainResult teacher_trained;
  auto unbiased = TrainUnbiasedTeacher("TextCNN-S", teacher_config,
                                       splits.train, nullptr, dat_options,
                                       &teacher_trained);
  if (!teacher_trained.status.ok()) {
    std::printf("DAT-IE teacher training failed: %s\n",
                teacher_trained.status.ToString().c_str());
    return 1;
  }
  models::ModelConfig student_config = config;
  student_config.seed = 59;
  auto student = models::CreateModel("TextCNN-S", student_config);
  DtdbdOptions dopts;
  dopts.epochs = epochs + 2;
  const DtdbdResult distilled = TrainDtdbd(
      student.get(), unbiased.get(), mdfend.get(), splits.train, splits.val,
      dopts);
  if (!distilled.status.ok()) {
    std::printf("DTDBD distillation failed: %s\n",
                distilled.status.ToString().c_str());
    return 1;
  }
  auto dtdbd_report = EvaluateModel(student.get(), splits.test);
  std::printf("Our(MD): %s\n\n", dtdbd_report.Summary().c_str());

  TablePrinter table({"Domain", "MDFEND FNR", "MDFEND FPR", "Our(MD) FNR",
                      "Our(MD) FPR"});
  for (int d = 0; d < dataset.num_domains(); ++d) {
    table.AddRow({dataset.domain_names[d],
                  TablePrinter::Fmt(mdfend_report.per_domain[d].Fnr()),
                  TablePrinter::Fmt(mdfend_report.per_domain[d].Fpr()),
                  TablePrinter::Fmt(dtdbd_report.per_domain[d].Fnr()),
                  TablePrinter::Fmt(dtdbd_report.per_domain[d].Fpr())});
  }
  table.Print();
  std::printf("\nTotal equality difference: MDFEND %.4f -> Our(MD) %.4f\n",
              mdfend_report.Total(), dtdbd_report.Total());
  return 0;
}
