// Quickstart: the smallest end-to-end DTDBD pipeline.
//
//  1. Generate a Weibo21-like multi-domain corpus (scaled down).
//  2. Train a plain TextCNN-S student and measure its domain bias.
//  3. Train the two teachers (DAT-IE unbiased teacher, MDFEND clean
//     teacher) and distill a fresh student with DTDBD.
//  4. Compare performance (macro F1) and bias (FNED+FPED).
//
// Build & run:  ./build/examples/quickstart [--scale 0.12] [--epochs 3]
#include <cstdio>

#include "common/flags.h"
#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "text/frozen_encoder.h"

int main(int argc, char** argv) {
  using namespace dtdbd;
  FlagParser flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.12);
  const int epochs = flags.GetInt("epochs", 3);

  // 1. Data: domain sizes and fake ratios follow the paper's Table IV.
  data::CorpusConfig corpus = data::Weibo21Config(scale, /*seed=*/7);
  data::NewsDataset dataset = data::GenerateCorpus(corpus);
  Rng split_rng(11);
  data::DatasetSplits splits =
      data::StratifiedSplit(dataset, 0.6, 0.1, &split_rng);
  std::printf("dataset: %lld samples, %d domains (train=%lld val=%lld test=%lld)\n",
              static_cast<long long>(dataset.size()), dataset.num_domains(),
              static_cast<long long>(splits.train.size()),
              static_cast<long long>(splits.val.size()),
              static_cast<long long>(splits.test.size()));

  // Frozen upstream encoder (the paper's frozen BERT stand-in).
  text::FrozenEncoder encoder(dataset.vocab->size(), 32, /*seed=*/21);

  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;
  config.seed = 5;

  TrainOptions topts;
  topts.epochs = epochs;
  topts.verbose = true;

  // 2. Plain student: learns the domain shortcut -> biased.
  auto student_plain = models::CreateModel("TextCNN-S", config);
  const TrainResult plain_trained =
      TrainSupervised(student_plain.get(), splits.train, &splits.val, topts);
  if (!plain_trained.status.ok()) {
    std::printf("plain student training failed: %s\n",
                plain_trained.status.ToString().c_str());
    return 1;
  }
  auto plain_report = EvaluateModel(student_plain.get(), splits.test);
  std::printf("[student]        %s\n", plain_report.Summary().c_str());

  // 3a. Unbiased teacher: student architecture + DAT-IE (Eq. 11).
  DatIeOptions dat_options;
  dat_options.train = topts;
  dat_options.alpha = static_cast<float>(flags.GetDouble("alpha", 2.5));
  models::ModelConfig teacher_config = config;
  teacher_config.adversarial_lambda =
      static_cast<float>(flags.GetDouble("lambda", 1.5));
  TrainResult teacher_trained;
  auto unbiased_teacher =
      TrainUnbiasedTeacher("TextCNN-S", teacher_config, splits.train, nullptr,
                           dat_options, &teacher_trained);
  if (!teacher_trained.status.ok()) {
    std::printf("DAT-IE teacher training failed: %s\n",
                teacher_trained.status.ToString().c_str());
    return 1;
  }
  auto teacher_report = EvaluateModel(unbiased_teacher.get(), splits.test);
  std::printf("[DAT-IE teacher] %s\n", teacher_report.Summary().c_str());

  // 3b. Clean teacher: fine-tuned MDFEND.
  auto clean_teacher = models::CreateModel("MDFEND", config);
  const TrainResult clean_trained =
      TrainSupervised(clean_teacher.get(), splits.train, &splits.val, topts);
  if (!clean_trained.status.ok()) {
    std::printf("clean teacher training failed: %s\n",
                clean_trained.status.ToString().c_str());
    return 1;
  }
  auto clean_report = EvaluateModel(clean_teacher.get(), splits.test);
  std::printf("[clean teacher]  %s\n", clean_report.Summary().c_str());

  // 4. DTDBD distillation into a fresh student.
  models::ModelConfig student_config = config;
  student_config.seed = 31;
  auto student = models::CreateModel("TextCNN-S", student_config);
  DtdbdOptions dopts;
  dopts.epochs = epochs + 2;
  dopts.verbose = true;
  dopts.use_add = flags.GetBool("add", true);
  dopts.use_dkd = flags.GetBool("dkd", true);
  dopts.use_daa = flags.GetBool("daa", true);
  dopts.momentum = static_cast<float>(flags.GetDouble("m", dopts.momentum));
  dopts.w_add_init = flags.GetDouble("wadd", dopts.w_add_init);
  dopts.w_student_ce =
      static_cast<float>(flags.GetDouble("ws", dopts.w_student_ce));
  dopts.tau = static_cast<float>(flags.GetDouble("tau", dopts.tau));
  dopts.add_loss_scale = static_cast<float>(
      flags.GetDouble("add-scale", dopts.add_loss_scale));
  dopts.batch_size = flags.GetInt("dbatch", dopts.batch_size);
  const DtdbdResult distilled =
      TrainDtdbd(student.get(), unbiased_teacher.get(), clean_teacher.get(),
                 splits.train, splits.val, dopts);
  if (!distilled.status.ok()) {
    std::printf("DTDBD distillation failed: %s\n",
                distilled.status.ToString().c_str());
    return 1;
  }
  auto dtdbd_report = EvaluateModel(student.get(), splits.test);
  std::printf("[DTDBD student]  %s\n", dtdbd_report.Summary().c_str());

  std::printf("\nbias (FNED+FPED): plain=%.4f -> dtdbd=%.4f; "
              "F1: plain=%.4f -> dtdbd=%.4f\n",
              plain_report.Total(), dtdbd_report.Total(), plain_report.f1,
              dtdbd_report.f1);

  // Per-domain error rates (the paper's Table III pattern: fake-heavy
  // domains like Disaster/Politics show high FPR; real-heavy domains like
  // Finance/Ent. show high FNR — DTDBD flattens both).
  std::printf("\n%-10s %15s %15s %15s\n", "domain", "plain FNR/FPR",
              "datie FNR/FPR", "dtdbd FNR/FPR");
  for (int d = 0; d < dataset.num_domains(); ++d) {
    std::printf("%-10s  %.3f / %.3f   %.3f / %.3f   %.3f / %.3f\n",
                dataset.domain_names[d].c_str(),
                plain_report.per_domain[d].Fnr(),
                plain_report.per_domain[d].Fpr(),
                teacher_report.per_domain[d].Fnr(),
                teacher_report.per_domain[d].Fpr(),
                dtdbd_report.per_domain[d].Fnr(),
                dtdbd_report.per_domain[d].Fpr());
  }
  return 0;
}
