// Example: the production-shaped DTDBD workflow.
//
//  1. Train teachers, distill a student with DTDBD — checkpointing every
//     epoch and resuming mid-run, the way a preemptible job would.
//  2. Persist the student's weights to disk.
//  3. Reload them into a fresh model and verify identical predictions.
//  4. Print the per-domain error-rate profile of the deployed model.
//
//   ./build/examples/debias_and_save [--scale 0.3] [--epochs 8]
//       [--out /tmp/dtdbd_student.bin] [--ckpt /tmp/dtdbd_student.ckpt]
#include <cstdio>

#include "common/flags.h"
#include "common/table.h"
#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "tensor/serialize.h"
#include "text/frozen_encoder.h"

int main(int argc, char** argv) {
  using namespace dtdbd;
  FlagParser flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.3);
  const int epochs = flags.GetInt("epochs", 8);
  const std::string out_path =
      flags.GetString("out", "/tmp/dtdbd_student.bin");
  const std::string ckpt_path =
      flags.GetString("ckpt", "/tmp/dtdbd_student.ckpt");

  data::NewsDataset dataset =
      data::GenerateCorpus(data::Weibo21Config(scale, /*seed=*/13));
  Rng split_rng(17);
  data::DatasetSplits splits =
      data::StratifiedSplit(dataset, 0.7, 0.1, &split_rng);
  text::FrozenEncoder encoder(dataset.vocab->size(), 32, /*seed=*/19);

  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;
  config.seed = 23;

  // Teachers.
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
  auto clean = models::CreateModel("M3FEND", config);
  TrainOptions topts;
  topts.epochs = epochs;
  const TrainResult clean_trained =
      TrainSupervised(clean.get(), splits.train, nullptr, topts);
  if (!clean_trained.status.ok()) {
    std::printf("clean teacher training failed: %s\n",
                clean_trained.status.ToString().c_str());
    return 1;
  }

  // Student, distilled in two runs to demonstrate crash-resume. The first
  // run checkpoints every epoch and stops halfway (as if preempted); the
  // second starts from a *fresh* model object and resumes from the
  // checkpoint — parameters, Adam moments, RNG streams, shuffle order, and
  // the DAA momentum state all come from the file, so the combined
  // trajectory is bitwise identical to one uninterrupted run.
  const int total_epochs = epochs + 2;
  models::ModelConfig student_config = config;
  student_config.seed = 29;
  auto half_trained = models::CreateModel("TextCNN-S", student_config);
  DtdbdOptions dopts;
  dopts.epochs = total_epochs / 2;
  dopts.checkpoint_path = ckpt_path;
  DtdbdResult first_half = TrainDtdbd(half_trained.get(), unbiased.get(),
                                      clean.get(), splits.train, splits.val,
                                      dopts);
  if (!first_half.status.ok()) {
    std::printf("training failed: %s\n",
                first_half.status.ToString().c_str());
    return 1;
  }
  std::printf("trained %d/%d epochs, checkpointing each to %s\n",
              dopts.epochs, total_epochs, ckpt_path.c_str());

  models::ModelConfig resumed_config = student_config;
  resumed_config.seed = 777;  // init is irrelevant: state comes from disk
  auto student = models::CreateModel("TextCNN-S", resumed_config);
  DtdbdOptions resume_opts = dopts;
  resume_opts.epochs = total_epochs;
  resume_opts.resume_from = ckpt_path;
  DtdbdResult second_half =
      TrainDtdbd(student.get(), unbiased.get(), clean.get(), splits.train,
                 splits.val, resume_opts);
  if (!second_half.status.ok()) {
    std::printf("resume failed: %s\n",
                second_half.status.ToString().c_str());
    return 1;
  }
  std::printf("resumed and finished epochs %d..%d\n", dopts.epochs + 1,
              total_epochs);
  auto report = EvaluateModel(student.get(), splits.test);
  std::printf("distilled student: %s\n", report.Summary().c_str());

  // Persist and restore.
  Status save_status = tensor::SaveTensors(student->NamedParameters(),
                                           out_path);
  if (!save_status.ok()) {
    std::printf("save failed: %s\n", save_status.ToString().c_str());
    return 1;
  }
  std::printf("saved weights to %s\n", out_path.c_str());

  models::ModelConfig fresh_config = student_config;
  fresh_config.seed = 999;  // different init, then overwritten by restore
  auto restored = models::CreateModel("TextCNN-S", fresh_config);
  auto loaded = tensor::LoadTensors(out_path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto params = restored->NamedParameters();
  Status restore_status = tensor::RestoreInto(loaded.value(), &params);
  if (!restore_status.ok()) {
    std::printf("restore failed: %s\n", restore_status.ToString().c_str());
    return 1;
  }
  auto before = PredictFakeProbability(student.get(), splits.test);
  auto after = PredictFakeProbability(restored.get(), splits.test);
  float max_diff = 0.0f;
  for (size_t i = 0; i < before.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(before[i] - after[i]));
  }
  std::printf("restored model max prediction diff: %.2e %s\n", max_diff,
              max_diff < 1e-5f ? "(round trip OK)" : "(MISMATCH!)");

  // Deployment profile: per-domain error rates of the restored model.
  auto final_report = EvaluateModel(restored.get(), splits.test);
  TablePrinter table({"Domain", "F1", "FNR", "FPR"});
  for (int d = 0; d < dataset.num_domains(); ++d) {
    table.AddRow({dataset.domain_names[d],
                  TablePrinter::Fmt(final_report.domain_f1[d]),
                  TablePrinter::Fmt(final_report.per_domain[d].Fnr()),
                  TablePrinter::Fmt(final_report.per_domain[d].Fpr())});
  }
  std::printf("\n");
  table.Print();
  return 0;
}
