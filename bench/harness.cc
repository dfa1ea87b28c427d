#include "harness.h"

#include <cstdio>
#include <cstdlib>

#include "common/table.h"

namespace dtdbd::bench {

Profile ProfileFromFlags(const FlagParser& flags) {
  Profile profile;
  if (flags.GetBool("full", false)) {
    profile.scale = 1.0;
    profile.epochs = 15;
    profile.distill_epochs = 18;
  }
  profile.scale = flags.GetDouble("scale", profile.scale);
  profile.epochs = flags.GetInt("epochs", profile.epochs);
  profile.distill_epochs =
      flags.GetInt("distill-epochs", profile.distill_epochs);
  profile.batch_size = flags.GetInt("batch", profile.batch_size);
  profile.lr = static_cast<float>(flags.GetDouble("lr", profile.lr));
  profile.seed = flags.GetInt("seed", static_cast<int>(profile.seed));
  profile.verbose = flags.GetBool("verbose", profile.verbose);
  return profile;
}

Workbench::Workbench(data::CorpusConfig corpus_config, const Profile& profile)
    : profile_(profile), next_model_seed_(profile.seed * 31 + 7) {
  corpus_config.scale = profile.scale;
  corpus_config.seed = profile.seed;
  dataset_ = data::GenerateCorpus(corpus_config);
  Rng split_rng(profile.seed ^ 0xD1B54A32D192ED03ULL);
  splits_ = data::StratifiedSplit(dataset_, 0.6, 0.1, &split_rng);
  encoder_ = std::make_unique<text::FrozenEncoder>(
      dataset_.vocab->size(), profile.encoder_dim, profile.seed + 1);
  model_config_.vocab_size = dataset_.vocab->size();
  model_config_.num_domains = dataset_.num_domains();
  model_config_.encoder = encoder_.get();
  model_config_.seed = profile.seed + 2;
}

std::unique_ptr<models::FakeNewsModel> Workbench::TrainBaseline(
    const std::string& name, metrics::EvalReport* test_report) {
  models::ModelConfig config = model_config_;
  config.seed = next_model_seed_++;
  auto model = models::CreateModel(name, config);
  TrainOptions options;
  options.epochs = profile_.epochs;
  options.batch_size = profile_.batch_size;
  options.lr = profile_.lr;
  options.seed = profile_.seed + 100;
  options.verbose = profile_.verbose;
  if (name == "EANN" || name == "EDDFN") {
    options.domain_loss_weight = profile_.eann_alpha;
  }
  ExitIfTrainingFailed(
      TrainSupervised(model.get(), splits_.train, nullptr, options).status,
      name);
  if (test_report != nullptr) {
    *test_report = EvaluateModel(model.get(), splits_.test);
  }
  return model;
}

std::unique_ptr<DatWrapper> Workbench::TrainUnbiasedTeacher(
    const std::string& student_arch, float beta_ratio,
    metrics::EvalReport* test_report) {
  models::ModelConfig config = model_config_;
  config.seed = next_model_seed_++;
  config.adversarial_lambda = profile_.dat_lambda;
  DatIeOptions options;
  // The adversarial min-max game converges slower than plain supervised
  // training; give the teacher extra epochs.
  options.train.epochs = profile_.epochs * 3 / 2;
  options.train.batch_size = profile_.batch_size;
  options.train.lr = profile_.lr;
  options.train.seed = profile_.seed + 200;
  options.train.verbose = profile_.verbose;
  options.alpha = profile_.dat_alpha;
  options.beta_ratio = beta_ratio;
  TrainResult trained;
  auto teacher = dtdbd::TrainUnbiasedTeacher(
      student_arch, config, splits_.train, nullptr, options, &trained);
  ExitIfTrainingFailed(trained.status, "DAT-IE teacher " + student_arch);
  if (test_report != nullptr) {
    *test_report = EvaluateModel(teacher.get(), splits_.test);
  }
  return teacher;
}

std::unique_ptr<models::FakeNewsModel> Workbench::RunDtdbd(
    const std::string& student_arch, models::FakeNewsModel* unbiased,
    models::FakeNewsModel* clean, DtdbdOptions options,
    metrics::EvalReport* test_report) {
  models::ModelConfig config = model_config_;
  config.seed = next_model_seed_++;
  auto student = models::CreateModel(student_arch, config);
  options.epochs = profile_.distill_epochs;
  // See DtdbdOptions::batch_size: distillation wants larger batches.
  options.batch_size = std::max<int64_t>(64, profile_.batch_size);
  options.lr = profile_.lr;
  options.seed = profile_.seed + 300;
  options.verbose = profile_.verbose;
  ExitIfTrainingFailed(TrainDtdbd(student.get(), unbiased, clean,
                                  splits_.train, splits_.val, options)
                           .status,
                       "DTDBD " + student_arch);
  if (test_report != nullptr) {
    *test_report = EvaluateModel(student.get(), splits_.test);
  }
  return student;
}

std::unique_ptr<Workbench> MakeChineseBench(const Profile& profile) {
  return std::make_unique<Workbench>(data::Weibo21Config(1.0, 0), profile);
}

std::unique_ptr<Workbench> MakeEnglishBench(const Profile& profile) {
  Profile english = profile;
  // The English corpus is 3x the Chinese one; scale to a comparable size.
  english.scale = profile.scale * 0.45;
  return std::make_unique<Workbench>(data::EnglishConfig(1.0, 0), english);
}

void ExitIfTrainingFailed(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "training %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

std::vector<std::string> ReportRow(const std::string& name,
                                   const metrics::EvalReport& report,
                                   bool include_domains) {
  std::vector<std::string> row{name};
  if (include_domains) {
    for (double f1 : report.domain_f1) {
      row.push_back(TablePrinter::Fmt(f1));
    }
  }
  row.push_back(TablePrinter::Fmt(report.f1));
  row.push_back(TablePrinter::Fmt(report.fned));
  row.push_back(TablePrinter::Fmt(report.fped));
  row.push_back(TablePrinter::Fmt(report.Total()));
  return row;
}

}  // namespace dtdbd::bench
