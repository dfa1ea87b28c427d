// Crash-resume determinism and fault-injection tests for the src/train/
// robustness subsystem threaded through TrainSupervised and TrainDtdbd.
//
// The core guarantee under test: (train N epochs) is bitwise identical to
// (train k epochs, checkpoint, reload into fresh process state, train N-k
// more) — including Adam moments, every dropout RNG stream, the loader's
// shuffle order, and DTDBD's DAA momentum state.
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "tensor/serialize.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"
#include "train/fault_injector.h"
#include "train/guard.h"

namespace dtdbd {
namespace {

using tensor::Tensor;

void ExpectParamsBitwiseEqual(const std::map<std::string, Tensor>& a,
                              const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, ta] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << "missing param " << name;
    const auto& da = ta.data();
    const auto& db = it->second.data();
    ASSERT_EQ(da.size(), db.size()) << name;
    EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(float)), 0)
        << "bitwise mismatch in " << name;
  }
}

class TrainRobustnessTest : public ::testing::Test {
 protected:
  TrainRobustnessTest() {
    dataset_ = data::GenerateCorpus(data::MicroConfig(51));
    Rng rng(3);
    splits_ = data::StratifiedSplit(dataset_, 0.7, 0.15, &rng);
    encoder_ = std::make_unique<text::FrozenEncoder>(dataset_.vocab->size(),
                                                     16, 8);
    config_.vocab_size = dataset_.vocab->size();
    config_.num_domains = dataset_.num_domains();
    config_.encoder = encoder_.get();
    config_.hidden_dim = 16;
    config_.conv_channels = 8;
    config_.rnn_hidden = 8;
    config_.seed = 21;
  }

  std::string TmpPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  int64_t NumTrainBatches(int64_t batch_size) const {
    return (splits_.train.size() + batch_size - 1) / batch_size;
  }

  // A pair of lightly trained teachers shared by the DTDBD tests.
  void MakeTeachers(std::unique_ptr<models::FakeNewsModel>* unbiased,
                    std::unique_ptr<models::FakeNewsModel>* clean) {
    models::ModelConfig tc = config_;
    tc.seed = 31;
    *unbiased = models::CreateModel("TextCNN-S", tc);
    TrainOptions topts;
    topts.epochs = 1;
    topts.seed = 41;
    ASSERT_TRUE(
        TrainSupervised(unbiased->get(), splits_.train, nullptr, topts)
            .status.ok());
    models::ModelConfig cc = config_;
    cc.seed = 37;
    *clean = models::CreateModel("MDFEND", cc);
    TrainOptions copts;
    copts.epochs = 1;
    copts.seed = 43;
    ASSERT_TRUE(TrainSupervised(clean->get(), splits_.train, nullptr, copts)
                    .status.ok());
  }

  data::NewsDataset dataset_;
  data::DatasetSplits splits_;
  std::unique_ptr<text::FrozenEncoder> encoder_;
  models::ModelConfig config_;
};

// ---------------------------------------------------------------------------
// Crash-resume determinism
// ---------------------------------------------------------------------------

TEST_F(TrainRobustnessTest, SupervisedResumeIsBitwiseIdentical) {
  const std::string ckpt = TmpPath("sup_resume.ckpt");
  TrainOptions base;
  base.epochs = 4;
  base.seed = 1234;

  // Uninterrupted reference run.
  auto straight = models::CreateModel("TextCNN-S", config_);
  TrainResult full =
      TrainSupervised(straight.get(), splits_.train, &splits_.val, base);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.train_loss_per_epoch.size(), 4u);

  // First half: 2 epochs, checkpointed.
  auto first = models::CreateModel("TextCNN-S", config_);
  TrainOptions half = base;
  half.epochs = 2;
  half.checkpoint_path = ckpt;
  TrainResult part1 =
      TrainSupervised(first.get(), splits_.train, &splits_.val, half);
  ASSERT_TRUE(part1.status.ok());
  EXPECT_FALSE(std::filesystem::exists(ckpt + ".tmp"));  // atomic rename

  // Second half: a model with a *different* init seed simulates a fresh
  // process; everything must come from the checkpoint.
  models::ModelConfig fresh_config = config_;
  fresh_config.seed = 999;
  auto resumed = models::CreateModel("TextCNN-S", fresh_config);
  TrainOptions rest = base;
  rest.resume_from = ckpt;
  TrainResult part2 =
      TrainSupervised(resumed.get(), splits_.train, &splits_.val, rest);
  ASSERT_TRUE(part2.status.ok());

  ASSERT_EQ(part1.train_loss_per_epoch.size(), 2u);
  ASSERT_EQ(part2.train_loss_per_epoch.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(full.train_loss_per_epoch[e], part1.train_loss_per_epoch[e])
        << "epoch " << e;
    EXPECT_EQ(full.train_loss_per_epoch[2 + e], part2.train_loss_per_epoch[e])
        << "epoch " << 2 + e;
  }
  ASSERT_EQ(part2.val_reports.size(), 2u);
  EXPECT_EQ(full.val_reports[3].f1, part2.val_reports[1].f1);
  EXPECT_EQ(full.val_reports[3].Total(), part2.val_reports[1].Total());
  ExpectParamsBitwiseEqual(straight->NamedParameters(),
                           resumed->NamedParameters());
}

TEST_F(TrainRobustnessTest, DtdbdResumeIsBitwiseIdentical) {
  const std::string ckpt = TmpPath("dtdbd_resume.ckpt");
  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);

  DtdbdOptions base;
  base.epochs = 4;
  base.batch_size = 32;
  base.seed = 99;

  auto straight = models::CreateModel("TextCNN-S", config_);
  DtdbdResult full = TrainDtdbd(straight.get(), unbiased.get(), clean.get(),
                                splits_.train, splits_.val, base);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.train_loss_per_epoch.size(), 4u);
  ASSERT_EQ(full.w_add_per_epoch.size(), 4u);

  auto first = models::CreateModel("TextCNN-S", config_);
  DtdbdOptions half = base;
  half.epochs = 2;
  half.checkpoint_path = ckpt;
  DtdbdResult part1 = TrainDtdbd(first.get(), unbiased.get(), clean.get(),
                                 splits_.train, splits_.val, half);
  ASSERT_TRUE(part1.status.ok());

  models::ModelConfig fresh_config = config_;
  fresh_config.seed = 999;
  auto resumed = models::CreateModel("TextCNN-S", fresh_config);
  DtdbdOptions rest = base;
  rest.resume_from = ckpt;
  DtdbdResult part2 = TrainDtdbd(resumed.get(), unbiased.get(), clean.get(),
                                 splits_.train, splits_.val, rest);
  ASSERT_TRUE(part2.status.ok());

  ASSERT_EQ(part1.train_loss_per_epoch.size(), 2u);
  ASSERT_EQ(part2.train_loss_per_epoch.size(), 2u);
  ASSERT_EQ(part2.w_add_per_epoch.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(full.train_loss_per_epoch[e], part1.train_loss_per_epoch[e]);
    EXPECT_EQ(full.train_loss_per_epoch[2 + e],
              part2.train_loss_per_epoch[e]);
    EXPECT_EQ(full.w_add_per_epoch[e], part1.w_add_per_epoch[e]);
    EXPECT_EQ(full.w_add_per_epoch[2 + e], part2.w_add_per_epoch[e]);
  }
  EXPECT_EQ(full.val_reports.back().f1, part2.val_reports.back().f1);
  EXPECT_EQ(full.val_reports.back().Total(), part2.val_reports.back().Total());
  ExpectParamsBitwiseEqual(straight->NamedParameters(),
                           resumed->NamedParameters());
}

// FNV-1a (64-bit) over every parameter's float bit patterns, byte-wise, in
// NamedParameters() order.
uint64_t ParamBitsHash(const std::map<std::string, Tensor>& params) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [name, t] : params) {
    for (float v : t.data()) {
      uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int i = 0; i < 4; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Golden student: any change to the distillation loop that moves a single
// bit of the trained student changes this hash. Recorded before the
// teachers' outputs moved into a once-per-call row table; the table must
// reproduce the per-step teacher forwards exactly. It must also hold with
// DTDBD_NO_SIMD=1, since every SIMD kernel is bitwise equal to its scalar
// path.
TEST_F(TrainRobustnessTest, DtdbdGoldenStudentHash) {
  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);
  auto student = models::CreateModel("TextCNN-S", config_);
  DtdbdOptions opts;
  opts.epochs = 2;
  opts.batch_size = 32;
  opts.seed = 7;
  DtdbdResult result = TrainDtdbd(student.get(), unbiased.get(), clean.get(),
                                  splits_.train, splits_.val, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(ParamBitsHash(student->NamedParameters()), 0x6c7ca2b164961426ULL);
}

// Golden DAT-IE teacher: pins the supervised loop's domain-CE + entropy
// branch (alpha > 0, beta > 0), which the golden student above does not
// reach because its teachers train without a domain loss. Must also hold
// with DTDBD_NO_SIMD=1.
TEST_F(TrainRobustnessTest, DatIeGoldenTeacherHash) {
  DatIeOptions opts;
  opts.train.epochs = 2;
  opts.train.seed = 5;
  ASSERT_GT(opts.alpha, 0.0f);
  ASSERT_GT(opts.beta_ratio, 0.0f);
  TrainResult result;
  auto teacher = TrainUnbiasedTeacher("TextCNN-S", config_, splits_.train,
                                      &splits_.val, opts, &result);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.train_loss_per_epoch.size(), 2u);
  EXPECT_EQ(ParamBitsHash(teacher->NamedParameters()), 0xbcbb16817e67e213ULL);
}

TEST_F(TrainRobustnessTest, MidEpochCrashResumesFromLastCheckpoint) {
  const std::string ckpt = TmpPath("crash.ckpt");
  TrainOptions base;
  base.epochs = 4;
  base.seed = 7;

  auto straight = models::CreateModel("TextCNN-S", config_);
  TrainResult full =
      TrainSupervised(straight.get(), splits_.train, nullptr, base);
  ASSERT_TRUE(full.status.ok());

  // "Kill" the process in the middle of epoch 2.
  auto victim = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(5);
  injector.ScheduleAbortAtStep(2 * NumTrainBatches(base.batch_size) + 1);
  TrainOptions crashing = base;
  crashing.checkpoint_path = ckpt;
  crashing.fault_injector = &injector;
  TrainResult crashed =
      TrainSupervised(victim.get(), splits_.train, nullptr, crashing);
  EXPECT_FALSE(crashed.status.ok());
  EXPECT_EQ(crashed.status.code(), StatusCode::kInternal);
  EXPECT_EQ(crashed.train_loss_per_epoch.size(), 2u);

  // Fresh process state + resume finishes the run bit-identically.
  models::ModelConfig fresh_config = config_;
  fresh_config.seed = 888;
  auto resumed = models::CreateModel("TextCNN-S", fresh_config);
  TrainOptions rest = base;
  rest.resume_from = ckpt;
  TrainResult part2 =
      TrainSupervised(resumed.get(), splits_.train, nullptr, rest);
  ASSERT_TRUE(part2.status.ok());
  ASSERT_EQ(part2.train_loss_per_epoch.size(), 2u);
  EXPECT_EQ(full.train_loss_per_epoch[2], part2.train_loss_per_epoch[0]);
  EXPECT_EQ(full.train_loss_per_epoch[3], part2.train_loss_per_epoch[1]);
  ExpectParamsBitwiseEqual(straight->NamedParameters(),
                           resumed->NamedParameters());
}

// The DTDBD twin: a crash mid-epoch 2, then a resumed call into a fresh
// student (which rebuilds its teacher tables) finishes bit-identically,
// DAA weights included.
TEST_F(TrainRobustnessTest, DtdbdMidEpochCrashResumesFromLastCheckpoint) {
  const std::string ckpt = TmpPath("dtdbd_crash.ckpt");
  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);
  DtdbdOptions base;
  base.epochs = 4;
  base.batch_size = 32;
  base.seed = 7;

  auto straight = models::CreateModel("TextCNN-S", config_);
  DtdbdResult full = TrainDtdbd(straight.get(), unbiased.get(), clean.get(),
                                splits_.train, splits_.val, base);
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.w_add_per_epoch.size(), 4u);

  auto victim = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(5);
  injector.ScheduleAbortAtStep(2 * NumTrainBatches(base.batch_size) + 1);
  DtdbdOptions crashing = base;
  crashing.checkpoint_path = ckpt;
  crashing.fault_injector = &injector;
  DtdbdResult crashed = TrainDtdbd(victim.get(), unbiased.get(), clean.get(),
                                   splits_.train, splits_.val, crashing);
  EXPECT_EQ(crashed.status.code(), StatusCode::kInternal);
  EXPECT_EQ(crashed.train_loss_per_epoch.size(), 2u);

  models::ModelConfig fresh_config = config_;
  fresh_config.seed = 888;
  auto resumed = models::CreateModel("TextCNN-S", fresh_config);
  DtdbdOptions rest = base;
  rest.resume_from = ckpt;
  DtdbdResult part2 = TrainDtdbd(resumed.get(), unbiased.get(), clean.get(),
                                 splits_.train, splits_.val, rest);
  ASSERT_TRUE(part2.status.ok()) << part2.status.ToString();
  ASSERT_EQ(part2.train_loss_per_epoch.size(), 2u);
  ASSERT_EQ(part2.w_add_per_epoch.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_EQ(full.train_loss_per_epoch[2 + e], part2.train_loss_per_epoch[e])
        << "epoch " << 2 + e;
    EXPECT_EQ(full.w_add_per_epoch[2 + e], part2.w_add_per_epoch[e])
        << "epoch " << 2 + e;
  }
  ExpectParamsBitwiseEqual(straight->NamedParameters(),
                           resumed->NamedParameters());
}

// ---------------------------------------------------------------------------
// Fault injection: NaN steps and divergence
// ---------------------------------------------------------------------------

TEST_F(TrainRobustnessTest, NanPoisonedStepIsSkippedAndTrainingConverges) {
  auto guarded = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(11);
  injector.ScheduleGradNanAtStep(3);
  TrainOptions opts;
  opts.epochs = 3;
  opts.seed = 77;
  opts.fault_injector = &injector;
  TrainResult result =
      TrainSupervised(guarded.get(), splits_.train, nullptr, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(injector.injected_nan_steps(), 1);
  ASSERT_EQ(result.train_loss_per_epoch.size(), 3u);
  for (double loss : result.train_loss_per_epoch) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  // The poisoned step never reached the parameters.
  for (const auto& [name, t] : guarded->NamedParameters()) {
    for (float v : t.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite weight in " << name;
    }
  }
  // Still learns: loss goes down across epochs despite the injected fault.
  EXPECT_LT(result.train_loss_per_epoch.back(),
            result.train_loss_per_epoch.front());
}

TEST_F(TrainRobustnessTest, DtdbdNanPoisonedStepIsSkipped) {
  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);
  auto student = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(13);
  injector.ScheduleGradNanAtStep(1);
  DtdbdOptions opts;
  opts.epochs = 2;
  opts.batch_size = 32;
  opts.fault_injector = &injector;
  DtdbdResult result = TrainDtdbd(student.get(), unbiased.get(), clean.get(),
                                  splits_.train, splits_.val, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(injector.injected_nan_steps(), 1);
  for (const auto& [name, t] : student->NamedParameters()) {
    for (float v : t.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite weight in " << name;
    }
  }
}

TEST_F(TrainRobustnessTest, PersistentDivergenceGivesUpWithCleanStatus) {
  auto doomed = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(17);
  injector.set_grad_nan_probability(1.0);  // every step is poisoned
  TrainOptions opts;
  opts.epochs = 2;
  opts.fault_injector = &injector;
  opts.guard.max_consecutive_bad = 3;
  opts.guard.max_rollbacks = 2;
  TrainResult result =
      TrainSupervised(doomed.get(), splits_.train, nullptr, opts);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  // The rollback path restored the last good snapshot before giving up.
  for (const auto& [name, t] : doomed->NamedParameters()) {
    for (float v : t.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite weight in " << name;
    }
  }
}

TEST_F(TrainRobustnessTest, DtdbdPersistentDivergenceGivesUpWithCleanStatus) {
  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);
  auto doomed = models::CreateModel("TextCNN-S", config_);
  train::FaultInjector injector(17);
  injector.set_grad_nan_probability(1.0);  // every step is poisoned
  DtdbdOptions opts;
  opts.epochs = 2;
  opts.batch_size = 32;
  opts.fault_injector = &injector;
  opts.guard.max_consecutive_bad = 3;
  opts.guard.max_rollbacks = 2;
  DtdbdResult result = TrainDtdbd(doomed.get(), unbiased.get(), clean.get(),
                                  splits_.train, splits_.val, opts);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  for (const auto& [name, t] : doomed->NamedParameters()) {
    for (float v : t.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite weight in " << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint integrity
// ---------------------------------------------------------------------------

TEST_F(TrainRobustnessTest, TruncatedCheckpointRejectedWithStatus) {
  const std::string ckpt = TmpPath("trunc.ckpt");
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = ckpt;
  ASSERT_TRUE(
      TrainSupervised(model.get(), splits_.train, nullptr, opts).status.ok());

  ASSERT_TRUE(train::FaultInjector::TruncateFile(ckpt, 0.5).ok());
  auto loaded = train::LoadCheckpoint(ckpt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);

  // Resuming from the damaged file fails cleanly and trains nothing.
  TrainOptions rest;
  rest.epochs = 2;
  rest.resume_from = ckpt;
  auto fresh = models::CreateModel("TextCNN-S", config_);
  TrainResult result =
      TrainSupervised(fresh.get(), splits_.train, nullptr, rest);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.train_loss_per_epoch.empty());
}

TEST_F(TrainRobustnessTest, BitFlippedCheckpointRejectedWithStatus) {
  const std::string ckpt = TmpPath("flip.ckpt");
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = ckpt;
  ASSERT_TRUE(
      TrainSupervised(model.get(), splits_.train, nullptr, opts).status.ok());
  const auto size =
      static_cast<int64_t>(std::filesystem::file_size(ckpt));

  // A single flipped bit anywhere — header, key, or payload — must be
  // caught; flip, verify rejection, flip back, verify it loads again.
  for (int64_t offset : {int64_t{1}, int64_t{5}, size / 3, size / 2,
                         size - 2}) {
    ASSERT_TRUE(train::FaultInjector::FlipBit(ckpt, offset, 3).ok());
    auto loaded = train::LoadCheckpoint(ckpt);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << offset << " not caught";
    ASSERT_TRUE(train::FaultInjector::FlipBit(ckpt, offset, 3).ok());
  }
  EXPECT_TRUE(train::LoadCheckpoint(ckpt).ok());

  // The version word (bytes 4-7, after the magic) sits outside every entry
  // CRC, so only the version check stands between a v2 file and a load.
  std::FILE* f = std::fopen(ckpt.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint32_t version = 0;
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  ASSERT_EQ(std::fread(&version, sizeof(version), 1, f), 1u);
  EXPECT_EQ(version, 3u);
  version = 2;
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  std::fclose(f);
  auto loaded = train::LoadCheckpoint(ckpt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TrainRobustnessTest, CheckpointKindMismatchRejected) {
  const std::string ckpt = TmpPath("kind.ckpt");
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = ckpt;
  ASSERT_TRUE(
      TrainSupervised(model.get(), splits_.train, nullptr, opts).status.ok());

  std::unique_ptr<models::FakeNewsModel> unbiased, clean;
  MakeTeachers(&unbiased, &clean);
  auto student = models::CreateModel("TextCNN-S", config_);
  DtdbdOptions dopts;
  dopts.epochs = 1;
  dopts.resume_from = ckpt;
  DtdbdResult result = TrainDtdbd(student.get(), unbiased.get(), clean.get(),
                                  splits_.train, splits_.val, dopts);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(TrainRobustnessTest, CheckpointFromDifferentModelRejected) {
  const std::string ckpt = TmpPath("othermodel.ckpt");
  auto model = models::CreateModel("TextCNN-S", config_);
  TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = ckpt;
  ASSERT_TRUE(
      TrainSupervised(model.get(), splits_.train, nullptr, opts).status.ok());

  auto other = models::CreateModel("MDFEND", config_);
  TrainOptions rest;
  rest.epochs = 2;
  rest.resume_from = ckpt;
  TrainResult result =
      TrainSupervised(other.get(), splits_.train, nullptr, rest);
  EXPECT_FALSE(result.status.ok());
}

TEST(CheckpointRoundTripTest, MissingFileYieldsIoError) {
  auto loaded = train::LoadCheckpoint("/nonexistent/dir/x.ckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointRoundTripTest, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/garbage.ckpt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a checkpoint";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto loaded = train::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Serialization hardening (satellite)
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectorAndChaining) {
  const char* s = "123456789";
  EXPECT_EQ(tensor::Crc32(s, 9), 0xCBF43926u);
  // Chained CRC over split input equals CRC over the concatenation.
  uint32_t part = tensor::Crc32(s, 4);
  EXPECT_EQ(tensor::Crc32(s + 4, 5, part), 0xCBF43926u);
}

// The bytewise reflected CRC-32 loop, the reference for the slice-by-8
// kernel.
uint32_t Crc32Bytewise(const unsigned char* p, size_t n, uint32_t crc) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseLoopOverLengthsAndOffsets) {
  Rng rng(2024);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.UniformInt(256));
  // Every length through 64 at every offset mod 8, then random spans.
  for (size_t len = 0; len <= 64; ++len) {
    for (size_t off = 0; off < 8; ++off) {
      EXPECT_EQ(tensor::Crc32(buf.data() + off, len),
                Crc32Bytewise(buf.data() + off, len, 0))
          << "len " << len << " offset " << off;
    }
  }
  for (int i = 0; i < 200; ++i) {
    const size_t off = static_cast<size_t>(rng.UniformInt(16));
    const size_t len = static_cast<size_t>(rng.UniformInt(4096));
    const uint32_t seed = static_cast<uint32_t>(rng.UniformInt(1 << 30));
    EXPECT_EQ(tensor::Crc32(buf.data() + off, len, seed),
              Crc32Bytewise(buf.data() + off, len, seed))
        << "len " << len << " offset " << off;
  }
}

TEST(SerializeHardeningTest, AbsurdNameLengthRejectedWithoutAllocation) {
  const std::string path = ::testing::TempDir() + "/hostile_name.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char magic[4] = {'D', 'T', 'D', 'B'};
    const uint32_t version = 2;
    const uint64_t count = 1;
    const uint64_t name_len = uint64_t{1} << 50;  // absurd
    std::fwrite(magic, 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fclose(f);
  }
  auto loaded = tensor::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeHardeningTest, AbsurdDimsRejectedWithoutAllocation) {
  const std::string path = ::testing::TempDir() + "/hostile_dims.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char magic[4] = {'D', 'T', 'D', 'B'};
    const uint32_t version = 2;
    const uint64_t count = 1;
    const uint64_t name_len = 1;
    const char name = 'w';
    const uint64_t ndim = 2;
    const int64_t dims[2] = {int64_t{1} << 31, int64_t{1} << 31};  // overflow
    std::fwrite(magic, 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fwrite(&name, 1, 1, f);
    std::fwrite(&ndim, sizeof(ndim), 1, f);
    std::fwrite(dims, sizeof(int64_t), 2, f);
    std::fclose(f);
  }
  auto loaded = tensor::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeHardeningTest, DataBeyondFileSizeIsIoError) {
  const std::string path = ::testing::TempDir() + "/hostile_size.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char magic[4] = {'D', 'T', 'D', 'B'};
    const uint32_t version = 2;
    const uint64_t count = 1;
    const uint64_t name_len = 1;
    const char name = 'w';
    const uint64_t ndim = 1;
    // Claims 1M floats but the file ends right after the header.
    const int64_t dims[1] = {1 << 20};
    std::fwrite(magic, 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fwrite(&name, 1, 1, f);
    std::fwrite(&ndim, sizeof(ndim), 1, f);
    std::fwrite(dims, sizeof(int64_t), 1, f);
    std::fclose(f);
  }
  auto loaded = tensor::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeHardeningTest, BitFlippedTensorFileFailsCrc) {
  const std::string path = ::testing::TempDir() + "/flip_tensor.bin";
  std::map<std::string, Tensor> params;
  params["w"] = Tensor::FromData({16}, std::vector<float>(16, 0.5f));
  ASSERT_TRUE(tensor::SaveTensors(params, path).ok());
  const auto size = static_cast<int64_t>(std::filesystem::file_size(path));
  ASSERT_TRUE(train::FaultInjector::FlipBit(path, size / 2, 0).ok());
  auto loaded = tensor::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
}

TEST(SerializeHardeningTest, V2RoundTripPreservesBits) {
  const std::string path = ::testing::TempDir() + "/roundtrip_v2.bin";
  std::map<std::string, Tensor> params;
  params["a"] = Tensor::FromData({2, 3}, {0.1f, -2.5f, 3e-30f, 1e30f, 0.0f,
                                          -0.0f});
  params["b"] = Tensor::FromData({1}, {42.0f});
  ASSERT_TRUE(tensor::SaveTensors(params, path).ok());
  auto loaded = tensor::LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectParamsBitwiseEqual(params, loaded.value());
}

// ---------------------------------------------------------------------------
// Guarded prediction helpers and state setters (satellites)
// ---------------------------------------------------------------------------

TEST_F(TrainRobustnessTest, PredictionHelpersHandleEmptyDataset) {
  auto model = models::CreateModel("TextCNN-S", config_);
  data::NewsDataset empty = splits_.test;
  empty.samples.clear();
  EXPECT_TRUE(Predict(model.get(), empty).empty());
  EXPECT_TRUE(PredictFakeProbability(model.get(), empty).empty());
  EXPECT_TRUE(ExtractFeatures(model.get(), empty).empty());
  metrics::EvalReport report = EvaluateModel(model.get(), empty);
  EXPECT_EQ(report.overall.total(), 0);
  EXPECT_EQ(report.f1, 0.0);
}

TEST_F(TrainRobustnessTest, PredictionHelpersHandleBadBatchSize) {
  auto model = models::CreateModel("TextCNN-S", config_);
  EXPECT_TRUE(Predict(model.get(), splits_.test, 0).empty());
  EXPECT_TRUE(PredictFakeProbability(model.get(), splits_.test, -4).empty());
  EXPECT_TRUE(ExtractFeatures(model.get(), splits_.test, 0).empty());
  metrics::EvalReport report = EvaluateModel(model.get(), splits_.test, -1);
  EXPECT_EQ(report.overall.total(), 0);
}

TEST_F(TrainRobustnessTest, LoaderRejectsForeignState) {
  data::DataLoader loader(&splits_.train, 16, /*shuffle=*/true, 5);
  data::DataLoader::State state = loader.GetState();
  state.order.pop_back();  // wrong size
  EXPECT_FALSE(loader.SetState(state).ok());
  state = loader.GetState();
  state.order[0] = state.order[1];  // duplicate index
  EXPECT_FALSE(loader.SetState(state).ok());
  EXPECT_TRUE(loader.SetState(loader.GetState()).ok());
}

TEST(AdamStateTest, ImportRejectsMismatchedState) {
  std::vector<Tensor> params = {Tensor::Zeros({4}, /*requires_grad=*/true)};
  tensor::Adam adam(params, 1e-3f);
  tensor::AdamState state = adam.ExportState();
  state.m.emplace_back(3, 0.0f);  // extra slot
  EXPECT_FALSE(adam.ImportState(state).ok());
  state = adam.ExportState();
  state.v[0].resize(3);  // wrong length
  EXPECT_FALSE(adam.ImportState(state).ok());
  state = adam.ExportState();
  state.step_count = -1;
  EXPECT_FALSE(adam.ImportState(state).ok());
  EXPECT_TRUE(adam.ImportState(adam.ExportState()).ok());
}

TEST(RngStateTest, RoundTripResumesStream) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.Normal();  // leave a cached draw in play
  const Rng::State state = rng.GetState();
  std::vector<uint64_t> expect_ints;
  std::vector<double> expect_normals;
  for (int i = 0; i < 8; ++i) {
    expect_ints.push_back(rng.Next());
    expect_normals.push_back(rng.Normal());
  }
  Rng other(999);
  other.SetState(state);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(other.Next(), expect_ints[i]);
    EXPECT_EQ(other.Normal(), expect_normals[i]);
  }
}

}  // namespace
}  // namespace dtdbd
