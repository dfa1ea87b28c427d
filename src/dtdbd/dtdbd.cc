#include "dtdbd/dtdbd.h"

#include <map>

#include "common/logging.h"
#include "dtdbd/distill.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/checkpoint.h"

namespace dtdbd {

using tensor::Tensor;

DtdbdResult TrainDtdbd(models::FakeNewsModel* student,
                       models::FakeNewsModel* unbiased_teacher,
                       models::FakeNewsModel* clean_teacher,
                       const data::NewsDataset& train,
                       const data::NewsDataset& val,
                       const DtdbdOptions& options) {
  DTDBD_CHECK(student != nullptr);
  DTDBD_CHECK_GT(options.batch_size, 0);
  DTDBD_CHECK(!options.use_add || unbiased_teacher != nullptr)
      << "ADD enabled but no unbiased teacher";
  DTDBD_CHECK(!options.use_dkd || clean_teacher != nullptr)
      << "DKD enabled but no clean teacher";
  DTDBD_CHECK(options.use_add || options.use_dkd)
      << "at least one distillation loss must be enabled";

  // Freeze the teachers (paper: teacher weights are frozen during
  // distillation).
  if (unbiased_teacher != nullptr) unbiased_teacher->Freeze();
  if (clean_teacher != nullptr) clean_teacher->Freeze();

  // Teach once. A frozen teacher in eval mode (dropout draws no RNG) maps
  // each item to the same output whatever its epoch or batch-mates, so each
  // teacher runs once over `train` in index order and every step gathers
  // its rows. The tables are derived state: never checkpointed, rebuilt by
  // a resumed call and reused across a guard rollback.
  std::vector<float> teacher_feature_table, teacher_logit_table;
  if (options.use_add) {
    teacher_feature_table =
        ExtractFeatures(unbiased_teacher, train, options.batch_size);
  }
  if (options.use_dkd) {
    teacher_logit_table =
        ExtractLogits(clean_teacher, train, options.batch_size);
  }

  std::vector<Tensor> params;
  for (auto& p : student->Parameters()) {
    if (p.requires_grad()) params.push_back(p);
  }
  tensor::Adam optimizer(std::move(params), options.lr);
  data::DataLoader loader(&train, options.batch_size, /*shuffle=*/true,
                          options.seed);
  std::map<std::string, Tensor> named = student->NamedParameters();
  std::vector<Rng*> rngs;
  student->CollectRngs(&rngs);

  MomentumWeightAdjuster adjuster(options.momentum, options.w_add_init,
                                  options.min_teacher_weight);

  DtdbdResult result;
  double w_add = options.w_add_init;
  double w_dkd = 1.0 - w_add;

  int epoch = 0;
  if (!options.resume_from.empty()) {
    auto loaded = train::LoadCheckpoint(options.resume_from);
    if (!loaded.ok()) {
      result.status = loaded.status();
      return result;
    }
    const train::CheckpointState& state = loaded.value();
    if (state.kind != "dtdbd") {
      result.status = Status::InvalidArgument(
          "cannot resume DTDBD training from a '" + state.kind +
          "' checkpoint");
      return result;
    }
    result.status =
        train::ApplyToTraining(state, &named, &optimizer, rngs, &loader);
    if (!result.status.ok()) return result;
    epoch = static_cast<int>(state.epochs_done);
    w_add = state.daa.w_add;
    w_dkd = state.daa.w_dkd;
    adjuster.SetState({state.daa.adjuster_w_add, state.daa.has_previous,
                       state.daa.prev_f1, state.daa.prev_bias});
    if (options.verbose) {
      DTDBD_LOG(Info) << "DTDBD resumed at epoch " << epoch << " from "
                      << options.resume_from;
    }
  }

  // Single-loss ablations put the whole distillation budget on that loss
  // (re-applied after resume: the flags, not the checkpoint, own this).
  if (!options.use_add) {
    w_add = 0.0;
    w_dkd = 1.0;
  } else if (!options.use_dkd) {
    w_add = 1.0;
    w_dkd = 0.0;
  }

  // Packs the live DAA values into the checkpoint's plain-value snapshot.
  auto capture = [&](int64_t epochs_done) {
    train::CheckpointState state = train::CaptureState(
        "dtdbd", epochs_done, named, optimizer, rngs, loader);
    const MomentumWeightAdjuster::State daa = adjuster.GetState();
    state.daa = train::DaaSnapshot{w_add,           w_dkd,
                                   daa.w_add,       daa.has_previous,
                                   daa.prev_f1,     daa.prev_bias};
    return state;
  };

  train::TrainingGuard guard(options.guard);
  train::CheckpointState last_good = capture(epoch);
  int64_t global_step = static_cast<int64_t>(epoch) * loader.num_batches();

  while (epoch < options.epochs) {
    loader.NewEpoch();
    double epoch_loss = 0.0;
    double epoch_ce = 0.0, epoch_add = 0.0, epoch_dkd = 0.0;
    const double epoch_w_add = w_add;
    bool redo_epoch = false;
    for (int64_t b = 0; b < loader.num_batches(); ++b, ++global_step) {
      if (options.fault_injector != nullptr &&
          options.fault_injector->ShouldAbort(global_step)) {
        result.status =
            Status::Internal("simulated crash (fault injector) at step " +
                             std::to_string(global_step));
        return result;
      }
      const std::vector<int64_t> indices = loader.BatchIndices(b);
      const data::Batch batch = data::MakeBatch(train, indices);
      models::ModelOutput out = student->Forward(batch, /*training=*/true);
      Tensor l_ce = tensor::CrossEntropyLoss(out.logits, batch.labels);
      Tensor loss = tensor::ScalarMul(l_ce, options.w_student_ce);
      double batch_add = 0.0, batch_dkd = 0.0;
      if (options.use_add) {
        const Tensor teacher_features = GatherRows(
            teacher_feature_table, unbiased_teacher->feature_dim(), indices);
        Tensor l_add = tensor::ScalarMul(
            AdversarialDebiasDistillLoss(teacher_features, out.features,
                                         options.tau),
            options.add_loss_scale);
        batch_add = l_add.item();
        loss = tensor::Add(loss,
                           tensor::ScalarMul(l_add, static_cast<float>(w_add)));
      }
      if (options.use_dkd) {
        const Tensor teacher_logits =
            GatherRows(teacher_logit_table, /*width=*/2, indices);
        Tensor l_dkd = DomainKnowledgeDistillLoss(teacher_logits, out.logits,
                                                  options.tau);
        batch_dkd = l_dkd.item();
        loss = tensor::Add(loss,
                           tensor::ScalarMul(l_dkd, static_cast<float>(w_dkd)));
      }

      optimizer.ZeroGrad();
      loss.Backward();
      if (options.fault_injector != nullptr) {
        options.fault_injector->MaybeCorruptGradients(global_step,
                                                      optimizer.params());
      }
      const auto verdict = guard.Inspect(loss.item(), optimizer.params());
      if (verdict == train::TrainingGuard::Verdict::kOk) {
        tensor::ClipGradNorm(optimizer.params(), options.grad_clip);
        optimizer.Step();
        epoch_loss += loss.item();
        epoch_ce += l_ce.item();
        epoch_add += batch_add;
        epoch_dkd += batch_dkd;
      } else if (verdict == train::TrainingGuard::Verdict::kSkip) {
        DTDBD_LOG(Warning) << "DTDBD skipped non-finite step " << global_step;
      } else if (verdict == train::TrainingGuard::Verdict::kRollback) {
        Status s =
            train::ApplyToTraining(last_good, &named, &optimizer, rngs, &loader);
        DTDBD_CHECK(s.ok()) << s.ToString();
        w_add = last_good.daa.w_add;
        w_dkd = last_good.daa.w_dkd;
        adjuster.SetState({last_good.daa.adjuster_w_add,
                           last_good.daa.has_previous, last_good.daa.prev_f1,
                           last_good.daa.prev_bias});
        optimizer.set_lr(optimizer.lr() * options.guard.rollback_lr_decay);
        guard.OnRollback();
        DTDBD_LOG(Warning) << "DTDBD rolled back to epoch "
                           << last_good.epochs_done << ", lr reduced to "
                           << optimizer.lr();
        epoch = static_cast<int>(last_good.epochs_done);
        redo_epoch = true;
        break;
      } else {  // kGiveUp
        result.status = Status::Internal(
            "training diverged: " + std::to_string(guard.skipped_steps()) +
            " non-finite steps, rollback budget exhausted");
        return result;
      }
    }
    if (redo_epoch) continue;
    epoch_loss /= static_cast<double>(loader.num_batches());
    result.train_loss_per_epoch.push_back(epoch_loss);
    result.w_add_per_epoch.push_back(epoch_w_add);

    // Epoch-end evaluation drives the momentum-based dynamic adjustment.
    metrics::EvalReport report = EvaluateModel(student, val);
    result.val_reports.push_back(report);
    if (options.use_add && options.use_dkd && options.use_daa) {
      w_add = adjuster.Update(report.f1, report.Total());
      w_dkd = 1.0 - w_add;
    }
    if (options.verbose) {
      const double nb = static_cast<double>(loader.num_batches());
      DTDBD_LOG(Info) << "DTDBD epoch " << epoch << " loss=" << epoch_loss
                      << " (ce=" << epoch_ce / nb << " add=" << epoch_add / nb
                      << " dkd=" << epoch_dkd / nb << ") val "
                      << report.Summary() << " w_add=" << w_add;
    }
    ++epoch;
    last_good = capture(epoch);
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (epoch % options.checkpoint_every == 0 || epoch == options.epochs)) {
      Status s = train::SaveCheckpoint(last_good, options.checkpoint_path);
      if (!s.ok()) {
        DTDBD_LOG(Error) << "checkpoint save failed: " << s.ToString();
      }
    }
  }
  return result;
}

}  // namespace dtdbd
