#include "dtdbd/dtdbd.h"

#include "common/logging.h"
#include "dtdbd/distill.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/loop.h"

namespace dtdbd {

using tensor::Tensor;

DtdbdResult TrainDtdbd(models::FakeNewsModel* student,
                       models::FakeNewsModel* unbiased_teacher,
                       models::FakeNewsModel* clean_teacher,
                       const data::NewsDataset& train,
                       const data::NewsDataset& val,
                       const DtdbdOptions& options) {
  DTDBD_CHECK(student != nullptr);
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

  tensor::Adam optimizer(TrainableParams(student), options.lr);
  data::DataLoader loader(&train, options.batch_size, /*shuffle=*/true,
                          options.seed);
  std::vector<Rng*> rngs;
  student->CollectRngs(&rngs);

  MomentumWeightAdjuster adjuster(options.momentum, options.w_add_init,
                                  options.min_teacher_weight);
  // The w_ADD in effect; w_DKD = 1 - w_ADD. A single-loss ablation puts
  // the whole distillation budget on its loss.
  auto w_add = [&] {
    if (!options.use_add) return 0.0;
    if (!options.use_dkd) return 1.0;
    return adjuster.w_add();
  };

  DtdbdResult result;
  train::LoopHooks hooks;
  // Eq. 13: w_S * L_CE + w_ADD * L_ADD + w_DKD * L_DKD. The parts are the
  // unweighted terms, for the epoch log.
  hooks.batch_loss = [&](const std::vector<int64_t>& indices) {
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
      loss = tensor::Add(
          loss, tensor::ScalarMul(l_add, static_cast<float>(w_add())));
    }
    if (options.use_dkd) {
      const Tensor teacher_logits =
          GatherRows(teacher_logit_table, /*width=*/2, indices);
      Tensor l_dkd = DomainKnowledgeDistillLoss(teacher_logits, out.logits,
                                                options.tau);
      batch_dkd = l_dkd.item();
      loss = tensor::Add(
          loss, tensor::ScalarMul(l_dkd, static_cast<float>(1.0 - w_add())));
    }
    return train::BatchLoss{loss, {l_ce.item(), batch_add, batch_dkd}};
  };
  // Epoch-end evaluation drives the momentum-based dynamic adjustment.
  hooks.epoch_end = [&](int epoch, double loss,
                        const std::vector<double>& parts) {
    result.train_loss_per_epoch.push_back(loss);
    result.w_add_per_epoch.push_back(w_add());
    metrics::EvalReport report = EvaluateModel(student, val);
    result.val_reports.push_back(report);
    if (options.use_add && options.use_dkd && options.use_daa) {
      adjuster.Update(report.f1, report.Total());
    }
    if (options.verbose) {
      DTDBD_LOG(Info) << "DTDBD epoch " << epoch << " loss=" << loss
                      << " (ce=" << parts[0] << " add=" << parts[1]
                      << " dkd=" << parts[2] << ") val " << report.Summary()
                      << " w_add=" << w_add();
    }
  };
  // The DAA carry-over rides in every snapshot, so a resumed or rolled-back
  // run replays the same dynamic-weight trajectory.
  hooks.capture_daa = [&] {
    const MomentumWeightAdjuster::State daa = adjuster.GetState();
    return train::DaaSnapshot{w_add(),          1.0 - w_add(), daa.w_add,
                              daa.has_previous, daa.prev_f1,   daa.prev_bias};
  };
  hooks.restore_daa = [&](const train::DaaSnapshot& daa) {
    adjuster.SetState(
        {daa.adjuster_w_add, daa.has_previous, daa.prev_f1, daa.prev_bias});
  };
  result.status = train::RunTrainingLoop(
      train::MakeLoopSpec("dtdbd", "DTDBD", options),
      student->NamedParameters(), &optimizer, rngs, &loader, hooks);
  return result;
}

}  // namespace dtdbd
