#include "train/loop.h"

#include "common/logging.h"

namespace dtdbd::train {

Status RunTrainingLoop(const LoopSpec& spec,
                       std::map<std::string, tensor::Tensor> named,
                       tensor::Adam* optimizer, const std::vector<Rng*>& rngs,
                       data::DataLoader* loader, const LoopHooks& hooks) {
  DTDBD_CHECK_GT(loader->num_batches(), 0);
  auto capture = [&](int64_t epochs_done) {
    CheckpointState state = CaptureState(spec.kind, epochs_done, named,
                                         *optimizer, rngs, *loader);
    if (hooks.capture_daa) state.daa = hooks.capture_daa();
    return state;
  };
  auto restore = [&](const CheckpointState& state) {
    DTDBD_RETURN_IF_ERROR(
        ApplyToTraining(state, &named, optimizer, rngs, loader));
    if (hooks.restore_daa) hooks.restore_daa(state.daa);
    return Status::Ok();
  };

  int epoch = 0;
  if (!spec.resume_from.empty()) {
    auto loaded = LoadCheckpoint(spec.resume_from);
    if (!loaded.ok()) return loaded.status();
    const CheckpointState& state = loaded.value();
    if (state.kind != spec.kind) {
      return Status::InvalidArgument("cannot resume " + spec.kind +
                                     " training from a '" + state.kind +
                                     "' checkpoint");
    }
    DTDBD_RETURN_IF_ERROR(restore(state));
    epoch = static_cast<int>(state.epochs_done);
    if (spec.verbose) {
      DTDBD_LOG(Info) << spec.name << " resumed at epoch " << epoch
                      << " from " << spec.resume_from;
    }
  }

  TrainingGuard guard(spec.guard);
  // Rollback target for divergence recovery; refreshed at epoch boundaries.
  CheckpointState last_good = capture(epoch);
  int64_t global_step = static_cast<int64_t>(epoch) * loader->num_batches();

  while (epoch < spec.epochs) {
    loader->NewEpoch();
    double epoch_loss = 0.0;
    std::vector<double> epoch_parts;
    bool redo_epoch = false;
    for (int64_t b = 0; b < loader->num_batches(); ++b, ++global_step) {
      if (spec.fault_injector != nullptr &&
          spec.fault_injector->ShouldAbort(global_step)) {
        return Status::Internal("simulated crash (fault injector) at step " +
                                std::to_string(global_step));
      }
      BatchLoss step = hooks.batch_loss(loader->BatchIndices(b));
      epoch_parts.resize(step.parts.size(), 0.0);
      optimizer->ZeroGrad();
      step.loss.Backward();
      if (spec.fault_injector != nullptr) {
        spec.fault_injector->MaybeCorruptGradients(global_step,
                                                   optimizer->params());
      }
      const auto verdict =
          guard.Inspect(step.loss.item(), optimizer->params());
      if (verdict == TrainingGuard::Verdict::kOk) {
        tensor::ClipGradNorm(optimizer->params(), spec.grad_clip);
        optimizer->Step();
        epoch_loss += step.loss.item();
        for (size_t i = 0; i < step.parts.size(); ++i) {
          epoch_parts[i] += step.parts[i];
        }
      } else if (verdict == TrainingGuard::Verdict::kSkip) {
        DTDBD_LOG(Warning) << spec.name << " skipped non-finite step "
                           << global_step;
      } else if (verdict == TrainingGuard::Verdict::kRollback) {
        const Status s = restore(last_good);
        DTDBD_CHECK(s.ok()) << s.ToString();
        optimizer->set_lr(optimizer->lr() * spec.guard.rollback_lr_decay);
        guard.OnRollback();
        DTDBD_LOG(Warning) << spec.name << " rolled back to epoch "
                           << last_good.epochs_done << ", lr reduced to "
                           << optimizer->lr();
        epoch = static_cast<int>(last_good.epochs_done);
        redo_epoch = true;
        break;
      } else {  // kGiveUp
        return Status::Internal(
            "training diverged: " + std::to_string(guard.skipped_steps()) +
            " non-finite steps, rollback budget exhausted");
      }
    }
    if (redo_epoch) continue;
    const double nb = static_cast<double>(loader->num_batches());
    for (double& part : epoch_parts) part /= nb;
    hooks.epoch_end(epoch, epoch_loss / nb, epoch_parts);
    ++epoch;
    last_good = capture(epoch);
    if (!spec.checkpoint_path.empty()) {
      const Status s = SaveCheckpoint(last_good, spec.checkpoint_path);
      if (!s.ok()) {
        DTDBD_LOG(Error) << "checkpoint save failed: " << s.ToString();
      }
    }
  }
  return Status::Ok();
}

}  // namespace dtdbd::train
