// Atomic training checkpoints.
//
// A checkpoint captures everything a training loop needs to continue with a
// bitwise-identical trajectory after a crash: model parameters, Adam
// moments, every RNG stream that drives training-time stochasticity
// (dropout), the data loader's shuffle state, the epoch counter, the
// current learning rate, and DTDBD's momentum/DAA carry-over (w_ADD and the
// smoothed F1/bias deltas of Eq. 14).
//
// Files are written atomically: the state is serialized to `<path>.tmp`,
// fsync'd, then renamed over `path`, so a reader never observes a partially
// written checkpoint even if the process dies mid-save. Every entry carries
// a CRC32; truncation or bit flips are rejected with a non-ok Status, never
// a crash or a silent partial load.
#ifndef DTDBD_TRAIN_CHECKPOINT_H_
#define DTDBD_TRAIN_CHECKPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"

namespace dtdbd::train {

// DTDBD's dynamic-adjustment carry-over (mirrors MomentumWeightAdjuster's
// state as plain values so this layer stays independent of src/dtdbd/).
// A restore reads neither w_add nor w_dkd: TrainDtdbd derives both.
struct DaaSnapshot {
  double w_add = 0.0;
  double w_dkd = 1.0;
  double adjuster_w_add = 0.0;
  bool has_previous = false;
  double prev_f1 = 0.0;
  double prev_bias = 0.0;
};

struct CheckpointState {
  std::string kind;  // "supervised" | "dtdbd"; loops refuse a foreign kind
  int64_t epochs_done = 0;
  float lr = 0.0f;
  // Deep copies of the model's named parameters (never aliases live ones).
  std::map<std::string, tensor::Tensor> model;
  tensor::AdamState optim;
  std::vector<Rng::State> model_rngs;  // from FakeNewsModel::CollectRngs
  data::DataLoader::State loader;
  DaaSnapshot daa;  // meaningful only when kind == "dtdbd"
};

// Atomically persists `state` (temp file + fsync + rename).
Status SaveCheckpoint(const CheckpointState& state, const std::string& path);

// Loads and verifies a checkpoint. Bounds-checked reads and per-entry
// CRC32; any inconsistency yields a non-ok Status and no partial state.
StatusOr<CheckpointState> LoadCheckpoint(const std::string& path);

// Deep-copies the live training state into a CheckpointState. `named`
// comes from Module::NamedParameters(); `rngs` from CollectRngs.
CheckpointState CaptureState(const std::string& kind, int64_t epochs_done,
                             const std::map<std::string, tensor::Tensor>& named,
                             const tensor::Adam& optimizer,
                             const std::vector<Rng*>& rngs,
                             const data::DataLoader& loader);

// Restores `state` into live training objects: copies parameters back into
// `named`, re-imports Adam moments, resets the RNG streams and the loader,
// and restores the learning rate. Returns non-ok when shapes, names, or
// counts do not match (checkpoint from a different model/dataset); callers
// must then abandon the training objects rather than train on them.
Status ApplyToTraining(const CheckpointState& state,
                       std::map<std::string, tensor::Tensor>* named,
                       tensor::Adam* optimizer, const std::vector<Rng*>& rngs,
                       data::DataLoader* loader);

}  // namespace dtdbd::train

#endif  // DTDBD_TRAIN_CHECKPOINT_H_
