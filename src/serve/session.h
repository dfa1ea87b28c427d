// A no-graph inference path over any FakeNewsModel.
//
// InferenceSession is the serving counterpart of the training forward pass:
// it validates each request against the deployed model's limits, runs one
// eval-mode forward under NoGradGuard (no autograd nodes are recorded — the
// `graph_recorded` op counter stays at zero, a tested invariant), and
// reduces the logits to a fake-probability exactly the way
// PredictFakeProbability does. Eval-mode kernels are per-row deterministic
// (no cross-row accumulation), so every per-request answer is bitwise
// identical whether it was computed batch-of-one, inside a coalesced
// micro-batch (PredictBatch), or by the batched offline evaluator — the
// parity contract the serve and soak tests enforce.
//
// Concurrency: Predict/PredictBatch are read-only over the model (eval
// forwards mutate no model state; dropout is an identity that draws no
// RNG), so distinct server workers may call them concurrently on one
// session — provided no two calling threads share a KernelPool (a thread
// without one runs its kernels inline) and model swaps are quiesced, which
// is exactly what serve::Server arranges.
#ifndef DTDBD_SERVE_SESSION_H_
#define DTDBD_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/model.h"
#include "serve/validation.h"

namespace dtdbd::serve {

struct Prediction {
  float p_fake = 0.0f;       // P(label == fake), from Softmax over the logits
  int label = 0;             // data::kFake iff p_fake >= 0.5
  int64_t model_version = 0; // which hot-reload generation answered
  // Fleet attribution, stamped by the server (a session doesn't know its
  // fleet name): which named model answered, and whether the canary
  // candidate (rather than the primary) produced this response.
  std::string model_name;
  bool canary = false;
};

class InferenceSession {
 public:
  // Takes ownership of the model. `limits` must describe the config the
  // model was built with; `model_version` stamps every Prediction so
  // responses produced across a hot-reload are attributable.
  InferenceSession(std::unique_ptr<models::FakeNewsModel> model,
                   RequestLimits limits, int64_t model_version);

  // Validate -> pad to seq_len -> eval forward -> softmax. Returns
  // kInvalidArgument for malformed requests (never reaches a kernel),
  // kInternal if the model emits a non-finite probability. Exactly
  // PredictBatch of one request.
  StatusOr<Prediction> Predict(const InferenceRequest& request);

  // Batched variant: one batch-of-M forward over every request that passes
  // validation. results[i] corresponds to requests[i]; malformed requests
  // get kInvalidArgument without suppressing the rest of the batch, and a
  // non-finite output row poisons only its own element (kInternal). Because
  // eval kernels never accumulate across rows, each OK element is bitwise
  // identical to what a batch-of-one Predict of the same request returns.
  std::vector<StatusOr<Prediction>> PredictBatch(
      const std::vector<const InferenceRequest*>& requests);

  models::FakeNewsModel* model() { return model_.get(); }
  const RequestLimits& limits() const { return limits_; }
  int64_t model_version() const { return model_version_; }

 private:
  std::unique_ptr<models::FakeNewsModel> model_;
  RequestLimits limits_;
  int64_t model_version_;
};

}  // namespace dtdbd::serve

#endif  // DTDBD_SERVE_SESSION_H_
