#include "serve/session.h"

#include <cmath>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "text/features.h"

namespace dtdbd::serve {

namespace {

// Appends a feature row (zero-filled when absent) to a flat [*, dim]
// buffer. Validation already guaranteed size() is 0 or dim.
void AppendFeatureRow(const std::vector<float>& values, int dim,
                      std::vector<float>* out) {
  out->insert(out->end(), values.begin(), values.end());
  out->resize(out->size() + static_cast<size_t>(dim) - values.size(), 0.0f);
}

}  // namespace

InferenceSession::InferenceSession(
    std::unique_ptr<models::FakeNewsModel> model, RequestLimits limits,
    int64_t model_version)
    : model_(std::move(model)),
      limits_(limits),
      model_version_(model_version) {
  DTDBD_CHECK(model_ != nullptr);
}

StatusOr<Prediction> InferenceSession::Predict(
    const InferenceRequest& request) {
  std::vector<StatusOr<Prediction>> results = PredictBatch({&request});
  return std::move(results[0]);
}

std::vector<StatusOr<Prediction>> InferenceSession::PredictBatch(
    const std::vector<const InferenceRequest*>& requests) {
  const size_t count = requests.size();
  // Per-element validation first: a malformed request is answered typed and
  // excluded from the forward without failing its batchmates.
  std::vector<Status> element_status(count, Status::Ok());
  std::vector<size_t> live;
  live.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    DTDBD_CHECK(requests[i] != nullptr);
    element_status[i] = ValidateRequest(*requests[i], limits_);
    if (element_status[i].ok()) live.push_back(i);
  }

  std::vector<float> p_fake(count, 0.0f);
  if (!live.empty()) {
    tensor::NoGradGuard no_grad;
    const int64_t m = static_cast<int64_t>(live.size());

    data::Batch batch;
    batch.batch_size = m;
    batch.seq_len = limits_.seq_len;
    batch.tokens.reserve(static_cast<size_t>(m * limits_.seq_len));
    batch.labels.assign(static_cast<size_t>(m), data::kReal);  // shape filler
    batch.domains.reserve(static_cast<size_t>(m));
    std::vector<float> style, emotion;
    style.reserve(static_cast<size_t>(m) * text::kStyleFeatureDim);
    emotion.reserve(static_cast<size_t>(m) * text::kEmotionFeatureDim);
    for (const size_t i : live) {
      const InferenceRequest& request = *requests[i];
      batch.tokens.insert(batch.tokens.end(), request.tokens.begin(),
                          request.tokens.end());
      batch.tokens.resize(batch.tokens.size() +
                              static_cast<size_t>(limits_.seq_len) -
                              request.tokens.size(),
                          0);  // PAD id 0
      batch.domains.push_back(request.domain);
      AppendFeatureRow(request.style, text::kStyleFeatureDim, &style);
      AppendFeatureRow(request.emotion, text::kEmotionFeatureDim, &emotion);
    }
    batch.style = tensor::Tensor::FromData({m, text::kStyleFeatureDim},
                                           std::move(style));
    batch.emotion = tensor::Tensor::FromData({m, text::kEmotionFeatureDim},
                                             std::move(emotion));

    models::ModelOutput out = model_->Forward(batch, /*training=*/false);
    tensor::Tensor p = tensor::Softmax(out.logits);
    for (int64_t row = 0; row < m; ++row) {
      const size_t i = live[static_cast<size_t>(row)];
      const float prob = p.at(row * 2 + data::kFake);
      if (!std::isfinite(prob)) {
        element_status[i] =
            Status::Internal("model produced a non-finite probability");
      } else {
        p_fake[i] = prob;
      }
    }
  }

  std::vector<StatusOr<Prediction>> results;
  results.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!element_status[i].ok()) {
      results.emplace_back(element_status[i]);
      continue;
    }
    Prediction pred;
    pred.p_fake = p_fake[i];
    pred.label = p_fake[i] >= 0.5f ? data::kFake : data::kReal;
    pred.model_version = model_version_;
    results.emplace_back(std::move(pred));
  }
  return results;
}

}  // namespace dtdbd::serve
