// Fleet serving tour: one serve::Server hosting several named models
// behind a shared queue and socket front end, exercised the way an
// operator would roll a new model out.
//
//  1. Register a fleet: "default" (MDFEND) plus an "experimental" sibling.
//  2. Route requests by name over TCP — wire v2 clients pick a model per
//     request; a v1 client (pre-fleet framing) transparently gets the
//     default.
//  3. Canary: deploy a candidate checkpoint to a hash slice of the default
//     model's traffic, watch the per-model health, then promote it.
//  4. Shadow: score another candidate off the response path and read the
//     accumulated score deltas.
//  5. Prediction cache + dedup: replay a hot request and read the
//     cache/dedup counters over the wire with a v2 health frame (a v1
//     client cannot even encode one).
//  6. Labeled feedback + windowed quality: close the loop on served
//     traffic with Server::RecordFeedback and read the drift-health
//     fields (feedback counters, windowed AUC, degraded-quality flag)
//     from the same v2 frame.
//
// Build & run:  ./build/examples/serve_fleet [--requests 200] [--percent 25]
//               [--cache-bytes 1048576] [--feedback-ring 1024]
//               [--drift-window 256] [--quality-slack 5]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/generator.h"
#include "models/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/optim.h"
#include "text/frozen_encoder.h"
#include "train/checkpoint.h"

using namespace dtdbd;

namespace {

// Writes a servable v2 checkpoint holding fresh weights from `config` —
// stand-in for "the retrained model the team wants to roll out".
std::string WriteCandidate(data::NewsDataset* dataset,
                           models::ModelConfig config, uint64_t seed,
                           const std::string& path) {
  config.seed = seed;
  auto model = models::CreateModel("MDFEND", config);
  std::vector<tensor::Tensor> trainable;
  for (auto& p : model->Parameters()) {
    if (p.requires_grad()) trainable.push_back(p);
  }
  tensor::Adam adam(trainable, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
  data::DataLoader loader(dataset, 8, /*shuffle=*/false, 0);
  std::vector<Rng*> rngs;
  model->CollectRngs(&rngs);
  const train::CheckpointState state = train::CaptureState(
      "supervised", 0, model->NamedParameters(), adam, rngs, loader);
  const Status saved = train::SaveCheckpoint(state, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    std::exit(1);
  }
  return path;
}

void PrintModels(const serve::HealthReport& health) {
  std::printf("  fleet (%lld models, default '%s'):\n",
              static_cast<long long>(health.num_models),
              health.default_model.c_str());
  for (const serve::ModelHealth& m : health.models) {
    std::printf("    %-14s v%-2lld served_ok=%-5lld", m.name.c_str(),
                static_cast<long long>(m.version),
                static_cast<long long>(m.served_ok));
    if (m.canary.active) {
      std::printf("  canary: v%lld %d%% slice, windows=%lld",
                  static_cast<long long>(m.canary.candidate_version),
                  m.canary.percent,
                  static_cast<long long>(m.canary.windows_evaluated));
    }
    if (m.shadow.active) {
      std::printf("  shadow: scored=%lld mean|dp|=%.4f flips=%lld",
                  static_cast<long long>(m.shadow.scored),
                  m.shadow.mean_abs_delta,
                  static_cast<long long>(m.shadow.label_disagreements));
    }
    if (!m.canary.last_event.empty()) {
      std::printf("  [%s]", m.canary.last_event.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int num_requests = flags.GetInt("requests", 200);
  const int percent = flags.GetInt("percent", 25);

  data::NewsDataset dataset = data::GenerateCorpus(data::MicroConfig(17));
  text::FrozenEncoder encoder(dataset.vocab->size(), 32, /*seed=*/21);
  models::ModelConfig config;
  config.vocab_size = dataset.vocab->size();
  config.num_domains = dataset.num_domains();
  config.encoder = &encoder;
  config.seed = 5;

  serve::RequestLimits limits;
  limits.vocab_size = config.vocab_size;
  limits.num_domains = config.num_domains;
  limits.seq_len = dataset.seq_len;

  auto make_session = [&](uint64_t seed) {
    models::ModelConfig c = config;
    c.seed = seed;
    return std::make_unique<serve::InferenceSession>(
        models::CreateModel("MDFEND", c), limits, /*model_version=*/1);
  };

  // 1. Fleet of two behind one queue/worker pool, with the prediction
  //    cache on (--cache-bytes, falling back to DTDBD_CACHE_BYTES; the
  //    tour defaults it to 1 MiB per model so step 5 has counters to show).
  const auto model_factory = [config] {
    return models::CreateModel("MDFEND", config);
  };
  serve::ServerOptions options;
  options.max_batch = 4;
  options.cache_bytes = flags.Has("cache-bytes")
                            ? ResolveKnob(serve::kCacheBytesKnob, &flags)
                            : (1 << 20);
  // Quality-monitor knobs (DESIGN.md §13), strict-parsed via their rows.
  options.feedback_ring = ResolveKnob(serve::kFeedbackRingKnob, &flags);
  options.drift_window = ResolveKnob(serve::kDriftWindowKnob, &flags);
  options.model_factory = model_factory;
  serve::Server server(make_session(5), std::move(options));
  Status added =
      server.AddModel("experimental", make_session(9), model_factory);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }

  net::SocketServer net(&server, net::SocketServerOptions{});
  if (Status started = net.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d\n", net.port());

  auto request_for = [&](size_t i, const std::string& model) {
    const data::NewsSample& sample = dataset.samples[i % dataset.samples.size()];
    serve::InferenceRequest request;
    request.tokens = sample.tokens;
    request.domain = sample.domain;
    request.style = sample.style;
    request.emotion = sample.emotion;
    request.model_name = model;
    return request;
  };

  // 2. Named routing over TCP: a v2 client alternates models per request;
  //    a v1 client (pre-fleet framing, no model field) gets the default.
  net::Client v2, v1;
  v1.set_protocol_version(net::kMinProtocolVersion);
  if (!v2.Connect("127.0.0.1", net.port()).ok() ||
      !v1.Connect("127.0.0.1", net.port()).ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  uint64_t id = 0;
  for (int i = 0; i < num_requests; ++i) {
    net::WireResponse response;
    const std::string model = i % 2 == 0 ? "" : "experimental";
    (void)v2.Call(++id, 0, request_for(static_cast<size_t>(i), model),
                  &response);
  }
  for (int i = 0; i < num_requests / 4; ++i) {
    net::WireResponse response;
    (void)v1.Call(++id, 0, request_for(static_cast<size_t>(i), ""),
                  &response);
  }
  {
    // Unknown names are rejected per request, not per connection.
    net::WireResponse response;
    (void)v2.Call(++id, 0, request_for(0, "no-such-model"), &response);
    std::printf("route to 'no-such-model' -> wire code %d (NOT_FOUND)\n\n",
                static_cast<int>(response.code));
  }
  std::printf("after named + v1 traffic:\n");
  PrintModels(server.Health());

  // 3. Canary a candidate on the default model, serve a slice, promote.
  const std::string canary_ckpt =
      WriteCandidate(&dataset, config, /*seed=*/33, "serve_fleet_canary.ckpt");
  serve::CanaryOptions canary;
  canary.percent = percent;
  canary.window = 32;
  // --quality-slack feeds the canary AUC gate; the gate itself only arms
  // once quality_window > 0 AND labeled feedback flows for the canary slice
  // (step 6 feeds the primary only).
  canary.max_auc_regression =
      ResolveKnob(serve::kQualitySlackKnob, &flags) / 100.0;
  if (Status s = server.StartCanary("", canary_ckpt, canary).get(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < num_requests; ++i) {
    net::WireResponse response;
    if (v2.Call(++id, 0, request_for(static_cast<size_t>(i), ""), &response)
            .ok() &&
        i < 3) {
      std::printf("request %d served by %s v%lld\n", i,
                  response.prediction.canary ? "CANARY" : "primary",
                  static_cast<long long>(response.prediction.model_version));
    }
  }
  std::printf("\nmid-canary (%d%% hash slice):\n", percent);
  PrintModels(server.Health());
  if (Status s = server.PromoteCanary("").get(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // 4. Shadow-score another candidate off the response path.
  const std::string shadow_ckpt =
      WriteCandidate(&dataset, config, /*seed=*/47, "serve_fleet_shadow.ckpt");
  if (Status s = server.StartShadow("", shadow_ckpt).get(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < num_requests; ++i) {
    net::WireResponse response;
    (void)v2.Call(++id, 0, request_for(static_cast<size_t>(i), ""), &response);
  }
  std::printf("\nafter promote + shadow traffic:\n");
  PrintModels(server.Health());

  // 5. Prediction cache + dedup: hammer one hot request — the first
  //    occurrence runs a forward, every replay is answered from the cache
  //    bitwise identically — then read the counters over the wire.
  for (int i = 0; i < num_requests; ++i) {
    net::WireResponse response;
    (void)v2.Call(++id, 0, request_for(0, ""), &response);
  }
  net::WireHealth wire_health;
  if (Status s = v2.GetHealth(++id, &wire_health); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nwire health (v2 frame): cache %s, budget %lld bytes\n",
              wire_health.cache_enabled ? "on" : "off",
              static_cast<long long>(wire_health.cache_bytes_limit));
  for (const net::WireModelHealth& m : wire_health.models) {
    std::printf(
        "    %-14s hits=%-5lld misses=%-5lld deduped=%-4lld entries=%-4lld "
        "bytes=%lld\n",
        m.name.c_str(), static_cast<long long>(m.hits),
        static_cast<long long>(m.misses), static_cast<long long>(m.deduped),
        static_cast<long long>(m.entries), static_cast<long long>(m.bytes));
  }
  {
    net::WireHealth ignored;
    const Status rejected = v1.GetHealth(++id, &ignored);
    std::printf("v1 client asking for health -> %s (health frames are v2+)\n",
                rejected.ToString().c_str());
  }

  // 6. Close the quality loop: serve labeled traffic, feed the outcomes
  //    back, and read the windowed drift health over the wire.
  for (int i = 0; i < num_requests; ++i) {
    const data::NewsSample& sample =
        dataset.samples[static_cast<size_t>(i) % dataset.samples.size()];
    net::WireResponse response;
    if (!v2.Call(++id, 0, request_for(static_cast<size_t>(i), ""), &response)
             .ok() ||
        response.code != net::WireCode::kOk) {
      continue;
    }
    serve::Feedback feedback;
    feedback.domain = sample.domain;
    feedback.p_fake = response.prediction.p_fake;
    feedback.label = sample.label;
    (void)server.RecordFeedback(feedback);
  }
  net::WireHealth quality_health;
  if (Status s = v2.GetHealth(++id, &quality_health); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nwire quality health: feedback_recorded=%lld degraded=%s\n",
              static_cast<long long>(quality_health.feedback_recorded),
              quality_health.quality_degraded ? "yes" : "no");
  for (const net::WireModelHealth& m : quality_health.models) {
    std::printf("    %-14s feedback=%-5lld window=%-4lld auc=",
                m.name.c_str(), static_cast<long long>(m.feedback_total),
                static_cast<long long>(m.quality_window_samples));
    if (m.quality_auc_valid) {
      std::printf("%.4f", m.quality_auc);
    } else {
      std::printf("n/a");
    }
    if (m.bias_spread_valid) {
      std::printf("  bias_spread=%.4f", m.bias_spread);
    }
    std::printf("%s\n", m.quality_degraded ? "  QUALITY-DEGRADED" : "");
  }

  v1.Close();
  v2.Close();
  net.Stop();
  server.Stop();
  std::remove(canary_ckpt.c_str());
  std::remove(shadow_ckpt.c_str());
  return 0;
}
