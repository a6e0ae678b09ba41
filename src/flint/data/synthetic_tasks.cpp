#include "flint/data/synthetic_tasks.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <map>

#include "flint/data/proxy_generator.h"
#include "flint/ml/loss.h"
#include "flint/ml/metrics.h"
#include "flint/util/check.h"
#include "flint/util/thread_pool.h"

namespace flint::data {

namespace {

/// Bias that makes E[sigmoid(N(b, s^2))] approximately equal `ratio`
/// (probit approximation to the logistic-normal integral).
double bias_for_ratio(double ratio, double logit_std) {
  FLINT_CHECK(ratio > 0.0 && ratio < 1.0);
  double logit = std::log(ratio / (1.0 - ratio));
  return logit * std::sqrt(1.0 + M_PI * logit_std * logit_std / 8.0);
}

/// Shared ground truth for one task instance.
struct GroundTruth {
  std::vector<float> weights;  ///< dense-feature or token weights
  double bias = 0.0;
};

/// Strength of the abusive-token signal in messaging logits. Larger values
/// make the task more learnable (clearer separation between spammy and
/// benign token mixes).
constexpr double kMessagingSignalScale = 5.0;

/// The per-example logit standard deviation differs by domain: ads logits
/// are w.x with x ~ N(0, I) (std = |w|), while messaging logits are
/// 2 * mean(w_token) over ~tokens_per_example draws (std = 2/sqrt(len)).
/// Using the wrong geometry miscalibrates the bias by orders of magnitude.
double logit_std_for(const SyntheticTaskConfig& cfg, double weight_norm) {
  if (cfg.domain == Domain::kMessaging)
    return kMessagingSignalScale /
           std::sqrt(std::max<double>(1.0, static_cast<double>(cfg.tokens_per_example)));
  return weight_norm;
}

GroundTruth make_ground_truth(const SyntheticTaskConfig& cfg, util::Rng& rng) {
  GroundTruth gt;
  gt.weights.resize(cfg.domain == Domain::kMessaging ? cfg.vocab : cfg.dense_dim);
  double norm2 = 0.0;
  for (float& w : gt.weights) {
    w = static_cast<float>(rng.normal(0.0, 1.0));
    norm2 += static_cast<double>(w) * w;
  }
  gt.bias = bias_for_ratio(cfg.label_ratio, logit_std_for(cfg, std::sqrt(norm2)));
  return gt;
}

/// Per-client perturbation of the ground truth (concept shift) plus a
/// covariate shift vector.
struct ClientContext {
  std::vector<float> weights;
  std::vector<float> feature_shift;
};

ClientContext make_client_context(const GroundTruth& gt, double heterogeneity,
                                  std::size_t feature_dim, util::Rng& rng) {
  ClientContext ctx;
  ctx.weights = gt.weights;
  for (float& w : ctx.weights)
    w += static_cast<float>(rng.normal(0.0, heterogeneity * 0.5));
  ctx.feature_shift.resize(feature_dim);
  for (float& s : ctx.feature_shift)
    s = static_cast<float>(rng.normal(0.0, heterogeneity * 0.3));
  return ctx;
}

ml::Example make_ads_example(const GroundTruth& gt, const ClientContext& ctx,
                             const SyntheticTaskConfig& cfg, util::Rng& rng) {
  ml::Example e;
  e.dense.resize(cfg.dense_dim);
  double logit = gt.bias;
  for (std::size_t j = 0; j < cfg.dense_dim; ++j) {
    e.dense[j] = static_cast<float>(rng.normal(0.0, 1.0)) + ctx.feature_shift[j];
    logit += static_cast<double>(e.dense[j]) * ctx.weights[j];
  }
  e.label = rng.bernoulli(ml::stable_sigmoid(static_cast<float>(logit))) ? 1.0f : 0.0f;
  return e;
}

ml::Example make_messaging_example(const GroundTruth& gt, const ClientContext& ctx,
                                   const SyntheticTaskConfig& cfg,
                                   const util::ZipfTable& token_ranks, util::Rng& rng) {
  // Tokens follow a client-tilted Zipf over the vocabulary; the label is a
  // noisy function of the mean token weight (abusive-token signal).
  ml::Example e;
  std::size_t len = 1 + static_cast<std::size_t>(rng.poisson(
                            static_cast<double>(cfg.tokens_per_example) - 1.0));
  e.tokens.reserve(len);
  double logit_sum = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    std::size_t rank = token_ranks.sample(rng);
    // Client tilt: shift the rank by a client-specific offset so different
    // clients favour different token regions (vocabulary heterogeneity).
    auto offset = static_cast<std::size_t>(
        std::llround(std::abs(ctx.feature_shift[rank % ctx.feature_shift.size()]) * 50.0));
    std::size_t token = (rank + offset) % cfg.vocab;
    e.tokens.push_back(static_cast<std::int32_t>(token));
    logit_sum += ctx.weights[token];
  }
  double logit =
      gt.bias + kMessagingSignalScale * logit_sum / static_cast<double>(len);
  e.label = rng.bernoulli(ml::stable_sigmoid(static_cast<float>(logit))) ? 1.0f : 0.0f;
  return e;
}

/// One ranking group: `candidates_per_group` examples sharing a group id,
/// with graded relevance from the client's true preference.
std::vector<ml::Example> make_search_group(const GroundTruth& gt, const ClientContext& ctx,
                                           const SyntheticTaskConfig& cfg, std::int32_t group,
                                           util::Rng& rng) {
  std::vector<ml::Example> out;
  std::vector<double> scores;
  out.reserve(cfg.candidates_per_group);
  for (std::size_t c = 0; c < cfg.candidates_per_group; ++c) {
    ml::Example e;
    e.group = group;
    e.dense.resize(cfg.dense_dim);
    double s = 0.0;
    for (std::size_t j = 0; j < cfg.dense_dim; ++j) {
      e.dense[j] = static_cast<float>(rng.normal(0.0, 1.0)) + ctx.feature_shift[j];
      s += static_cast<double>(e.dense[j]) * ctx.weights[j];
    }
    s += rng.normal(0.0, 0.5);  // judgement noise
    scores.push_back(s);
    out.push_back(std::move(e));
  }
  (void)gt;
  // Grade: best candidate 2, next two 1, rest 0 (typical click-grade shape).
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  for (std::size_t r = 0; r < order.size(); ++r)
    out[order[r]].label = r == 0 ? 2.0f : (r <= 2 ? 1.0f : 0.0f);
  return out;
}

std::size_t shift_dim(const SyntheticTaskConfig& cfg) {
  return cfg.domain == Domain::kMessaging ? 64 : cfg.dense_dim;
}

std::vector<ml::Example> make_client_examples(const GroundTruth& gt, const ClientContext& ctx,
                                              const SyntheticTaskConfig& cfg,
                                              const util::ZipfTable& token_ranks, std::size_t count,
                                              std::int32_t group_base, util::Rng& rng) {
  std::vector<ml::Example> out;
  out.reserve(count);
  switch (cfg.domain) {
    case Domain::kAds:
      for (std::size_t i = 0; i < count; ++i) out.push_back(make_ads_example(gt, ctx, cfg, rng));
      break;
    case Domain::kMessaging:
      for (std::size_t i = 0; i < count; ++i)
        out.push_back(make_messaging_example(gt, ctx, cfg, token_ranks, rng));
      break;
    case Domain::kSearch: {
      std::size_t groups = std::max<std::size_t>(1, count / cfg.candidates_per_group);
      for (std::size_t g = 0; g < groups; ++g) {
        auto grp = make_search_group(gt, ctx, cfg, group_base + static_cast<std::int32_t>(g), rng);
        out.insert(out.end(), grp.begin(), grp.end());
      }
      break;
    }
  }
  return out;
}

}  // namespace

const char* domain_name(Domain domain) {
  switch (domain) {
    case Domain::kAds: return "ads";
    case Domain::kMessaging: return "messaging";
    case Domain::kSearch: return "search";
  }
  return "?";
}

std::unique_ptr<ml::Model> FederatedTask::make_model(util::Rng& rng) const {
  ml::FeedForwardConfig mc;
  switch (config.domain) {
    case Domain::kAds:
      mc.dense_dim = config.dense_dim;
      mc.hidden = {32, 16};
      break;
    case Domain::kMessaging:
      mc.front_end = ml::FrontEnd::kEmbedding;
      mc.vocab = config.vocab;
      mc.embed_dim = 16;
      mc.hidden = {16};
      break;
    case Domain::kSearch:
      mc.dense_dim = config.dense_dim;
      mc.hidden = {32};
      break;
  }
  auto model = std::make_unique<ml::FeedForwardModel>(mc);
  model->init(rng);
  return model;
}

LossKind FederatedTask::loss_kind() const {
  return config.domain == Domain::kSearch ? LossKind::kPairwiseRanking
                                          : LossKind::kBinaryCrossEntropy;
}

std::size_t FederatedTask::batch_dense_dim() const {
  return config.domain == Domain::kMessaging ? 0 : config.dense_dim;
}

const char* FederatedTask::metric_name() const {
  return config.domain == Domain::kSearch ? "NDCG@10" : "AUPR";
}

double FederatedTask::evaluate(ml::Model& model) const {
  return evaluate_examples(model, test, config.domain, batch_dense_dim());
}

namespace {

// Run `shard(i)` for i in [0, shards): inline when `pool` is null, fanned
// across the pool otherwise. Shard boundaries are the caller's; they must not
// depend on the pool size or the evaluation stops being thread-invariant.
void run_shards(util::ThreadPool* pool, std::size_t shards,
                const std::function<void(std::size_t)>& shard) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < shards; ++i) shard(i);
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    pending.push_back(pool->submit([&shard, i] { shard(i); }));
  for (auto& f : pending) f.get();
}

}  // namespace

double evaluate_examples(ml::Model& model, const std::vector<ml::Example>& examples,
                         Domain domain, std::size_t dense_dim, util::ThreadPool* pool) {
  FLINT_CHECK(!examples.empty());
  // Each in-flight shard needs its own replica: forward() caches activation
  // state. Clones are made up front on the calling thread; the serial path
  // scores every shard on `model` itself.
  auto replica = [&]() -> std::unique_ptr<ml::Model> {
    return pool == nullptr ? nullptr : model.clone();
  };
  if (domain == Domain::kSearch) {
    // Group examples by ranking group id, score each group, mean NDCG@10.
    // Shards are fixed runs of whole groups (in ascending-gid order) with
    // per-shard partial sums combined in shard order, so the floating-point
    // reduction tree is identical at any thread count.
    std::map<std::int32_t, std::vector<ml::Example>> groups;
    for (const auto& e : examples) groups[e.group].push_back(e);
    std::vector<const std::vector<ml::Example>*> ordered;
    ordered.reserve(groups.size());
    for (auto& [gid, members] : groups) ordered.push_back(&members);
    constexpr std::size_t kGroupsPerShard = 64;
    std::size_t shards = (ordered.size() + kGroupsPerShard - 1) / kGroupsPerShard;
    std::vector<double> partial(shards, 0.0);
    run_shards(pool, shards, [&](std::size_t i) {
      std::unique_ptr<ml::Model> owned = replica();
      ml::Model& m = owned != nullptr ? *owned : model;
      std::size_t begin = i * kGroupsPerShard;
      std::size_t end = std::min(ordered.size(), begin + kGroupsPerShard);
      double sum = 0.0;
      std::vector<float> scores, labels;
      for (std::size_t g = begin; g < end; ++g) {
        const auto& members = *ordered[g];
        ml::Batch batch = ml::Batch::from_examples(members, dense_dim);
        ml::Tensor logits = m.forward(batch);
        scores.clear();
        labels.clear();
        for (std::size_t j = 0; j < members.size(); ++j) {
          scores.push_back(logits.at(j, 0));
          labels.push_back(members[j].label);
        }
        sum += ml::ndcg_at_k(scores, labels, 10);
      }
      partial[i] = sum;
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total / static_cast<double>(groups.size());
  }
  // Classification: score in batches, AUPR over the full set. Shards are
  // fixed batch-aligned example ranges writing disjoint slices of the score
  // vector, so the assembled vector (and the AUPR over it) never depends on
  // the thread count.
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kBatchesPerShard = 8;
  std::vector<float> scores(examples.size()), labels(examples.size());
  constexpr std::size_t kShardSpan = kBatch * kBatchesPerShard;
  std::size_t shards = (examples.size() + kShardSpan - 1) / kShardSpan;
  run_shards(pool, shards, [&](std::size_t i) {
    std::unique_ptr<ml::Model> owned = replica();
    ml::Model& m = owned != nullptr ? *owned : model;
    std::size_t shard_end = std::min(examples.size(), (i + 1) * kShardSpan);
    for (std::size_t start = i * kShardSpan; start < shard_end; start += kBatch) {
      std::size_t end = std::min(shard_end, start + kBatch);
      std::span<const ml::Example> slice(&examples[start], end - start);
      ml::Batch batch = ml::Batch::from_examples(slice, dense_dim);
      ml::Tensor logits = m.forward(batch);
      for (std::size_t j = 0; j < slice.size(); ++j) {
        scores[start + j] = ml::stable_sigmoid(logits.at(j, 0));
        labels[start + j] = slice[j].label;
      }
    }
  });
  return ml::average_precision(scores, labels);
}

FederatedTask make_synthetic_task(const SyntheticTaskConfig& config, util::Rng& rng) {
  FLINT_CHECK(config.clients > 0);
  FederatedTask task;
  task.config = config;

  GroundTruth gt = make_ground_truth(config, rng);

  QuantityProfileConfig qp;
  qp.population = config.clients;
  qp.mean_records = config.mean_records;
  qp.std_records = config.std_records;
  qp.max_records = config.max_records;
  std::vector<std::uint32_t> counts = sample_quantity_profile(qp, rng);
  // Messaging token ranks: Zipf(1.1) over the vocabulary (one rank for the
  // other domains, which draw no tokens).
  const util::ZipfTable token_ranks(config.domain == Domain::kMessaging ? config.vocab : 1, 1.1);

  std::int32_t group_base = 0;
  for (std::size_t k = 0; k < config.clients; ++k) {
    ClientContext ctx = make_client_context(gt, config.heterogeneity, shift_dim(config), rng);
    auto examples = make_client_examples(gt, ctx, config, token_ranks, counts[k], group_base, rng);
    group_base += static_cast<std::int32_t>(examples.size());
    task.train.add_client({static_cast<ClientId>(k), std::move(examples)});
  }

  // Held-out test set: fresh clients from the same population, so the metric
  // reflects the global (cross-client) distribution.
  std::size_t made = 0;
  while (made < config.test_examples) {
    ClientContext ctx = make_client_context(gt, config.heterogeneity, shift_dim(config), rng);
    std::size_t want = std::min<std::size_t>(config.test_examples - made, 40);
    auto examples = make_client_examples(gt, ctx, config, token_ranks, want, group_base, rng);
    group_base += static_cast<std::int32_t>(examples.size());
    made += examples.size();
    task.test.insert(task.test.end(), std::make_move_iterator(examples.begin()),
                     std::make_move_iterator(examples.end()));
  }
  return task;
}

}  // namespace flint::data
