// Local (on-device) training and the centralized baseline trainer.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "flint/data/synthetic_tasks.h"
#include "flint/ml/loss.h"
#include "flint/ml/model.h"
#include "flint/ml/optimizer.h"

namespace flint::fl {

/// Hyper-parameters of one client's local training pass.
struct LocalTrainConfig {
  double lr = 0.05;
  int epochs = 1;
  std::size_t batch_size = 16;
  data::LossKind loss = data::LossKind::kBinaryCrossEntropy;
  /// Gradient clip (L2, per step); 0 disables.
  double clip_norm = 0.0;
  double momentum = 0.0;
  /// FedProx proximal coefficient mu (Li et al., 2020): adds mu*(w - w_global)
  /// to every gradient step, limiting client drift under heterogeneity.
  /// 0 disables (plain FedAvg local SGD).
  double prox_mu = 0.0;
};

/// One client's result: the parameter delta relative to the global model.
struct LocalTrainResult {
  std::vector<float> delta;
  double mean_loss = 0.0;
  std::size_t examples = 0;
};

/// Reusable local trainer: holds one model replica per executor and runs
/// SGD from a supplied global parameter vector. Ranking tasks step per
/// group; classification tasks step per mini-batch.
class LocalTrainer {
 public:
  /// `model` is the replica this trainer mutates; `dense_dim` is the batch
  /// densification width (0 for token-only models).
  LocalTrainer(std::unique_ptr<ml::Model> model, std::size_t dense_dim);

  LocalTrainResult train(std::span<const ml::Example> data,
                         std::span<const float> global_params,
                         const LocalTrainConfig& config);

  ml::Model& model() { return *model_; }

 private:
  // `params` is model_->parameters().
  double train_classification(std::span<const ml::Example> data,
                              const std::vector<ml::Parameter*>& params,
                              const LocalTrainConfig& config, ml::SgdOptimizer& opt);
  double train_ranking(std::span<const ml::Example> data,
                       const std::vector<ml::Parameter*>& params, const LocalTrainConfig& config,
                       ml::SgdOptimizer& opt);
  /// One SGD step after a forward(): zero the gradients, backprop d_logits,
  /// clip, add the proximal term, update.
  void step(const std::vector<ml::Parameter*>& params, const ml::Tensor& d_logits,
            const LocalTrainConfig& config, ml::SgdOptimizer& opt);
  /// Add mu*(w - w_anchor) to the accumulated gradients (FedProx).
  void add_proximal_gradient(const std::vector<ml::Parameter*>& params, double mu);

  std::unique_ptr<ml::Model> model_;
  std::size_t dense_dim_;
  std::vector<float> prox_anchor_;  ///< global params for the current call
  // Per-step scratch, reused across steps and calls: once warm, a
  // classification step of a single-head model allocates nothing.
  ml::Batch batch_;
  ml::LossResult loss_;
  // Ranking scratch, reused across train() calls so repeat clients don't
  // re-pay the allocations (capacity persists; contents are per-call).
  std::vector<std::size_t> ranking_order_;
  std::vector<ml::Example> ranking_grouped_;
};

/// Centralized baseline: epochs of shuffled mini-batch SGD over the merged
/// dataset. Returns the per-epoch metric curve on `task.test`.
std::vector<double> train_centralized(ml::Model& model, const data::FederatedTask& task,
                                      const LocalTrainConfig& config, int epochs,
                                      util::Rng& rng);

}  // namespace flint::fl
