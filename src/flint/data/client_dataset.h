// Federated dataset containers. A FederatedDataset maps clients to their
// local examples; ExecutorPartitioning groups clients into per-executor
// partitions (the paper's §3.4 scalability trick: one partition per
// executor rather than one file per client).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "flint/ml/batch.h"

namespace flint::data {

using ClientId = std::uint64_t;

/// One client's local data.
struct ClientDataset {
  ClientId client_id = 0;
  std::vector<ml::Example> examples;

  std::size_t size() const { return examples.size(); }
};

/// In-memory federated dataset: a set of clients with local examples.
/// Clients keep insertion order (stable iteration for determinism) with an
/// id index for O(1) lookup.
class FederatedDataset {
 public:
  FederatedDataset() = default;

  /// Add a client. Duplicate ids are an error (merge first).
  void add_client(ClientDataset client);

  /// Append examples to an existing client or create it.
  void append(ClientId id, std::vector<ml::Example> examples);

  std::size_t client_count() const { return clients_.size(); }
  std::size_t example_count() const;

  bool contains(ClientId id) const { return index_.count(id) > 0; }
  const ClientDataset& client(ClientId id) const;
  const ClientDataset& client_at(std::size_t pos) const;

  const std::vector<ClientDataset>& clients() const { return clients_; }

  /// Flatten every client's examples into one centralized dataset (the
  /// baseline training path).
  std::vector<ml::Example> to_centralized() const;

 private:
  std::vector<ClientDataset> clients_;
  std::unordered_map<ClientId, std::size_t> index_;
};

/// Assignment of clients to executor partitions.
struct ExecutorPartitioning {
  /// partition[p] = client ids owned by executor p.
  std::vector<std::vector<ClientId>> partitions;
};

/// Round-robin clients across `executors` partitions (the paper partitions
/// "for 20 workers by client id in a round-robin fashion").
ExecutorPartitioning partition_round_robin(const FederatedDataset& dataset,
                                           std::size_t executors);

/// Greedy balanced partitioning by example count: each client goes to the
/// currently lightest executor. Reduces straggler partitions under heavy
/// quantity skew.
ExecutorPartitioning partition_balanced(const FederatedDataset& dataset,
                                        std::size_t executors);

}  // namespace flint::data
