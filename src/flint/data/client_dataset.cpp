#include "flint/data/client_dataset.h"

#include <algorithm>

#include "flint/util/check.h"

namespace flint::data {

void FederatedDataset::add_client(ClientDataset client) {
  FLINT_CHECK_MSG(index_.count(client.client_id) == 0,
                  "duplicate client id " << client.client_id);
  index_[client.client_id] = clients_.size();
  clients_.push_back(std::move(client));
}

void FederatedDataset::append(ClientId id, std::vector<ml::Example> examples) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    add_client({id, std::move(examples)});
    return;
  }
  auto& dst = clients_[it->second].examples;
  dst.insert(dst.end(), std::make_move_iterator(examples.begin()),
             std::make_move_iterator(examples.end()));
}

std::size_t FederatedDataset::example_count() const {
  std::size_t n = 0;
  for (const auto& c : clients_) n += c.size();
  return n;
}

const ClientDataset& FederatedDataset::client(ClientId id) const {
  auto it = index_.find(id);
  FLINT_CHECK_MSG(it != index_.end(), "unknown client id " << id);
  return clients_[it->second];
}

const ClientDataset& FederatedDataset::client_at(std::size_t pos) const {
  FLINT_CHECK(pos < clients_.size());
  return clients_[pos];
}

std::vector<ml::Example> FederatedDataset::to_centralized() const {
  std::vector<ml::Example> out;
  out.reserve(example_count());
  for (const auto& c : clients_)
    out.insert(out.end(), c.examples.begin(), c.examples.end());
  return out;
}

ExecutorPartitioning partition_round_robin(const FederatedDataset& dataset,
                                           std::size_t executors) {
  FLINT_CHECK(executors > 0);
  ExecutorPartitioning out;
  out.partitions.resize(executors);
  std::size_t i = 0;
  for (const auto& c : dataset.clients()) out.partitions[i++ % executors].push_back(c.client_id);
  return out;
}

ExecutorPartitioning partition_balanced(const FederatedDataset& dataset, std::size_t executors) {
  FLINT_CHECK(executors > 0);
  // Sort clients by descending size, then greedily assign to the lightest
  // partition (LPT scheduling) for a 4/3-approximate balance.
  std::vector<std::size_t> order(dataset.client_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dataset.client_at(a).size() > dataset.client_at(b).size();
  });
  ExecutorPartitioning out;
  out.partitions.resize(executors);
  std::vector<std::size_t> load(executors, 0);
  for (std::size_t pos : order) {
    std::size_t lightest =
        static_cast<std::size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    out.partitions[lightest].push_back(dataset.client_at(pos).client_id);
    load[lightest] += dataset.client_at(pos).size();
  }
  return out;
}

}  // namespace flint::data
