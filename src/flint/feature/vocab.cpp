#include "flint/feature/vocab.h"

#include <algorithm>
#include <unordered_set>

#include "flint/util/check.h"

namespace flint::feature {

Vocab Vocab::build(const std::vector<std::pair<std::string, std::uint64_t>>& frequencies,
                   std::size_t max_size) {
  FLINT_CHECK(max_size > 0);
  auto sorted = frequencies;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  Vocab v;
  std::unordered_set<std::string> seen;
  for (const auto& [token, freq] : sorted) {
    if (v.tokens_.size() >= max_size) break;
    if (seen.insert(token).second) v.tokens_.push_back(token);
  }
  return v;
}

std::size_t Vocab::asset_bytes() const {
  std::size_t bytes = 0;
  for (const auto& t : tokens_) bytes += t.size() + 1;  // newline separator
  return bytes;
}

}  // namespace flint::feature
