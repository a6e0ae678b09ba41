#include "flint/ml/serialize.h"

#include <cstring>

#include "flint/util/bytes.h"
#include "flint/util/check.h"

namespace flint::ml {

namespace {

constexpr char kMagic[4] = {'F', 'L', 'M', 'D'};
constexpr std::uint8_t kKindFeedForward = 1;
constexpr std::uint8_t kKindConvText = 2;

template <typename T>
void put(std::vector<char>& out, const T& v) {
  util::append_pod(out, v);
}

template <typename T>
T get(const std::vector<char>& in, std::size_t& offset) {
  FLINT_CHECK_MSG(offset + sizeof(T) <= in.size(), "truncated model blob");
  return util::read_pod<T>(in, offset);
}

void put_sizes(std::vector<char>& out, const std::vector<std::size_t>& sizes) {
  put(out, static_cast<std::uint32_t>(sizes.size()));
  for (std::size_t s : sizes) put(out, static_cast<std::uint64_t>(s));
}

std::vector<std::size_t> get_sizes(const std::vector<char>& in, std::size_t& offset) {
  auto n = get<std::uint32_t>(in, offset);
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::size_t>(get<std::uint64_t>(in, offset)));
  return out;
}

void put_feedforward_config(std::vector<char>& out, const FeedForwardConfig& cfg) {
  put(out, static_cast<std::uint64_t>(cfg.dense_dim));
  put(out, static_cast<std::uint8_t>(cfg.front_end));
  put(out, static_cast<std::uint64_t>(cfg.vocab));
  put(out, static_cast<std::uint64_t>(cfg.embed_dim));
  put(out, static_cast<std::uint64_t>(cfg.hash_buckets));
  put_sizes(out, cfg.hidden);
  put(out, static_cast<std::uint64_t>(cfg.heads));
}

FeedForwardConfig get_feedforward_config(const std::vector<char>& in, std::size_t& offset) {
  FeedForwardConfig cfg;
  cfg.dense_dim = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.front_end = static_cast<FrontEnd>(get<std::uint8_t>(in, offset));
  cfg.vocab = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.embed_dim = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.hash_buckets = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.hidden = get_sizes(in, offset);
  cfg.heads = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  return cfg;
}

void put_convtext_config(std::vector<char>& out, const ConvTextConfig& cfg) {
  put(out, static_cast<std::uint64_t>(cfg.vocab));
  put(out, static_cast<std::uint64_t>(cfg.embed_dim));
  put(out, static_cast<std::uint64_t>(cfg.seq_len));
  put(out, static_cast<std::uint64_t>(cfg.conv_channels));
  put(out, static_cast<std::uint64_t>(cfg.kernel));
  put_sizes(out, cfg.hidden);
}

ConvTextConfig get_convtext_config(const std::vector<char>& in, std::size_t& offset) {
  ConvTextConfig cfg;
  cfg.vocab = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.embed_dim = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.seq_len = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.conv_channels = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.kernel = static_cast<std::size_t>(get<std::uint64_t>(in, offset));
  cfg.hidden = get_sizes(in, offset);
  return cfg;
}

}  // namespace

std::vector<char> serialize_model(Model& model) {
  std::vector<char> out;
  out.insert(out.end(), kMagic, kMagic + 4);
  if (auto* ff = dynamic_cast<FeedForwardModel*>(&model)) {
    put(out, kKindFeedForward);
    put_feedforward_config(out, ff->config());
  } else if (auto* ct = dynamic_cast<ConvTextModel*>(&model)) {
    put(out, kKindConvText);
    put_convtext_config(out, ct->config());
  } else {
    FLINT_CHECK_MSG(false, "unsupported model type for serialization");
  }
  std::vector<float> params = model.get_flat_parameters();
  put(out, static_cast<std::uint64_t>(params.size()));
  util::append_pod_array(out, params.data(), params.size());
  return out;
}

std::unique_ptr<Model> deserialize_model(const std::vector<char>& bytes) {
  FLINT_CHECK_MSG(bytes.size() >= 5 && std::memcmp(bytes.data(), kMagic, 4) == 0,
                  "bad model blob magic");
  std::size_t offset = 4;
  auto kind = get<std::uint8_t>(bytes, offset);
  std::unique_ptr<Model> model;
  switch (kind) {
    case kKindFeedForward:
      model = std::make_unique<FeedForwardModel>(get_feedforward_config(bytes, offset));
      break;
    case kKindConvText:
      model = std::make_unique<ConvTextModel>(get_convtext_config(bytes, offset));
      break;
    default:
      FLINT_CHECK_MSG(false, "unknown model kind " << static_cast<int>(kind));
  }
  auto count = get<std::uint64_t>(bytes, offset);
  FLINT_CHECK_MSG(count == model->parameter_count(),
                  "blob has " << count << " params, architecture needs "
                              << model->parameter_count());
  // Division form: `offset + count * sizeof(float)` wraps for a corrupt huge
  // count, bypassing the bound.
  FLINT_CHECK_MSG(offset <= bytes.size() &&
                      count <= (bytes.size() - offset) / sizeof(float),
                  "truncated weights");
  std::vector<float> params(count);
  util::read_pod_array(bytes, offset, params.data(), params.size());
  model->set_flat_parameters(params);
  return model;
}

}  // namespace flint::ml
