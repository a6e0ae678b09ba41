#include "flint/ml/serialize.h"

#include <cstdint>

#include "flint/util/bytes.h"
#include "flint/util/check.h"

namespace flint::ml {

namespace {

constexpr char kMagic[4] = {'F', 'L', 'M', 'D'};
constexpr std::uint8_t kKindFeedForward = 1;
constexpr std::uint8_t kKindConvText = 2;
constexpr util::EnumCode<std::uint8_t, FrontEnd> kFrontEnd{FrontEnd::kHashing};
// Hidden widths are a u32 count of u64 sizes; the weights a u64 count of f32s.
constexpr util::Count<std::uint32_t> kLayers{};
constexpr util::Count<std::uint64_t> kWeights{};
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t), "model blobs store sizes as u64");

template <typename IO, util::RecordOf<FeedForwardConfig> C>
void walk(IO& io, C& cfg) {
  io.field(cfg.dense_dim);
  io.enumerated(cfg.front_end, kFrontEnd);
  io.field(cfg.vocab);
  io.field(cfg.embed_dim);
  io.field(cfg.hash_buckets);
  io.vector(cfg.hidden, kLayers);
  io.field(cfg.heads);
}

template <typename IO, util::RecordOf<ConvTextConfig> C>
void walk(IO& io, C& cfg) {
  io.field(cfg.vocab);
  io.field(cfg.embed_dim);
  io.field(cfg.seq_len);
  io.field(cfg.conv_channels);
  io.field(cfg.kernel);
  io.vector(cfg.hidden, kLayers);
}

/// a * b + c, or CheckError when that overflows.
std::size_t mul_add(std::size_t a, std::size_t b, std::size_t c) {
  std::size_t product = 0;
  std::size_t sum = 0;
  FLINT_CHECK_MSG(
      !__builtin_mul_overflow(a, b, &product) && !__builtin_add_overflow(product, c, &sum),
      "model blob architecture overflows its parameter count");
  return sum;
}

/// `count` plus the weights and biases of dense layers taking `dim` inputs
/// through `hidden` to `out` outputs.
std::size_t add_dense_stack(std::size_t count, std::size_t dim,
                            const std::vector<std::size_t>& hidden, std::size_t out) {
  for (std::size_t width : hidden) {
    count = mul_add(dim, width, mul_add(1, width, count));
    dim = width;
  }
  return mul_add(dim, out, mul_add(1, out, count));
}

/// The parameter count each architecture implies, computed without building
/// it, so a hostile config is rejected before it allocates.
std::size_t parameter_count(const FeedForwardConfig& cfg) {
  std::size_t count = 0;
  std::size_t dim = cfg.dense_dim;
  if (cfg.front_end == FrontEnd::kEmbedding) {
    count = mul_add(cfg.vocab, cfg.embed_dim, 0);
    dim = mul_add(1, dim, cfg.embed_dim);
  } else if (cfg.front_end == FrontEnd::kHashing) {
    dim = mul_add(1, dim, cfg.hash_buckets);
  }
  return add_dense_stack(count, dim, cfg.hidden, cfg.heads);
}

std::size_t parameter_count(const ConvTextConfig& cfg) {
  const std::size_t embedding = mul_add(cfg.vocab, cfg.embed_dim, 0);
  const std::size_t conv =
      mul_add(mul_add(cfg.kernel, cfg.embed_dim, 0), cfg.conv_channels, cfg.conv_channels);
  return add_dense_stack(mul_add(1, embedding, conv), cfg.conv_channels, cfg.hidden, 1);
}

}  // namespace

std::vector<char> serialize_model(Model& model) {
  util::ByteWriter out;
  out.magic(kMagic, "model blob");
  if (auto* ff = dynamic_cast<FeedForwardModel*>(&model)) {
    out.field(kKindFeedForward);
    walk(out, ff->config());
  } else if (auto* ct = dynamic_cast<ConvTextModel*>(&model)) {
    out.field(kKindConvText);
    walk(out, ct->config());
  } else {
    FLINT_CHECK_MSG(false, "unsupported model type for serialization");
  }
  out.vector(model.get_flat_parameters(), kWeights);
  return out.take();
}

std::unique_ptr<Model> deserialize_model(const std::vector<char>& bytes) {
  util::ByteReader in(bytes);
  in.magic(kMagic, "model blob");
  const auto kind = in.read<std::uint8_t>();
  FeedForwardConfig feedforward;
  ConvTextConfig convtext;
  std::size_t implied = 0;
  switch (kind) {
    case kKindFeedForward:
      walk(in, feedforward);
      implied = parameter_count(feedforward);
      break;
    case kKindConvText:
      walk(in, convtext);
      implied = parameter_count(convtext);
      break;
    default:
      FLINT_CHECK_MSG(false, "unknown model kind " << +kind);
  }
  // The weights are bounded by the bytes left and must end the blob, so the
  // check below also bounds the model the config describes.
  std::vector<float> params;
  in.vector(params, kWeights);
  in.finish("model blob");
  FLINT_CHECK_MSG(params.size() == implied,
                  "blob has " << params.size() << " params, architecture needs " << implied);
  std::unique_ptr<Model> model;
  if (kind == kKindFeedForward) {
    model = std::make_unique<FeedForwardModel>(std::move(feedforward));
  } else {
    model = std::make_unique<ConvTextModel>(std::move(convtext));
  }
  model->set_flat_parameters(params);
  return model;
}

}  // namespace flint::ml
