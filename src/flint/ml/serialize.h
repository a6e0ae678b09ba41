// Self-describing model serialization — the analog of the paper's "convert
// our three candidate models to a TFLite format, and deploy them for
// training ... in our benchmarking app" (§4.1). The format captures the
// architecture config and the flat weights, so a benchmark app (or an rpc
// executor) can reconstruct the exact model without out-of-band schema.
//
// Format: magic "FLMD" | u8 kind | config fields | u64 param_count | f32[].
#pragma once

#include <memory>
#include <vector>

#include "flint/ml/model.h"

namespace flint::ml {

/// Serialize a model (architecture + weights) to bytes.
/// Supports FeedForwardModel and ConvTextModel (the zoo's two families).
std::vector<char> serialize_model(Model& model);

/// Reconstruct a model from serialize_model() bytes. Throws CheckError
/// before building anything unless the config's enums are in range, the
/// parameter count it implies equals the stored count, and the weights end
/// the blob.
std::unique_ptr<Model> deserialize_model(const std::vector<char>& bytes);

}  // namespace flint::ml
