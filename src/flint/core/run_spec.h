// core::RunSpec — the one command-line parser of every FLINT binary
// (DESIGN.md §6 "One run spec"). A binary declares each flag it acts on,
// bound to the variable that holds its default, as kResult (it can change
// what the run computes, so its canonical `name=value` joins config_text()
// and the artifact's fingerprint) or kWallTime (speed, placement or side
// files only). The shared wall-time groups (with_*) fill the public members
// below, and their wiring — kernel pin, TelemetryConfig, CheckpointStore,
// RpcRuntime — lives here. parse() takes `--name value` or `--name=value`
// and throws CheckError on an unknown flag, a missing value, a malformed or
// out-of-range number, or a value outside a flag's choices.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "flint/fl/rpc_runtime.h"
#include "flint/obs/telemetry.h"
#include "flint/store/checkpoint.h"

namespace flint::core {

enum class FlagKind { kWallTime, kResult };

class RunSpec {
 public:
  struct Flag {
    std::string name;  ///< without the leading "--"
    FlagKind kind;
    std::string meta;  ///< usage placeholder ("N", "a|b"); empty for a switch
    std::function<void(const std::string&)> set;  ///< throws CheckError
    std::function<std::string()> render;          ///< canonical current value
  };

  /// `description` opens config_text(): the settings no flag changes.
  explicit RunSpec(std::string description) : description_(std::move(description)) {}
  RunSpec(const RunSpec&) = delete;  // flags point into this object
  RunSpec& operator=(const RunSpec&) = delete;

  // Declarations; `*out` holds the default. Text whose `meta` lists choices
  // ("a|b") takes only those; a switch renders as on/off; a number is read
  // whole and rendered by from_chars/to_chars (a real in its shortest
  // round-trip form, so `1.5` and `1.50` fingerprint alike).
  RunSpec& flag(std::string name, FlagKind kind, std::string* out, std::string meta);
  RunSpec& flag(std::string name, FlagKind kind, bool* out);
  template <class T>
    requires std::is_arithmetic_v<T> && (!std::same_as<T, bool>)
  RunSpec& flag(std::string name, FlagKind kind, T* out, std::type_identity_t<T> min,
                std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    return add({std::move(name), kind, std::is_integral_v<T> ? "N" : "X",
                [out, min, max](const std::string& v) {
                  T x{};
                  auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
                  if (v.empty() || ec != std::errc() || end != v.data() + v.size())
                    reject("'" + v + "' is not a number");
                  if (!(x >= min && x <= max))  // also rejects nan
                    reject(v + " is outside [" + render(min) + ", " + render(max) + "]");
                  *out = x;
                },
                [out] { return render(*out); }});
  }

  // Shared wall-time groups: --threads; --kernels (parse() pins the path);
  // --artifact-out; --trace-out, --metrics-out [, --status-out];
  // --checkpoint-dir, --checkpoint-every, --resume; --transport,
  // --rpc-executors, --executor-bin, --rpc-dir.
  RunSpec& with_threads() { return flag("threads", FlagKind::kWallTime, &threads, 1, 1024); }
  RunSpec& with_kernels() {
    return flag("kernels", FlagKind::kWallTime, &kernels, "auto|scalar|avx2|neon");
  }
  RunSpec& with_artifact(std::string default_path);
  RunSpec& with_telemetry(bool status);
  RunSpec& with_checkpoints(std::uint64_t default_every);
  RunSpec& with_rpc();
  /// Hand argv[0] and every argument no flag claims to `rest` instead of
  /// rejecting it, for a second parser to read.
  RunSpec& pass_unknown_to(std::vector<char*>* rest) {
    rest_ = rest;
    return *this;
  }

  void parse(int argc, char** argv);
  /// parse(), or print the error and usage() and exit 2.
  void parse_or_exit(int argc, char** argv);
  /// The description, then ` name=value` per result flag in declaration
  /// order: the only text that reaches the artifact's fingerprint.
  std::string config_text() const;
  std::string usage() const;
  const std::vector<Flag>& flags() const { return flags_; }

  // Wiring of the shared groups, after parse(). Each is null, with `inputs`
  // untouched, without --checkpoint-dir or in process; otherwise it must
  // outlive the run, and start_rpc() wants `inputs` complete (the model
  // ships at registration).
  std::unique_ptr<store::CheckpointStore> open_checkpoints(fl::RunInputs& inputs) const;
  std::unique_ptr<fl::RpcRuntime> start_rpc(fl::RunInputs& inputs) const;

  std::size_t threads = 1;
  std::string kernels;
  std::string artifact_out;
  /// The telemetry outputs; parse() enables tracing with --trace-out and
  /// metrics with any output.
  obs::TelemetryConfig telemetry;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 10;
  bool resume = false;
  fl::RpcRuntimeConfig rpc;  ///< trace_dir is the caller's to set

 private:
  template <class T>
  static std::string render(T v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  [[noreturn]] static void reject(const std::string& why);
  RunSpec& add(Flag flag);
  Flag* find(const std::string& name);

  std::string description_;
  std::string program_ = "flint";
  std::vector<Flag> flags_;
  std::vector<char*>* rest_ = nullptr;
};

// The rpc group and the wiring are inline so that a binary which never calls
// them, like flint_executor, links neither the rpc runtime nor the store.

inline RunSpec& RunSpec::with_rpc() {
  return add({"transport", FlagKind::kWallTime, "inprocess|loopback|unix|tcp",
              [this](const std::string& v) { rpc.kind = fl::parse_transport(v); },
              [this] { return std::string(fl::transport_name(rpc.kind)); }})
      .flag("rpc-executors", FlagKind::kWallTime, &rpc.executors, 1, 256)
      .flag("executor-bin", FlagKind::kWallTime, &rpc.executor_bin, "PATH")
      .flag("rpc-dir", FlagKind::kWallTime, &rpc.socket_dir, "DIR");
}

inline std::unique_ptr<store::CheckpointStore> RunSpec::open_checkpoints(
    fl::RunInputs& inputs) const {
  if (checkpoint_dir.empty()) return nullptr;
  // Heap-allocated because CheckpointStore owns a mutex and is immovable.
  auto store = std::make_unique<store::CheckpointStore>(checkpoint_dir);
  inputs.leader.checkpoint_every_rounds = checkpoint_every;
  inputs.leader.checkpoint_store = store.get();
  if (resume) inputs.resume_from = store.get();
  return store;
}

inline std::unique_ptr<fl::RpcRuntime> RunSpec::start_rpc(fl::RunInputs& inputs) const {
  if (rpc.kind == fl::TransportKind::kInProcess) return nullptr;
  auto runtime = std::make_unique<fl::RpcRuntime>(rpc, inputs);
  inputs.rpc_leader = runtime->leader();
  return runtime;
}

}  // namespace flint::core
