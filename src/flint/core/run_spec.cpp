#include "flint/core/run_spec.h"

#include <cstdlib>
#include <iostream>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/check.h"

namespace flint::core {

void RunSpec::reject(const std::string& why) { throw util::CheckError(why); }

RunSpec& RunSpec::add(Flag flag) {
  FLINT_CHECK_MSG(find(flag.name) == nullptr, "flag --" << flag.name << " declared twice");
  flags_.push_back(std::move(flag));
  return *this;
}

RunSpec::Flag* RunSpec::find(const std::string& name) {
  for (Flag& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

RunSpec& RunSpec::flag(std::string name, FlagKind kind, std::string* out, std::string meta) {
  return add({std::move(name), kind, meta,
              [out, meta](const std::string& v) {
                if (meta.find('|') != std::string::npos &&
                    (v.find('|') != std::string::npos ||
                     ("|" + meta + "|").find("|" + v + "|") == std::string::npos))
                  reject("'" + v + "' is not one of " + meta);
                *out = v;
              },
              [out] { return *out; }});
}

RunSpec& RunSpec::flag(std::string name, FlagKind kind, bool* out) {
  return add({std::move(name), kind, "", [out](const std::string&) { *out = true; },
              [out] { return std::string(*out ? "on" : "off"); }});
}

RunSpec& RunSpec::with_artifact(std::string default_path) {
  artifact_out = std::move(default_path);
  return flag("artifact-out", FlagKind::kWallTime, &artifact_out, "PATH");
}

RunSpec& RunSpec::with_telemetry(bool status) {
  flag("trace-out", FlagKind::kWallTime, &telemetry.trace_out, "PATH");
  flag("metrics-out", FlagKind::kWallTime, &telemetry.metrics_out, "PATH");
  return status ? flag("status-out", FlagKind::kWallTime, &telemetry.status_out, "PATH") : *this;
}

RunSpec& RunSpec::with_checkpoints(std::uint64_t default_every) {
  checkpoint_every = default_every;
  return flag("checkpoint-dir", FlagKind::kWallTime, &checkpoint_dir, "DIR")
      .flag("checkpoint-every", FlagKind::kWallTime, &checkpoint_every, 0)
      .flag("resume", FlagKind::kWallTime, &resume);
}

void RunSpec::parse(int argc, char** argv) {
  if (argc > 0) {
    program_ = argv[0];
    program_.erase(0, program_.find_last_of('/') + 1);
    if (rest_ != nullptr) rest_->push_back(argv[0]);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    Flag* f = arg.rfind("--", 0) == 0 ? find(arg.substr(2, eq - 2)) : nullptr;
    if (f == nullptr) {
      if (rest_ == nullptr) reject("unknown argument " + arg);
      rest_->push_back(argv[i]);
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      if (f->meta.empty()) reject("--" + f->name + " takes no value");
      value = arg.substr(eq + 1);
    } else if (!f->meta.empty()) {
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
        reject("--" + f->name + " needs a value (" + f->meta + ")");
      value = argv[++i];
    }
    try {
      f->set(value);
    } catch (const util::CheckError& e) {
      reject("--" + f->name + ": " + e.what());
    }
  }
  telemetry.tracing_enabled = !telemetry.trace_out.empty();
  telemetry.metrics_enabled = telemetry.tracing_enabled || !telemetry.metrics_out.empty() ||
                              !telemetry.status_out.empty();
  // Pin the kernel path before anything trains; an rpc leader forwards the
  // spec to its executors, so the whole fleet computes on one path.
  if (!kernels.empty()) ml::kernels::set_path(kernels);
}

void RunSpec::parse_or_exit(int argc, char** argv) {
  try {
    parse(argc, argv);
  } catch (const util::CheckError& e) {
    std::cerr << program_ << ": " << e.what() << "\n" << usage() << "\n";
    std::exit(2);
  }
}

std::string RunSpec::config_text() const {
  std::string text = description_;
  for (const Flag& f : flags_)
    if (f.kind == FlagKind::kResult) text += " " + f.name + "=" + f.render();
  return text;
}

std::string RunSpec::usage() const {
  std::string text = "usage: " + program_;
  for (const Flag& f : flags_)
    text += " [--" + f.name + (f.meta.empty() ? "" : " " + f.meta) + "]";
  return rest_ != nullptr ? text + " [flags for the next parser]" : text;
}

}  // namespace flint::core
