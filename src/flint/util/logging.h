// Leveled logging for the simulator. The leader/executor loops log progress
// at Info; tests set the level to Warn to keep output clean.
//
// The level check is a single relaxed atomic load, and the FLINT_LOG_* macros
// skip message formatting entirely when the level is disabled — a Debug line
// in a hot loop costs one load + branch. Emission itself stays serialized
// under a mutex so concurrent lines never interleave.
#pragma once

#include <atomic>
#include <iosfwd>
#include <sstream>
#include <string>

#include "flint/util/thread_annotations.h"

namespace flint::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-global log configuration. Thread-safe.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Lock-free check used by the macros to skip formatting early.
  bool enabled(LogLevel level) const {
    return level != LogLevel::kOff &&
           static_cast<int>(level) >= static_cast<int>(level_.load(std::memory_order_relaxed));
  }

  /// Tag every line with "[<pid>:<role>]" ("leader", "executor-2") so the
  /// interleaved stderr of a multi-process run stays attributable. Empty
  /// (the default) keeps the single-process format unchanged.
  void set_role(const std::string& role) FLINT_EXCLUDES(mu_);

  /// Emit a line if `level` passes the configured threshold. Serialized:
  /// concurrent calls never interleave within a line.
  void log(LogLevel level, const std::string& msg) FLINT_EXCLUDES(mu_);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  mutable Mutex mu_;  ///< serializes emission
  std::string role_ FLINT_GUARDED_BY(mu_);  ///< empty = no pid:role tag
};

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().log(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace flint::util

// The empty-if/else shape makes the whole statement (including the streamed
// operands) dead when the level is disabled, while still binding a trailing
// `<< x << y;` to the LogLine and staying safe under an unbraced `if (c) FLINT_LOG_...`.
#define FLINT_LOG_AT_(lvl)                                      \
  if (!::flint::util::Logger::instance().enabled(lvl)) { \
  } else                                                        \
    ::flint::util::detail::LogLine(lvl)

#define FLINT_LOG_DEBUG FLINT_LOG_AT_(::flint::util::LogLevel::kDebug)
#define FLINT_LOG_INFO FLINT_LOG_AT_(::flint::util::LogLevel::kInfo)
#define FLINT_LOG_WARN FLINT_LOG_AT_(::flint::util::LogLevel::kWarn)
#define FLINT_LOG_ERROR FLINT_LOG_AT_(::flint::util::LogLevel::kError)
