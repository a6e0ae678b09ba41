#include "flint/util/logging.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>

namespace flint::util {

namespace {

// "[2026-08-05T12:34:56.789]" — UTC wall clock, millisecond precision.
std::string timestamp_utc() {
  using namespace std::chrono;
  // flint-analyze: allow(nondet-source): log-line timestamps are diagnostic
  // wall-clock output and never feed simulated results or artifacts.
  const auto now = system_clock::now();
  const std::time_t secs = system_clock::to_time_t(now);
  const auto ms = duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &secs);
#else
  gmtime_r(&secs, &tm);
#endif
  // 26 bytes for years 0000-9999; 80 holds the widest output six ints can
  // print, so a clock far outside that range still logs an untruncated stamp.
  char buf[80];
  std::snprintf(buf, sizeof(buf), "[%04d-%02d-%02dT%02d:%02d:%02d.%03d]", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(ms));
  return buf;
}

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_role(const std::string& role) {
  MutexLock lock(mu_);
  role_ = role;
}

void Logger::log(LogLevel level, const std::string& msg) {
  static const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  if (!enabled(level)) return;  // callers may bypass the macros
  MutexLock lock(mu_);
  // Unbuffered stderr for every level: diagnostic output must survive a
  // killed process (debug logs are for exactly those situations).
  std::ostream& out = std::cerr;
  out << timestamp_utc();
  if (!role_.empty()) {
    // flint-analyze: allow(nondet-source): the pid tag is diagnostic log
    // attribution only and never feeds simulated results or artifacts.
    out << " [" << static_cast<long long>(::getpid()) << ":" << role_ << "]";
  }
  out << " [" << kNames[static_cast<int>(level)] << "] " << msg << "\n";
}

}  // namespace flint::util
