#include "flint/device/session_stream.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <queue>
#include <vector>

#include "flint/device/session_io.h"
#include "flint/util/check.h"
#include "flint/util/thread_pool.h"

namespace flint::device {

MaterializedSessionStream::MaterializedSessionStream(SessionLog log, double horizon)
    : log_(std::move(log)), horizon_(horizon) {
  FLINT_CHECK(std::is_sorted(log_.sessions.begin(), log_.sessions.end(), session_order));
}

std::optional<Session> MaterializedSessionStream::next() {
  if (cursor_ == log_.sessions.size()) return std::nullopt;
  return log_.sessions[cursor_++];
}

namespace {

/// Large-population path: generate clients in chunks, spill each chunk
/// (sorted by session_order) to a binary file, then merge the chunk heads
/// through a k-way heap. Peak RSS is one chunk's sessions during generation
/// and k read buffers during the merge — independent of total clients.
class ChunkedSpillSessionStream : public SessionStream {
 public:
  ChunkedSpillSessionStream(const SessionStreamConfig& config, const DeviceCatalog& catalog,
                            std::uint64_t trace_seed)
      : sampler_(config.generator, catalog, trace_seed), clients_(config.generator.clients) {
    namespace fs = std::filesystem;
    static std::atomic<std::uint64_t> dir_counter{0};
    fs::path base = config.spill_dir.empty() ? fs::temp_directory_path() : fs::path(config.spill_dir);
    spill_dir_ = base / ("flint-sessions-" + std::to_string(::getpid()) + "-" +
                         std::to_string(dir_counter.fetch_add(1)));
    std::error_code ec;
    fs::create_directories(spill_dir_, ec);
    FLINT_CHECK_MSG(!ec, "cannot create spill directory " << spill_dir_.string() << ": "
                                                          << ec.message());

    // A constructor that throws never reaches the destructor, so clean up
    // here. spill() has joined its workers by the time anything reaches
    // this handler.
    try {
      spill(std::max<std::size_t>(1, config.clients_per_chunk));
      open_readers(config.read_buffer_sessions);
    } catch (...) {
      readers_.clear();
      fs::remove_all(spill_dir_, ec);
      throw;
    }
  }

  ~ChunkedSpillSessionStream() override {
    std::error_code ec;  // best-effort cleanup; never throw from a destructor
    readers_.clear();
    std::filesystem::remove_all(spill_dir_, ec);
  }

  std::optional<Session> next() override {
    if (heap_.empty()) return std::nullopt;
    MergeEntry top = heap_.top();
    heap_.pop();
    if (auto s = readers_[top.chunk]->next()) heap_.push(MergeEntry{*s, top.chunk});
    return top.s;
  }

  std::size_t clients() const override { return clients_; }
  double horizon() const override { return sampler_.horizon(); }

 private:
  using Run = std::vector<Session>;

  /// Generate and spill the chunks one after another, in index order. Within
  /// a chunk of n clients, worker w of T generates the sub-range
  /// [begin + n·w/T, begin + n·(w+1)/T) into its own run and sorts it; this
  /// thread then merges the T sorted runs straight into the chunk file. The
  /// runs hold disjoint clients and session_order is a total order, so every
  /// chunk file is the same whatever T is, and at most one chunk's sessions
  /// are in memory at a time.
  void spill(std::size_t per_chunk) {
    const std::size_t workers = std::min(util::ThreadPool::hardware_threads(), per_chunk);
    // The runs are allocated here, on the constructing thread, and reused for
    // every chunk: memory a worker freed into its own malloc arena would never
    // serve the run phase. The reserve covers a sub-range's expected sessions
    // with a margin, so the workers do not reallocate in practice.
    const double per_worker = static_cast<double>((per_chunk + workers - 1) / workers);
    const auto reserve = static_cast<std::size_t>(
        1.1 * per_worker * sampler_.expected_sessions_per_client() + 64.0);
    std::vector<Run> runs(workers);
    for (auto& run : runs) run.reserve(reserve);

    // Declared after the runs, so unwinding joins the workers before the runs
    // are freed. One pool serves every chunk. This thread generates too: it
    // joins the last sub-range first, which the pool (handing tasks out in
    // order) has not started, and so runs it itself (help on join). The pool
    // therefore has one worker fewer than there are sub-ranges, and exactly
    // `workers` threads generate.
    util::ThreadPool pool(std::max<std::size_t>(workers - 1, 1));
    std::vector<util::TaskHandle<void>> done;
    for (std::size_t begin = 0; begin < clients_; begin += per_chunk) {
      const std::size_t n = std::min(clients_ - begin, per_chunk);
      done.clear();
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t lo = begin + n * w / workers;
        const std::size_t hi = begin + n * (w + 1) / workers;
        done.push_back(pool.submit([this, &run = runs[w], lo, hi] {
          run.clear();
          for (std::size_t c = lo; c < hi; ++c) sampler_.append_client(c, run);
          std::sort(run.begin(), run.end(), session_order);
        }));
      }
      // Every sub-range finishes before the first error (by worker index) is
      // rethrown, so no worker outlives a failed chunk.
      for (auto it = done.rbegin(); it != done.rend(); ++it) it->wait();
      for (auto& f : done) f.get();
      write_chunk(runs);
    }
  }

  /// K-way merge of the sorted runs into the next chunk file.
  void write_chunk(const std::vector<Run>& runs) {
    struct Cursor {
      const Session* at;
      const Session* end;
    };
    // A min-heap on the head sessions (std heaps keep the maximum on top).
    auto after = [](const Cursor& a, const Cursor& b) { return session_order(*b.at, *a.at); };
    std::vector<Cursor> heads;
    for (const Run& run : runs)
      if (!run.empty()) heads.push_back(Cursor{run.data(), run.data() + run.size()});
    std::make_heap(heads.begin(), heads.end(), after);

    std::string path = (spill_dir_ / ("chunk-" + std::to_string(paths_.size()) + ".bin")).string();
    SessionChunkWriter writer(path);
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), after);
      Cursor& top = heads.back();
      writer.add(*top.at);
      if (++top.at == top.end)
        heads.pop_back();
      else
        std::push_heap(heads.begin(), heads.end(), after);
    }
    writer.finish();
    paths_.push_back(path);
  }

  void open_readers(std::size_t read_buffer_sessions) {
    // Cap total read-back memory, not per-reader memory: with k chunks each
    // reader gets budget/k sessions (floor 64), so the merge working set
    // stays O(read_buffer_sessions) however large the population — growing
    // the population only shrinks each reader's buffer.
    const std::size_t per_reader =
        std::max<std::size_t>(64, read_buffer_sessions / std::max<std::size_t>(1, paths_.size()));
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      readers_.push_back(std::make_unique<SessionChunkReader>(paths_[i], per_reader));
      if (auto s = readers_.back()->next()) heap_.push(MergeEntry{*s, i});
    }
  }

  struct MergeEntry {
    Session s;
    std::size_t chunk;
  };
  /// priority_queue is a max-heap; "after" ordering puts the session_order
  /// minimum on top, with the chunk index as a deterministic final tie-break.
  struct MergeAfter {
    bool operator()(const MergeEntry& a, const MergeEntry& b) const {
      if (session_order(a.s, b.s)) return false;
      if (session_order(b.s, a.s)) return true;
      return a.chunk > b.chunk;
    }
  };

  SessionTraceSampler sampler_;
  std::size_t clients_;
  std::filesystem::path spill_dir_;
  std::vector<std::string> paths_;
  std::vector<std::unique_ptr<SessionChunkReader>> readers_;
  std::priority_queue<MergeEntry, std::vector<MergeEntry>, MergeAfter> heap_;
};

}  // namespace

std::unique_ptr<SessionStream> make_session_stream(const SessionStreamConfig& config,
                                                   const DeviceCatalog& catalog, util::Rng& rng) {
  // Both paths consume exactly one rng draw, the trace seed, and derive all
  // per-client randomness from it, so equal rng states give equal traces.
  if (config.generator.clients <= config.clients_per_chunk) {
    SessionLog log = generate_sessions(config.generator, catalog, rng);
    return std::make_unique<MaterializedSessionStream>(
        std::move(log), static_cast<double>(config.generator.days) * kSecondsPerDay);
  }
  return std::make_unique<ChunkedSpillSessionStream>(config, catalog, rng.next_u64());
}

}  // namespace flint::device
