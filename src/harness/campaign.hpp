// Campaign runner: fan a vector of experiment configurations across a
// thread pool. Each configuration builds its own Rig/engine (the simulator
// has no global mutable state), so independent runs parallelize trivially;
// results come back in configuration order regardless of scheduling, which
// keeps sweep output deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace wfd::harness {

/// Worker count for `jobs` independent runs; `requested` 0 = hardware
/// concurrency, always clamped to [1, jobs].
inline int campaign_threads(int requested, std::size_t jobs) {
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = static_cast<std::size_t>(
      requested > 0 ? requested : (hw == 0 ? 1 : static_cast<int>(hw)));
  if (threads > jobs) threads = jobs;
  return threads < 1 ? 1 : static_cast<int>(threads);
}

/// Live campaign progress, handed to ProgressOptions::on_progress.
struct CampaignProgress {
  std::size_t completed = 0;  ///< jobs finished so far
  std::size_t total = 0;      ///< jobs in the campaign
  double elapsed_ms = 0.0;    ///< since the campaign started
};

/// Periodic progress reporting for a campaign. The callback fires from a
/// dedicated monitor thread (never a worker), every `interval_ms` while
/// jobs are outstanding, plus exactly once after the last job completes —
/// so a consumer of a campaign that runs to completion always observes
/// completed == total (a campaign aborted by a throwing `fn` reports the
/// completion count reached before the abort). The callback must not
/// throw; it may take as long as it likes (workers never wait on it).
struct ProgressOptions {
  std::function<void(const CampaignProgress&)> on_progress;
  std::uint64_t interval_ms = 1000;
};

/// Run `fn(config)` for every configuration on up to `threads` workers.
/// `fn` must be callable concurrently from distinct threads and its result
/// default-constructible; results keep configuration order. If `fn` throws,
/// the first exception is rethrown on the calling thread — but only after
/// every worker and the monitor have been joined, because all of them
/// reference this frame's locals (results, counters, the condvar); the
/// remaining jobs are abandoned.
template <class Config, class Fn>
auto run_campaign(const std::vector<Config>& configs, Fn fn, int threads = 0,
                  const ProgressOptions& progress = {})
    -> std::vector<std::invoke_result_t<Fn&, const Config&>> {
  using Result = std::invoke_result_t<Fn&, const Config&>;
  using Clock = std::chrono::steady_clock;
  std::vector<Result> results(configs.size());
  const int pool_size = campaign_threads(threads, configs.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < configs.size();
         i = cursor.fetch_add(1)) {
      if (abort.load(std::memory_order_acquire)) return;
      try {
        results[i] = fn(configs[i]);
      } catch (...) {
        // First exception wins; the abort flag drains the other workers.
        // Nothing may escape a pool thread (that would std::terminate).
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort.store(true, std::memory_order_release);
        return;
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  };

  // Monitor thread: wakes on the interval (or when the campaign finishes,
  // via the condvar) and reports. Started only when a callback is set so
  // the plain path stays thread-free beyond the pool itself.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::vector<std::thread> pool;
  std::thread monitor;

  // Shutdown ordering is explicit and exception-safe: workers first, then
  // the monitor (its final callback must see the last completion), both
  // joined before anything above them in this frame — results included —
  // can be destroyed. The guard makes that hold on every exit path; the
  // normal path runs the same sequence eagerly so the final progress
  // callback precedes the return.
  struct Shutdown {
    std::vector<std::thread>* pool;
    std::thread* monitor;
    std::mutex* done_mu;
    std::condition_variable* done_cv;
    bool* done;
    void join_all() {
      for (std::thread& t : *pool) {
        if (t.joinable()) t.join();
      }
      if (monitor->joinable()) {
        {
          std::lock_guard<std::mutex> lock(*done_mu);
          *done = true;
        }
        done_cv->notify_all();
        monitor->join();
      }
    }
    ~Shutdown() { join_all(); }
  } shutdown{&pool, &monitor, &done_mu, &done_cv, &done};

  const Clock::time_point start = Clock::now();
  if (progress.on_progress) {
    monitor = std::thread([&] {
      std::unique_lock<std::mutex> lock(done_mu);
      for (;;) {
        const bool finished = done_cv.wait_for(
            lock, std::chrono::milliseconds(progress.interval_ms),
            [&] { return done; });
        CampaignProgress p;
        p.completed = completed.load(std::memory_order_acquire);
        p.total = configs.size();
        p.elapsed_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                                 start)
                           .count();
        progress.on_progress(p);
        if (finished) return;
      }
    });
  }

  if (pool_size > 1) {
    pool.reserve(static_cast<std::size_t>(pool_size) - 1);
    for (int t = 1; t < pool_size; ++t) pool.emplace_back(worker);
  }
  worker();  // never throws: exceptions are trapped into first_error
  shutdown.join_all();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace wfd::harness
