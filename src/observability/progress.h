// Live progress for the CLI: a single stderr line, rewritten in place,
// showing injected/total failure points, the injection rate, and the ETA —
// checked against --budget-seconds so a CI user can see up front whether the
// run will be truncated. Updates are throttled and thread-safe (parallel
// injection workers all report through one reporter).

#ifndef MUMAK_SRC_OBSERVABILITY_PROGRESS_H_
#define MUMAK_SRC_OBSERVABILITY_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace mumak {

class ProgressReporter {
 public:
  // Writes to `out` (stderr by default; tests pass a tmpfile). Does not
  // take ownership.
  explicit ProgressReporter(FILE* out = stderr) : out_(out) {}

  // Starts a phase with a known amount of work. `budget_s` caps the ETA
  // display (infinity = no budget).
  void BeginPhase(const std::string& name, uint64_t total, double budget_s);

  // One unit of work done. Repaints the line at most every interval_ms
  // (the final unit always repaints).
  void Advance(uint64_t n = 1);

  // Ends the phase: paints the final state and a newline.
  void EndPhase();

  uint64_t done() const { return done_.load(std::memory_order_relaxed); }

  // Test hook: 0 disables throttling so every Advance repaints.
  void set_min_interval_ms(uint64_t ms) { min_interval_ms_ = ms; }

 private:
  void Paint(bool final_paint);

  FILE* out_;
  std::mutex mutex_;  // serialises Paint; counters stay lock-free
  std::string phase_;
  uint64_t total_ = 0;
  double budget_s_ = 0;
  uint64_t min_interval_ms_ = 100;
  std::atomic<uint64_t> done_{0};
  std::chrono::steady_clock::time_point phase_start_;
  std::chrono::steady_clock::time_point last_paint_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_OBSERVABILITY_PROGRESS_H_
