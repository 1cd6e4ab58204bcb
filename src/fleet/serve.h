// mumak serve: a long-lived daemon that queues injection campaigns from
// multiple clients against one warm fleet. Clients talk MFL1 over a unix
// socket (`mumak submit -- <campaign args>` / `mumak status`); the daemon
// holds a real job queue — submissions enqueue, up to `max_jobs` campaigns
// run concurrently (each by re-execing this binary, so every campaign gets
// the full CLI surface: journals, verdict caches, fleet workers), per-job
// budgets are enforced via the campaign's own --budget-* flags, and jobs
// with the same normalized campaign share one verdict cache file, so a
// queued repeat of a finished job starts with every verdict already known.
// A killed daemon, client or campaign degrades to the existing
// anytime/resume semantics; a submitter that disconnects mid-flight takes
// its job with it (queued: dropped; running: killed — never re-queued).
// See docs/fleet.md.

#ifndef MUMAK_SRC_FLEET_SERVE_H_
#define MUMAK_SRC_FLEET_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mumak {
namespace fleet {

struct ServeOptions {
  // Unix socket the daemon binds (and clients dial).
  std::string socket_path;
  // Injected as `--fleet-workers N` into submissions that do not set their
  // own. 0 = leave submissions alone.
  uint32_t default_workers = 0;
  // Campaigns allowed to run concurrently; further submissions queue.
  uint32_t max_jobs = 1;
  // Per-job budgets (--serve --budget-checks/--budget-seconds): injected
  // into every submission that does not carry its own --budget-* flag, so
  // one runaway campaign cannot starve the queue. 0 = no daemon budget.
  uint64_t budget_checks = 0;
  uint64_t budget_seconds = 0;
  // When non-empty, submissions that do not pass their own --verdict-cache
  // get `<cache_dir>/<SubmitCacheKey(argv)>.mvc` injected: jobs whose
  // campaigns differ only in scheduling flags land on the same cache file,
  // so the second same-fingerprint job starts warm.
  std::string cache_dir;
};

// Normalizes a submitted argv down to the flags that determine the
// campaign's verdict-cache identity — scheduling and observability flags
// (--fleet-*, --budget-*, --jobs, --analysis-jobs, --journal,
// --resume-journal, --metrics*, --progress*, --trace-events,
// --verdict-cache; each with its value
// token) are stripped, what remains is hashed — and returns a 16-hex-digit
// key. Collisions are harmless: the trace fingerprint record that opens
// the cache file rejects a mismatched campaign at load.
std::string SubmitCacheKey(const std::vector<std::string>& args);

// Daemon loop: binds the socket, accepts clients until SIGINT/SIGTERM, and
// runs the job queue. Returns the process exit code. Tests may set
// MUMAK_SERVE_EXEC to override the re-exec binary (/proc/self/exe).
int RunServeDaemon(const ServeOptions& options);

// Client verb: submits `campaign_args` (the argv tail after `submit`,
// exactly as it would follow `mumak` on a command line) and blocks for the
// result frame. Prints the campaign's stdout to stdout and its stderr to
// stderr, then returns the campaign's exit code (2 on daemon/socket
// failures).
int RunSubmitClient(const std::string& socket_path,
                    const std::vector<std::string>& campaign_args);

// Client verb: prints the daemon's job counters, queue depth, and per-job
// states. Returns 0, or 2 when the daemon is unreachable.
int RunStatusClient(const std::string& socket_path);

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_SERVE_H_
