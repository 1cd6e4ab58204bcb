// mumak — command line frontend (the paper's implementation couples the
// Pin tools with a Bash driver; this binary plays that role for the
// simulated substrate).
//
//   mumak --target btree --ops 2000
//   mumak --target level_hashing --bug lh.c1_token_before_kv
//   mumak --target rbtree --batched 1024 --pmdk 1.8 --no-warnings
//   mumak --list-targets / --list-bugs
//
// Exit code: 0 when no bugs were found, 1 when bugs were found, 2 on usage
// errors.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/detector_pass.h"
#include "src/core/mumak.h"
#include "src/fleet/bootstrap.h"
#include "src/fleet/serve.h"
#include "src/instrument/trace.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/observability/progress.h"
#include "src/observability/span_tracer.h"
#include "src/targets/bug_registry.h"
#include "src/targets/target.h"

namespace {

// First SIGINT/SIGTERM requests a graceful stop: the injection loops check
// this flag at every boundary and Analyze() returns with what it has, so
// the journal still gets its footer and the partial report is printed. A
// second signal gives up immediately (the conventional 128+SIGINT code).
std::atomic<bool> g_interrupted{false};

void HandleTermination(int) {
  if (g_interrupted.exchange(true)) {
    _exit(130);
  }
}

void InstallTerminationHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleTermination;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

void PrintUsage() {
  std::printf(
      "usage: mumak --target <name> [options]\n"
      "\n"
      "target and workload:\n"
      "  --target <name>       target application (see --list-targets)\n"
      "  --ops <n>             workload operations (default 2000)\n"
      "  --mix <put,get,del>   percentages, default 34,33,33\n"
      "  --keys <n>            key space (default ops/2)\n"
      "  --seed <n>            workload seed (default 42)\n"
      "  --zipfian             zipfian keys instead of uniform\n"
      "  --batched <n>         batch puts into transactions of n ops\n"
      "                        (default: single put per transaction)\n"
      "  --pmdk <1.6|1.8|1.12> substrate version (default 1.6)\n"
      "  --bug <id>            enable a seeded bug (repeatable)\n"
      "\n"
      "analysis:\n"
      "  --store-granularity   failure points at every store (ablation)\n"
      "  --no-fault-injection  trace analysis only\n"
      "  --no-trace-analysis   fault injection only\n"
      "  --no-warnings         report definite bugs only\n"
      "  --json                machine-readable report on stdout\n"
      "  --eadr                analyse under eADR persistency semantics\n"
      "  --jobs <n>            parallel fault-injection workers (default 1)\n"
      "  --fleet-workers <n>   shard the injection phase across n worker\n"
      "                        processes (forces --strategy replay; the\n"
      "                        report is byte-identical to a single-process\n"
      "                        run at any worker count). Workers fork by\n"
      "                        default; --fleet-listen accepts them over TCP\n"
      "  --fleet-listen <host:port>\n"
      "                        instead of forking, listen here and accept up\n"
      "                        to n stateless remote workers started with\n"
      "                        'mumak worker --connect'; each is shipped the\n"
      "                        profiled trace and campaign options over the\n"
      "                        fleet wire protocol\n"
      "  --fleet-accept-timeout-ms <n>\n"
      "                        how long --fleet-listen waits for workers to\n"
      "                        connect (default 15000); zero accepted\n"
      "                        workers degrades to the inline path\n"
      "  --fleet-shards <n>    schedule shards to balance across the fleet\n"
      "                        (default 4x workers)\n"
      "  --fleet-kill-after <n>\n"
      "                        fault-tolerance test hook: kill fleet worker\n"
      "                        0 after its n-th verdict (SIGKILL when\n"
      "                        forked, severed connection when remote)\n"
      "  --analysis-jobs <n>   trace-analysis shard workers (default 1);\n"
      "                        the report is byte-identical at any value\n"
      "  --online-analysis     analyse the trace during profiling instead\n"
      "                        of reading it back overlapping injection\n"
      "  --detectors <list>    comma-separated detector passes to run\n"
      "                        (default: all for the persistency mode;\n"
      "                        see --list-detectors)\n"
      "  --dirty-overwrites    also report stores overwriting unpersisted\n"
      "                        data in the same 8-byte granule (opt-in:\n"
      "                        undo-logged code does this legitimately)\n"
      "  --strategy <s>        injection strategy: 'reexec' runs the\n"
      "                        workload once per --jobs lane, paused at each\n"
      "                        failure point for its crash image; 'replay'\n"
      "                        synthesizes crash images from the profiled\n"
      "                        trace (default reexec)\n"
      "\n"
      "adaptive injection:\n"
      "  --rank                detector-guided dispatch order: failure\n"
      "                        points overlapping trace-analysis durability\n"
      "                        findings first, then by epoch store density\n"
      "                        (joins the analysis before injection starts)\n"
      "  --budget-checks <n>   stop dispatching after n checks; the journal\n"
      "                        stays a valid prefix and --resume-journal\n"
      "                        completes the campaign\n"
      "  --budget-seconds <s>  stop dispatching after s seconds of the\n"
      "                        injection phase (same resume semantics)\n"
      "\n"
      "image deduplication:\n"
      "  --verdict-cache <file>\n"
      "                        persist the content-addressed verdict cache\n"
      "                        across runs (keyed by a fingerprint of the\n"
      "                        profiled trace; stale or corrupt files are\n"
      "                        ignored with a warning); repeated campaigns\n"
      "                        over an unchanged target skip every\n"
      "                        already-checked crash image\n"
      "  --verify-dedup        byte-compare images on digest hits (collision\n"
      "                        guard; keeps a copy of every distinct image)\n"
      "  --no-image-dedup      run the recovery oracle on every crash image\n"
      "                        even when its content was already checked\n"
      "\n"
      "recovery sandbox:\n"
      "  --sandbox <mode>      where the recovery oracle runs:\n"
      "                        'inproc' (default) in this process;\n"
      "                        'forkserver' a pool of long-lived workers\n"
      "                        (one per --jobs slot, recycled periodically).\n"
      "                        Sandboxed checks turn recovery segfaults and\n"
      "                        hangs into reported bugs.\n"
      "  --recovery-timeout-ms <n>\n"
      "                        hard deadline per sandboxed check; a hang is\n"
      "                        killed and reported as recovery-timeout\n"
      "                        (default 2000)\n"
      "  --sandbox-mem-mb <n>  RLIMIT_AS cap for sandbox children\n"
      "                        (0 = uncapped, the default)\n"
      "  --checks-per-fork <n> recycle a fork-server worker after n checks\n"
      "                        (default 256; 1 = a fresh process per check;\n"
      "                        0 = never)\n"
      "\n"
      "  --save-trace <file>   write the PM access trace (binary)\n"
      "  --trace-payloads      saved trace also records the bytes each\n"
      "                        store wrote (replay input)\n"
      "  --trace-format <v>    --save-trace format, 'v2' (flat rows) or\n"
      "                        'v3' (columnar compressed blocks with a seek\n"
      "                        index; the default); the campaign's own\n"
      "                        in-memory trace is always v3\n"
      "  --trace-block-events <n>\n"
      "                        events per v3 block (default 65536); smaller\n"
      "                        blocks seek finer, larger compress better\n"
      "  --seek-checkpoints <n>\n"
      "                        replay-image checkpoints per replay cursor,\n"
      "                        taken as it passes them; a step back resumes\n"
      "                        from the nearest (default 4; 0 off)\n"
      "\n"
      "observability:\n"
      "  --metrics <file>      dump pipeline metrics (counters, gauges,\n"
      "                        latency histograms)\n"
      "  --metrics-format <f>  'json' (default) or 'openmetrics' text\n"
      "                        exposition for the --metrics file\n"
      "  --trace-events <file> write Chrome trace-event JSON (one span per\n"
      "                        pipeline phase + per-injection spans; open\n"
      "                        in Perfetto or chrome://tracing)\n"
      "  --progress            live injected/total + ETA line on stderr\n"
      "  --journal <file>      crash-safe campaign journal (MJN1): every\n"
      "                        dispatch/verdict, phase transitions, and\n"
      "                        periodic metrics snapshots are appended as\n"
      "                        the campaign runs; readable at any time with\n"
      "                        mumak-inspect --from-journal, even after a\n"
      "                        SIGKILL mid-run\n"
      "  --resume-journal <file>\n"
      "                        resume an interrupted campaign from its\n"
      "                        journal: already-verdicted failure points\n"
      "                        are skipped and the journal is extended in\n"
      "                        place (the final report matches an\n"
      "                        uninterrupted run)\n"
      "\n"
      "introspection:\n"
      "  --list-targets        registered targets\n"
      "  --list-bugs           seeded bug corpus (optionally --target)\n"
      "  --list-detectors      registered trace-analysis detector passes\n"
      "\n"
      "daemon mode:\n"
      "  mumak serve --socket <path> [--workers <n>] [--max-jobs <k>]\n"
      "              [--budget-checks <n>] [--budget-seconds <s>]\n"
      "              [--cache-dir <dir>]\n"
      "                        run a campaign daemon on a unix socket:\n"
      "                        submissions enqueue, up to k run concurrently\n"
      "                        (default 1) with --fleet-workers n unless\n"
      "                        they set their own; --budget-* are injected\n"
      "                        per job so one campaign cannot starve the\n"
      "                        queue; --cache-dir shares one verdict cache\n"
      "                        between jobs that differ only in scheduling\n"
      "                        flags\n"
      "  mumak submit --socket <path> -- <campaign args>\n"
      "                        queue a campaign (everything after -- is a\n"
      "                        mumak command line) and wait for its report;\n"
      "                        disconnecting cancels the job\n"
      "  mumak status --socket <path>\n"
      "                        print the daemon's queue depth, running and\n"
      "                        finished jobs, and per-job stop reasons\n"
      "\n"
      "remote worker:\n"
      "  mumak worker --connect <host:port> [--connect-timeout-ms <n>]\n"
      "                        dial a --fleet-listen scheduler and serve\n"
      "                        injection ranges; everything the worker needs\n"
      "                        (trace, schedule, warm cache, oracle spec) is\n"
      "                        shipped over the connection — no shared\n"
      "                        filesystem or fork relationship required\n");
}

// Strict non-negative integer parse: digits only (strtoull alone would
// silently accept "-1" as a huge positive number), no trailing junk, and
// overflow rejected.
bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return errno != ERANGE && end != text && *end == '\0';
}

// Parses the `serve` / `submit` / `status` verb argv tails. Each takes
// --socket <path>; serve adds the queue knobs (--workers, --max-jobs,
// --budget-checks, --budget-seconds, --cache-dir); submit passes
// everything after `--` (or any unrecognised argument onward) to the
// campaign.
int RunServeVerb(const std::string& verb, int argc, char** argv) {
  std::string socket_path;
  mumak::fleet::ServeOptions serve_options;
  uint64_t workers = 0;
  uint64_t max_jobs = 1;
  std::vector<std::string> campaign_args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (verb == "serve" && arg == "--workers" && i + 1 < argc) {
      if (!ParseUint(argv[++i], &workers)) {
        std::fprintf(stderr, "mumak: bad --workers value '%s'\n", argv[i]);
        return 2;
      }
    } else if (verb == "serve" && arg == "--max-jobs" && i + 1 < argc) {
      if (!ParseUint(argv[++i], &max_jobs) || max_jobs == 0) {
        std::fprintf(stderr, "mumak: bad --max-jobs value '%s'\n", argv[i]);
        return 2;
      }
    } else if (verb == "serve" && arg == "--budget-checks" && i + 1 < argc) {
      if (!ParseUint(argv[++i], &serve_options.budget_checks) ||
          serve_options.budget_checks == 0) {
        std::fprintf(stderr, "mumak: bad --budget-checks value '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (verb == "serve" && arg == "--budget-seconds" &&
               i + 1 < argc) {
      if (!ParseUint(argv[++i], &serve_options.budget_seconds) ||
          serve_options.budget_seconds == 0) {
        std::fprintf(stderr, "mumak: bad --budget-seconds value '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (verb == "serve" && arg == "--cache-dir" && i + 1 < argc) {
      serve_options.cache_dir = argv[++i];
    } else if (verb == "submit") {
      // `--` starts the campaign command line; so does the first argument
      // submit itself does not understand.
      int start = i;
      if (arg == "--") {
        ++start;
      }
      for (int j = start; j < argc; ++j) {
        campaign_args.push_back(argv[j]);
      }
      break;
    } else {
      std::fprintf(stderr, "mumak: %s: unknown option '%s'\n", verb.c_str(),
                   arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "mumak: %s requires --socket <path>\n",
                 verb.c_str());
    return 2;
  }
  if (verb == "serve") {
    serve_options.socket_path = socket_path;
    serve_options.default_workers = static_cast<uint32_t>(workers);
    serve_options.max_jobs = static_cast<uint32_t>(max_jobs);
    return mumak::fleet::RunServeDaemon(serve_options);
  }
  if (verb == "submit") {
    return mumak::fleet::RunSubmitClient(socket_path, campaign_args);
  }
  return mumak::fleet::RunStatusClient(socket_path);
}

// Parses the `worker` verb: a stateless remote fleet worker that dials a
// --fleet-listen scheduler and serves injection ranges until shutdown.
int RunWorkerVerb(int argc, char** argv) {
  std::string connect;
  uint64_t timeout_ms = 30000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
      if (!ParseUint(argv[++i], &timeout_ms) || timeout_ms == 0) {
        std::fprintf(stderr, "mumak: bad --connect-timeout-ms value '%s'\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "mumak: worker: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (connect.empty()) {
    std::fprintf(stderr,
                 "mumak: worker requires --connect <host:port>\n");
    return 2;
  }
  return mumak::fleet::RunRemoteWorker(connect,
                                       static_cast<uint32_t>(timeout_ms));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mumak;

  if (argc >= 2 && (std::strcmp(argv[1], "serve") == 0 ||
                    std::strcmp(argv[1], "submit") == 0 ||
                    std::strcmp(argv[1], "status") == 0)) {
    return RunServeVerb(argv[1], argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return RunWorkerVerb(argc, argv);
  }

  std::string target_name;
  std::string save_trace;
  std::string metrics_path;
  std::string metrics_format = "json";
  std::string trace_events_path;
  std::string journal_path;
  std::string resume_journal_path;
  bool progress = false;
  bool trace_payloads = false;
  WorkloadSpec spec;
  spec.operations = 2000;
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  MumakOptions mumak_options;
  bool list_targets = false;
  bool list_bugs = false;
  bool list_detectors = false;
  bool json_output = false;
  bool strategy_explicit = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Both "--flag value" and "--flag=value" are accepted.
    std::optional<std::string> inline_value;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto next = [&](const char* what) -> const char* {
      if (inline_value.has_value()) {
        return inline_value->c_str();
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mumak: %s requires a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--target") {
      target_name = next("--target");
    } else if (arg == "--ops") {
      const char* value = next("--ops");
      if (!ParseUint(value, &spec.operations)) {
        std::fprintf(stderr,
                     "mumak: bad --ops value '%s' (expected a non-negative "
                     "integer)\n",
                     value);
        return 2;
      }
    } else if (arg == "--keys") {
      const char* value = next("--keys");
      if (!ParseUint(value, &spec.key_space)) {
        std::fprintf(stderr,
                     "mumak: bad --keys value '%s' (expected a non-negative "
                     "integer)\n",
                     value);
        return 2;
      }
    } else if (arg == "--seed") {
      const char* value = next("--seed");
      if (!ParseUint(value, &spec.seed)) {
        std::fprintf(stderr,
                     "mumak: bad --seed value '%s' (expected a non-negative "
                     "integer)\n",
                     value);
        return 2;
      }
    } else if (arg == "--mix") {
      const char* mix = next("--mix");
      if (std::sscanf(mix, "%d,%d,%d", &spec.put_pct, &spec.get_pct,
                      &spec.delete_pct) != 3 ||
          spec.put_pct + spec.get_pct + spec.delete_pct != 100) {
        std::fprintf(stderr, "mumak: --mix must be three percentages "
                             "summing to 100\n");
        return 2;
      }
    } else if (arg == "--zipfian") {
      spec.distribution = KeyDistribution::kZipfian;
    } else if (arg == "--batched") {
      uint64_t batch = 0;
      const char* value = next("--batched");
      if (!ParseUint(value, &batch) || batch == 0) {
        std::fprintf(stderr,
                     "mumak: bad --batched value '%s' (expected a positive "
                     "integer)\n",
                     value);
        return 2;
      }
      spec.single_put_per_tx = false;
      options.single_put_per_tx = false;
      options.tx_batch = batch;
      spec.tx_batch = batch;
    } else if (arg == "--pmdk") {
      const std::string version = next("--pmdk");
      if (version == "1.6") {
        options.pmdk_version = PmdkVersion::k16;
      } else if (version == "1.8") {
        options.pmdk_version = PmdkVersion::k18;
      } else if (version == "1.12") {
        options.pmdk_version = PmdkVersion::k112;
      } else {
        std::fprintf(stderr, "mumak: unknown PMDK version '%s'\n",
                     version.c_str());
        return 2;
      }
    } else if (arg == "--bug") {
      options.bugs.insert(next("--bug"));
    } else if (arg == "--store-granularity") {
      mumak_options.granularity = FailurePointGranularity::kStore;
    } else if (arg == "--no-fault-injection") {
      mumak_options.fault_injection = false;
    } else if (arg == "--no-trace-analysis") {
      mumak_options.trace_analysis = false;
    } else if (arg == "--no-warnings") {
      mumak_options.report_warnings = false;
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--eadr") {
      mumak_options.eadr_mode = true;
    } else if (arg == "--jobs") {
      uint64_t jobs = 0;
      const char* value = next("--jobs");
      if (!ParseUint(value, &jobs) || jobs == 0) {
        std::fprintf(stderr,
                     "mumak: bad --jobs value '%s' (expected a positive "
                     "integer)\n",
                     value);
        return 2;
      }
      mumak_options.injection_workers = static_cast<uint32_t>(jobs);
    } else if (arg == "--analysis-jobs") {
      uint64_t jobs = 0;
      const char* value = next("--analysis-jobs");
      if (!ParseUint(value, &jobs) || jobs == 0) {
        std::fprintf(stderr,
                     "mumak: bad --analysis-jobs value '%s' (expected a "
                     "positive integer)\n",
                     value);
        return 2;
      }
      mumak_options.analysis_jobs = static_cast<uint32_t>(jobs);
    } else if (arg == "--trace-format") {
      const std::string value = next("--trace-format");
      if (value == "v2" || value == "2") {
        mumak_options.trace_format = 2;
      } else if (value == "v3" || value == "3") {
        mumak_options.trace_format = 3;
      } else {
        std::fprintf(stderr,
                     "mumak: bad --trace-format value '%s' (expected 'v2' "
                     "or 'v3')\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--trace-block-events") {
      uint64_t events = 0;
      const char* value = next("--trace-block-events");
      if (!ParseUint(value, &events) || events == 0 ||
          events > (1u << 24)) {
        std::fprintf(stderr,
                     "mumak: bad --trace-block-events value '%s' (expected "
                     "1..16777216)\n",
                     value);
        return 2;
      }
      mumak_options.trace_block_events = static_cast<uint32_t>(events);
    } else if (arg == "--seek-checkpoints") {
      uint64_t n = 0;
      const char* value = next("--seek-checkpoints");
      if (!ParseUint(value, &n) || n > 1024) {
        std::fprintf(stderr,
                     "mumak: bad --seek-checkpoints value '%s' (expected "
                     "0..1024)\n",
                     value);
        return 2;
      }
      mumak_options.seek_checkpoints = static_cast<uint32_t>(n);
    } else if (arg == "--online-analysis") {
      mumak_options.online_analysis = true;
    } else if (arg == "--dirty-overwrites") {
      mumak_options.report_dirty_overwrites = true;
    } else if (arg == "--detectors") {
      const std::string list = next("--detectors");
      std::vector<std::string> names;
      size_t begin = 0;
      while (begin <= list.size()) {
        const size_t comma = list.find(',', begin);
        const size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > begin) {
          names.push_back(list.substr(begin, end - begin));
        }
        if (comma == std::string::npos) {
          break;
        }
        begin = comma + 1;
      }
      mumak_options.detectors = std::move(names);
    } else if (arg == "--list-detectors") {
      list_detectors = true;
    } else if (arg == "--sandbox") {
      const std::string mode = next("--sandbox");
      if (mode == "inproc" || mode == "in-process" || mode == "none") {
        mumak_options.sandbox.policy = SandboxPolicy::kInProcess;
      } else if (mode == "forkserver" || mode == "fork-server") {
        mumak_options.sandbox.policy = SandboxPolicy::kForkServer;
      } else {
        std::fprintf(stderr,
                     "mumak: bad --sandbox value '%s' "
                     "(expected inproc|forkserver)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--recovery-timeout-ms") {
      uint64_t ms = 0;
      const char* value = next("--recovery-timeout-ms");
      if (!ParseUint(value, &ms) || ms == 0 || ms > 3600000) {
        std::fprintf(stderr,
                     "mumak: bad --recovery-timeout-ms value '%s' (expected "
                     "milliseconds in [1, 3600000])\n",
                     value);
        return 2;
      }
      mumak_options.sandbox.timeout_ms = static_cast<uint32_t>(ms);
    } else if (arg == "--sandbox-mem-mb") {
      uint64_t mb = 0;
      const char* value = next("--sandbox-mem-mb");
      if (!ParseUint(value, &mb)) {
        std::fprintf(stderr,
                     "mumak: bad --sandbox-mem-mb value '%s' (expected a "
                     "non-negative integer; 0 = uncapped)\n",
                     value);
        return 2;
      }
      mumak_options.sandbox.address_space_bytes = mb << 20;
    } else if (arg == "--checks-per-fork") {
      uint64_t checks = 0;
      const char* value = next("--checks-per-fork");
      if (!ParseUint(value, &checks)) {
        std::fprintf(stderr,
                     "mumak: bad --checks-per-fork value '%s' (expected a "
                     "non-negative integer; 0 = never recycle)\n",
                     value);
        return 2;
      }
      mumak_options.sandbox.checks_per_fork = static_cast<uint32_t>(checks);
    } else if (arg == "--strategy") {
      const std::string strategy = next("--strategy");
      strategy_explicit = true;
      if (strategy == "reexec" || strategy == "re-execute") {
        mumak_options.injection_strategy = InjectionStrategy::kReExecute;
      } else if (strategy == "replay") {
        mumak_options.injection_strategy = InjectionStrategy::kReplay;
      } else {
        std::fprintf(stderr,
                     "mumak: unknown strategy '%s' (reexec|replay)\n",
                     strategy.c_str());
        return 2;
      }
    } else if (arg == "--rank") {
      mumak_options.rank = true;
    } else if (arg == "--budget-checks") {
      uint64_t n = 0;
      const char* value = next("--budget-checks");
      if (!ParseUint(value, &n) || n == 0) {
        std::fprintf(stderr,
                     "mumak: bad --budget-checks value '%s' (expected a "
                     "positive integer)\n",
                     value);
        return 2;
      }
      mumak_options.budget_checks = n;
    } else if (arg == "--budget-seconds") {
      uint64_t seconds = 0;
      const char* value = next("--budget-seconds");
      if (!ParseUint(value, &seconds) || seconds == 0) {
        std::fprintf(stderr,
                     "mumak: bad --budget-seconds value '%s' (expected "
                     "seconds as a positive integer)\n",
                     value);
        return 2;
      }
      mumak_options.time_budget_s = static_cast<double>(seconds);
    } else if (arg == "--fleet-workers") {
      uint64_t n = 0;
      const char* value = next("--fleet-workers");
      if (!ParseUint(value, &n) || n == 0) {
        std::fprintf(stderr,
                     "mumak: bad --fleet-workers value '%s' (expected a "
                     "positive integer)\n",
                     value);
        return 2;
      }
      mumak_options.fleet.workers = static_cast<uint32_t>(n);
    } else if (arg == "--fleet-listen") {
      mumak_options.fleet.listen = next("--fleet-listen");
    } else if (arg == "--fleet-accept-timeout-ms") {
      uint64_t ms = 0;
      const char* value = next("--fleet-accept-timeout-ms");
      if (!ParseUint(value, &ms) || ms == 0 || ms > 3600000) {
        std::fprintf(stderr,
                     "mumak: bad --fleet-accept-timeout-ms value '%s' "
                     "(expected milliseconds in [1, 3600000])\n",
                     value);
        return 2;
      }
      mumak_options.fleet.accept_timeout_ms = static_cast<uint32_t>(ms);
    } else if (arg == "--fleet-shards") {
      uint64_t n = 0;
      const char* value = next("--fleet-shards");
      if (!ParseUint(value, &n) || n == 0) {
        std::fprintf(stderr,
                     "mumak: bad --fleet-shards value '%s' (expected a "
                     "positive integer)\n",
                     value);
        return 2;
      }
      mumak_options.fleet.shards = static_cast<uint32_t>(n);
    } else if (arg == "--fleet-kill-after") {
      uint64_t n = 0;
      const char* value = next("--fleet-kill-after");
      if (!ParseUint(value, &n)) {
        std::fprintf(stderr,
                     "mumak: bad --fleet-kill-after value '%s' (expected a "
                     "non-negative integer)\n",
                     value);
        return 2;
      }
      mumak_options.fleet.kill_worker_after = n;
    } else if (arg == "--verdict-cache") {
      mumak_options.verdict_cache_path = next("--verdict-cache");
    } else if (arg == "--verify-dedup") {
      mumak_options.verify_dedup = true;
    } else if (arg == "--no-image-dedup") {
      mumak_options.image_dedup = false;
    } else if (arg == "--save-trace") {
      save_trace = next("--save-trace");
    } else if (arg == "--trace-payloads") {
      trace_payloads = true;
    } else if (arg == "--metrics") {
      metrics_path = next("--metrics");
    } else if (arg == "--metrics-format") {
      metrics_format = next("--metrics-format");
      if (metrics_format != "json" && metrics_format != "openmetrics") {
        std::fprintf(stderr,
                     "mumak: bad --metrics-format value '%s' "
                     "(expected json|openmetrics)\n",
                     metrics_format.c_str());
        return 2;
      }
    } else if (arg == "--journal") {
      journal_path = next("--journal");
    } else if (arg == "--resume-journal") {
      resume_journal_path = next("--resume-journal");
    } else if (arg == "--trace-events") {
      trace_events_path = next("--trace-events");
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--list-targets") {
      list_targets = true;
    } else if (arg == "--list-bugs") {
      list_bugs = true;
    } else {
      std::fprintf(stderr, "mumak: unknown option '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (list_targets) {
    for (const std::string& name : AllTargetNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (list_detectors) {
    for (const std::string& name : DetectorRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (list_bugs) {
    auto print_bugs = [&](const std::vector<SeededBug>& bugs) {
      for (const SeededBug& bug : bugs) {
        if (!target_name.empty() && bug.target != target_name) {
          continue;
        }
        std::printf("%-42s %-16s %s\n", bug.id.c_str(),
                    std::string(BugClassName(bug.bug_class)).c_str(),
                    bug.description.c_str());
      }
    };
    print_bugs(AllSeededBugs());
    // Recovery-hazard bugs (safe only under --sandbox forkserver).
    print_bugs(RecoveryHazardBugs());
    return 0;
  }
  if (target_name.empty()) {
    std::fprintf(stderr, "mumak: --target is required\n");
    PrintUsage();
    return 2;
  }
  if (!mumak_options.image_dedup &&
      !mumak_options.verdict_cache_path.empty()) {
    std::fprintf(stderr,
                 "mumak: --verdict-cache has no effect with "
                 "--no-image-dedup\n");
  }
  if (mumak_options.fleet.workers > 1) {
    if (strategy_explicit &&
        mumak_options.injection_strategy == InjectionStrategy::kReExecute) {
      std::fprintf(stderr,
                   "mumak: --fleet-workers requires the replay strategy "
                   "(crash images are synthesized from the profiled trace; "
                   "re-execution cannot shard across processes)\n");
      return 2;
    }
    mumak_options.injection_strategy = InjectionStrategy::kReplay;
    // Remote workers rebuild the recovery oracle from this spec; harmless
    // in fork mode (unused there).
    mumak_options.fleet.target_spec =
        fleet::EncodeTargetSpec(target_name, options);
  } else if (!mumak_options.fleet.listen.empty()) {
    std::fprintf(stderr,
                 "mumak: --fleet-listen requires --fleet-workers > 1 (the "
                 "listen address is where remote fleet workers connect)\n");
    return 2;
  }
  if (!journal_path.empty() && !resume_journal_path.empty()) {
    std::fprintf(stderr,
                 "mumak: --journal and --resume-journal are mutually "
                 "exclusive (--resume-journal extends its file in place)\n");
    return 2;
  }
  if (CreateTarget(target_name, options) == nullptr) {
    std::fprintf(stderr, "mumak: unknown target '%s' (see --list-targets)\n",
                 target_name.c_str());
    return 2;
  }
  if (mumak_options.detectors.has_value()) {
    // Validate up front (--eadr may come after --detectors, so this runs
    // post-parse) to fail with a usage error instead of a pipeline throw.
    const DetectorRegistry& registry = DetectorRegistry::Global();
    for (const std::string& name : *mumak_options.detectors) {
      auto pass = registry.Create(name, TraceAnalysisOptions{});
      if (pass == nullptr) {
        std::fprintf(stderr,
                     "mumak: unknown detector '%s' (see --list-detectors)\n",
                     name.c_str());
        return 2;
      }
      if (!pass->supports_mode(mumak_options.eadr_mode)) {
        std::fprintf(stderr,
                     "mumak: detector '%s' does not support %s mode\n",
                     name.c_str(),
                     mumak_options.eadr_mode ? "eADR" : "ADR");
        return 2;
      }
    }
  }

  if (!json_output) {
    std::printf("mumak: analysing %s (%llu ops, %s)\n", target_name.c_str(),
                static_cast<unsigned long long>(spec.operations),
                spec.single_put_per_tx ? "single put per transaction"
                                       : "batched transactions");
    if (mumak_options.sandbox.policy != SandboxPolicy::kInProcess) {
      std::printf("mumak: recovery sandbox: fork-server pool, %u ms deadline\n",
                  mumak_options.sandbox.timeout_ms);
    }
  }
  // Observability wiring: instantiated only when the matching flag was
  // given, so the default run keeps the uninstrumented hot path.
  std::optional<MetricsRegistry> metrics;
  std::optional<SpanTracer> tracer;
  std::optional<ProgressReporter> progress_reporter;
  const bool journaling =
      !journal_path.empty() || !resume_journal_path.empty();
  if (!metrics_path.empty() || journaling) {
    // The journal's periodic metrics records need a registry even when no
    // --metrics dump was requested.
    metrics.emplace();
    mumak_options.metrics = &*metrics;
  }
  if (!trace_events_path.empty()) {
    tracer.emplace();
    mumak_options.tracer = &*tracer;
  }
  if (progress) {
    progress_reporter.emplace(stderr);
    mumak_options.progress = &*progress_reporter;
  }

  // Campaign journal: fresh (--journal) or extended in place after
  // decoding the prior generation (--resume-journal). A journal that
  // cannot be resumed (unreadable, wrong magic/version) falls back to a
  // fresh campaign rather than refusing to run.
  std::unique_ptr<CampaignJournal> journal;
  JournalReplay replay;
  if (!resume_journal_path.empty()) {
    replay = ReplayJournal(resume_journal_path);
    for (const std::string& warning : replay.warnings) {
      std::fprintf(stderr, "mumak: --resume-journal: %s\n", warning.c_str());
    }
    std::string error;
    if (replay.ok) {
      journal = CampaignJournal::OpenForResume(resume_journal_path,
                                               replay.valid_bytes, &error);
      if (journal != nullptr) {
        journal->WriteResumeMarker(replay.verdicts.size());
        mumak_options.resume = &replay;
        if (!json_output) {
          std::printf("mumak: resuming from %s (%zu prior verdict(s))\n",
                      resume_journal_path.c_str(), replay.verdicts.size());
        }
      }
    } else {
      std::fprintf(stderr,
                   "mumak: --resume-journal: %s; starting a fresh campaign\n",
                   replay.error.c_str());
      journal = CampaignJournal::Create(resume_journal_path, &error);
    }
    if (journal == nullptr) {
      std::fprintf(stderr, "mumak: could not open journal %s: %s\n",
                   resume_journal_path.c_str(), error.c_str());
      return 2;
    }
  } else if (!journal_path.empty()) {
    std::string error;
    journal = CampaignJournal::Create(journal_path, &error);
    if (journal == nullptr) {
      std::fprintf(stderr, "mumak: could not create journal %s: %s\n",
                   journal_path.c_str(), error.c_str());
      return 2;
    }
  }
  if (journal != nullptr) {
    std::map<std::string, std::string> header;
    header["target"] = target_name;
    header["ops"] = std::to_string(spec.operations);
    header["keys"] = std::to_string(spec.key_space);
    header["seed"] = std::to_string(spec.seed);
    header["strategy"] =
        mumak_options.injection_strategy == InjectionStrategy::kReplay
            ? "replay"
            : "reexec";
    header["jobs"] = std::to_string(mumak_options.injection_workers);
    header["rank"] = mumak_options.rank ? "1" : "0";
    header["analysis_jobs"] = std::to_string(mumak_options.analysis_jobs);
    header["eadr"] = mumak_options.eadr_mode ? "1" : "0";
    header["sandbox"] =
        mumak_options.sandbox.policy == SandboxPolicy::kInProcess
            ? "inproc"
            : "forkserver";
    journal->WriteHeader(header);
    journal->AttachMetrics(&*metrics);
    mumak_options.journal = journal.get();
  }

  // Graceful interruption: the first SIGINT/SIGTERM cancels the campaign
  // at the next check boundary (partial report + journal footer still
  // happen), a second one exits immediately.
  InstallTerminationHandlers();
  mumak_options.cancel = &g_interrupted;

  Mumak mumak([target_name, options] {
    return CreateTarget(target_name, options);
  }, spec, mumak_options);
  const MumakResult result = mumak.Analyze();

  const bool interrupted = g_interrupted.load();
  if (journal != nullptr) {
    journal->SampleMetricsNow();
    journal->WriteFooter(result.report.BugCount(),
                         result.report.WarningCount(), result.elapsed_s,
                         interrupted,
                         result.fault_injection.budget_stopped
                             ? "budget-exhausted"
                             : "");
    journal->Close();
  }
  if (interrupted) {
    std::fprintf(stderr, "mumak: interrupted; reporting partial results\n");
  }
  if (result.fault_injection.budget_stopped) {
    std::fprintf(stderr,
                 "mumak: injection budget exhausted after %llu check(s); "
                 "the report is a valid prefix%s\n",
                 static_cast<unsigned long long>(
                     result.fault_injection.injections),
                 journal != nullptr
                     ? " (complete it with --resume-journal)"
                     : "");
  }

  // Observability dumps go to their files; confirmations to stderr so
  // --json keeps stdout machine-readable.
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    if (out) {
      if (metrics_format == "openmetrics") {
        out << result.metrics.RenderOpenMetrics();
      } else {
        out << result.metrics.RenderJson() << "\n";
      }
    }
    if (out) {
      std::fprintf(stderr, "mumak: metrics written to %s\n",
                   metrics_path.c_str());
    } else {
      std::fprintf(stderr, "mumak: could not write %s\n",
                   metrics_path.c_str());
    }
  }
  if (!trace_events_path.empty()) {
    if (tracer->WriteFile(trace_events_path)) {
      std::fprintf(stderr,
                   "mumak: trace events written to %s (%zu spans; load in "
                   "Perfetto or chrome://tracing)\n",
                   trace_events_path.c_str(), tracer->size());
    } else {
      std::fprintf(stderr, "mumak: could not write %s\n",
                   trace_events_path.c_str());
    }
  }

  if (!save_trace.empty()) {
    // Re-collect the trace for the archive (Analyze() does not hand its
    // stream out, and the archive may want another format or payloads).
    // The file carries a site-name footer so mumak-inspect can resolve
    // locations offline.
    TargetPtr target = CreateTarget(target_name, options);
    PmPool pool(target->DefaultPoolSize());
    TraceSinkOptions sink_options;
    // 'v2' keeps the historical flat-row behaviour: payload-less archives
    // stay version-1 files, --trace-payloads upgrades to version 2.
    sink_options.format = mumak_options.trace_format == 3 ? 3 : 0;
    sink_options.with_payloads = trace_payloads;
    sink_options.block_events = mumak_options.trace_block_events;
    TraceFileSink sink(save_trace, sink_options);
    {
      ScopedSink attach(pool.hub(), &sink);
      FaultInjectionEngine::ExecuteWorkload(*target, pool, spec);
    }
    sink.Close();
    if (sink.ok()) {
      std::fprintf(stderr,
                   "mumak: trace saved to %s (%llu events, %llu payload "
                   "bytes)\n",
                   save_trace.c_str(),
                   static_cast<unsigned long long>(sink.count()),
                   static_cast<unsigned long long>(sink.payload_bytes()));
    } else {
      std::fprintf(stderr, "mumak: could not write %s\n",
                   save_trace.c_str());
    }
  }

  if (json_output) {
    std::printf("%s\n",
                result.report.RenderJson(mumak_options.report_warnings)
                    .c_str());
    return interrupted ? 130 : result.report.BugCount() == 0 ? 0 : 1;
  }
  std::printf("%s", result.report.Render(mumak_options.report_warnings)
                        .c_str());
  // Image-dedup accounting on its own line (the final summary line's
  // format is part of the CLI's parsed surface).
  if (mumak_options.fault_injection && mumak_options.image_dedup &&
      result.fault_injection.injections > 0) {
    std::printf(
        "mumak: image dedup: %llu distinct image(s), %llu verdict(s) from "
        "cache",
        static_cast<unsigned long long>(
            result.fault_injection.distinct_images),
        static_cast<unsigned long long>(result.fault_injection.dedup_hits));
    if (!mumak_options.verdict_cache_path.empty()) {
      std::printf(", %llu loaded / %llu saved (%s)",
                  static_cast<unsigned long long>(
                      result.fault_injection.cache_loaded),
                  static_cast<unsigned long long>(
                      result.fault_injection.cache_saved),
                  mumak_options.verdict_cache_path.c_str());
    }
    if (mumak_options.verify_dedup) {
      std::printf(", %llu collision(s)",
                  static_cast<unsigned long long>(
                      result.fault_injection.dedup_collisions));
    }
    std::printf("\n");
  }
  // Resume accounting: verdicts carried over from the prior journal
  // generation instead of re-run (a fully-verdicted resume over a warm
  // cache performs zero oracle invocations).
  if (result.fault_injection.resumed > 0) {
    std::printf("mumak: resume: %llu verdict(s) carried over from the prior "
                "journal generation\n",
                static_cast<unsigned long long>(
                    result.fault_injection.resumed));
  }
  // Adaptive-scheduler accounting (only when one of its flags was given).
  if (mumak_options.rank || mumak_options.budget_checks > 0 ||
      std::isfinite(mumak_options.time_budget_s)) {
    std::printf("mumak: adaptive: %llu check(s) dispatched",
                static_cast<unsigned long long>(
                    result.fault_injection.injections));
    if (mumak_options.rank) {
      std::printf(", %llu ranked finding hit(s)",
                  static_cast<unsigned long long>(
                      result.fault_injection.plan_finding_hits));
    }
    if (result.fault_injection.budget_stopped) {
      std::printf(", budget exhausted");
    }
    std::printf("\n");
  }
  std::printf(
      "mumak: %.2fs | %llu failure points, %llu injections%s | %llu trace "
      "events | %llu bug(s), %llu warning(s)\n",
      result.elapsed_s,
      static_cast<unsigned long long>(result.fault_injection.failure_points),
      static_cast<unsigned long long>(result.fault_injection.injections),
      result.fault_injection.replayed > 0 ? " (replayed)" : "",
      static_cast<unsigned long long>(result.trace.events),
      static_cast<unsigned long long>(result.report.BugCount()),
      static_cast<unsigned long long>(result.report.WarningCount()));
  return interrupted ? 130 : result.report.BugCount() == 0 ? 0 : 1;
}
