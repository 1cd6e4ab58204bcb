// mumak-inspect — offline analysis of a saved PM access trace (the file
// `mumak --save-trace` produces). The paper's pipeline separates trace
// collection from analysis; this tool is the offline half: it prints
// stream statistics and optionally re-runs the §4.2 pattern analysis,
// under ADR or eADR semantics.
//
//   mumak-inspect trace.bin
//   mumak-inspect --analyze trace.bin
//   mumak-inspect --analyze --eadr trace.bin
//   mumak-inspect --histograms --metrics metrics.json trace.bin
//   mumak-inspect --trace-info trace.bin
//
// It is also the reader half of the campaign flight recorder: given a
// journal (`mumak --journal`), --from-journal reconstructs a valid partial
// report from any prefix — including one torn mid-record by a SIGKILL —
// and --follow tails a running campaign with a live progress/ETA line.
//
//   mumak-inspect --from-journal campaign.mjn
//   mumak-inspect --from-journal campaign.mjn --json
//   mumak-inspect --from-journal campaign.mjn --follow

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/detector_pass.h"
#include "src/analysis/trace_analysis.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/instrument/trace.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"

namespace {

// ASCII rendering of a fixed-bucket histogram: one row per non-empty
// bucket, bar scaled to the largest bucket.
void PrintHistogram(const mumak::Histogram& histogram) {
  using mumak::Histogram;
  uint64_t largest = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (histogram.bucket_count(i) > largest) {
      largest = histogram.bucket_count(i);
    }
  }
  if (largest == 0) {
    return;
  }
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t count = histogram.bucket_count(i);
    if (count == 0) {
      continue;
    }
    const int bar = static_cast<int>(count * 40 / largest);
    std::printf("    [%10" PRIu64 ", %10" PRIu64 "] %10" PRIu64 " %.*s\n",
                Histogram::BucketLowerBound(i),
                Histogram::BucketUpperBound(i), count, bar,
                "########################################");
  }
}

// One anytime snapshot of a journal, printed as text or JSON. The decoded
// prefix is always valid (ReplayJournal tolerates torn tails), so this
// works identically on a finished campaign, a running one, and one that
// was SIGKILLed mid-injection.
void PrintJournalSnapshot(const mumak::JournalReplay& replay, bool json) {
  using mumak::Report;
  const Report report = replay.ReconstructReport();
  if (json) {
    // Wrapper object: campaign progress plus the reconstructed report
    // (the same shape `mumak --json` prints).
    std::string phase = replay.phases.empty() ? "" : replay.phases.back();
    std::printf(
        "{\"journal\": {\"complete\": %s, \"interrupted\": %s, "
        "\"verdicts\": %" PRIu64 ", \"dispatches\": %" PRIu64 ", "
        "\"failure_points\": %" PRIu64 ", \"pm_events\": %" PRIu64 ", "
        "\"resume_generations\": %" PRIu64 ", \"last_phase\": \"%s\", "
        "\"stop_reason\": \"%s\", "
        "\"warnings\": %zu}, \"report\": %s}\n",
        replay.has_footer ? "true" : "false",
        replay.interrupted ? "true" : "false",
        static_cast<uint64_t>(replay.verdicts.size()), replay.dispatches,
        replay.failure_points, replay.pm_events, replay.resume_generations,
        phase.c_str(), replay.footer_reason.c_str(),
        replay.warnings.size(),
        report.RenderJson(true).c_str());
    return;
  }
  std::printf("=== campaign journal ===\n");
  for (const auto& [key, value] : replay.header) {
    std::printf("  %-14s %s\n", key.c_str(), value.c_str());
  }
  if (replay.has_profile) {
    std::printf("  %-14s %" PRIu64 " failure points, %" PRIu64
                " PM events (fingerprint %016" PRIx64 ")\n",
                "profile", replay.failure_points, replay.pm_events,
                replay.fingerprint);
  }
  if (!replay.phases.empty()) {
    std::printf("  %-14s %s\n", "last phase", replay.phases.back().c_str());
  }
  std::printf("  %-14s %" PRIu64 " dispatched, %zu verdict(s)", "progress",
              replay.dispatches, replay.verdicts.size());
  if (replay.failure_points > 0) {
    std::printf(" of %" PRIu64 " (%.1f%%)", replay.failure_points,
                100.0 * static_cast<double>(replay.verdicts.size()) /
                    static_cast<double>(replay.failure_points));
  }
  std::printf("\n");
  if (replay.resume_generations > 0) {
    std::printf("  %-14s %" PRIu64 "\n", "resumes",
                replay.resume_generations);
  }
  if (replay.has_footer) {
    std::printf("  %-14s %s after %.2fs (%" PRIu64 " bug(s), %" PRIu64
                " warning(s))%s%s\n",
                "finished", replay.interrupted ? "interrupted" : "complete",
                replay.footer_elapsed_s, replay.footer_bugs,
                replay.footer_warnings,
                replay.footer_reason.empty() ? "" : " — ",
                replay.footer_reason.c_str());
  } else {
    std::printf("  %-14s no footer — campaign still running or killed\n",
                "finished");
  }
  std::printf("\n%s", report.Render(true).c_str());
}

// Tails a running campaign: re-decodes the journal prefix until the
// footer lands, printing a progress/ETA line. Exits 3 when the journal
// stops growing without a footer (the campaign died).
int FollowJournal(const std::string& path, bool json) {
  constexpr int kPollMs = 500;
  constexpr int kStalePolls = 30;  // ~15s without growth = dead campaign
  uint64_t last_valid_bytes = 0;
  int stale = 0;
  for (;;) {
    const mumak::JournalReplay replay = mumak::ReplayJournal(path);
    if (!replay.ok) {
      std::fprintf(stderr, "mumak-inspect: %s\n", replay.error.c_str());
      return 2;
    }
    if (replay.has_footer) {
      std::fprintf(stderr, "\n");
      PrintJournalSnapshot(replay, json);
      const mumak::Report report = replay.ReconstructReport();
      return report.BugCount() == 0 ? 0 : 1;
    }
    const double elapsed_s =
        static_cast<double>(replay.last_t_us) / 1e6;
    const size_t done = replay.verdicts.size();
    std::string line = "mumak-inspect: ";
    line += replay.phases.empty() ? std::string("starting")
                                  : replay.phases.back();
    char buf[160];
    if (replay.failure_points > 0 && done > 0 && elapsed_s > 0) {
      const double rate = static_cast<double>(done) / elapsed_s;
      const double eta =
          static_cast<double>(replay.failure_points - done) / rate;
      std::snprintf(buf, sizeof(buf),
                    " | %zu/%" PRIu64 " verdicts (%.1f%%) | ETA %.1fs",
                    done, replay.failure_points,
                    100.0 * static_cast<double>(done) /
                        static_cast<double>(replay.failure_points),
                    eta);
    } else {
      std::snprintf(buf, sizeof(buf), " | %zu verdicts", done);
    }
    line += buf;
    std::fprintf(stderr, "\r%-78s", line.c_str());
    std::fflush(stderr);
    if (replay.valid_bytes == last_valid_bytes) {
      if (++stale >= kStalePolls) {
        std::fprintf(stderr,
                     "\nmumak-inspect: journal stopped growing without a "
                     "footer (campaign died?)\n");
        PrintJournalSnapshot(replay, json);
        return 3;
      }
    } else {
      stale = 0;
      last_valid_bytes = replay.valid_bytes;
    }
    usleep(kPollMs * 1000);
  }
}

// Loads `path`, printing what salvage did; false, after printing why,
// when it does not load.
bool Load(const std::string& path, mumak::LoadedTrace* trace) {
  std::string error;
  if (!mumak::LoadTraceFile(path, trace, &error)) {
    std::fprintf(stderr, "mumak-inspect: cannot read '%s': %s\n",
                 path.c_str(), error.c_str());
    return false;
  }
  for (const std::string& warning : trace->warnings) {
    std::fprintf(stderr, "mumak: %s\n", warning.c_str());
  }
  return true;
}

// Events the file holds: those that loaded plus those of dropped blocks.
uint64_t FileEvents(const mumak::LoadedTrace& trace) {
  uint64_t events = trace.stream.events();
  for (const mumak::TraceBlockIndexEntry& entry : trace.dropped) {
    events += entry.events;
  }
  return events;
}

// Calls `fn(view, i)` on every event of `stream`, in order.
template <typename Fn>
void ForEachEvent(const mumak::TraceStream& stream, Fn fn) {
  mumak::TraceBlockDecoder decoder;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const mumak::TraceBlockView& view = stream.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i) {
      fn(view, i);
    }
  }
}

// Per-epoch persistency statistics for `--trace-info`. An epoch is the
// span between two consecutive failure points under the §4.1 gating: a
// persistency instruction closes an epoch only when at least one store
// landed since the previous failure point (store-free flush/fence runs
// leave the crash image unchanged and never open a new epoch).
void PrintEpochStats(const mumak::TraceStream& stream) {
  using namespace mumak;
  struct Epoch {
    uint64_t end_seq = 0;
    uint64_t stores = 0;
    uint64_t flushes = 0;
    uint64_t fences = 0;
  };
  std::vector<Epoch> epochs;
  Epoch current;
  bool store_since_fp = false;
  ForEachEvent(stream, [&](const TraceBlockView& view, size_t i) {
    const EventKind kind = static_cast<EventKind>(view.kinds[i]);
    if (IsStore(kind)) {
      ++current.stores;
      store_since_fp = true;
    } else if (IsFlush(kind)) {
      ++current.flushes;
    } else if (IsFence(kind)) {
      ++current.fences;
    }
    if (IsPersistencyInstruction(kind) && store_since_fp) {
      store_since_fp = false;
      current.end_seq = view.seqs[i];
      epochs.push_back(current);
      current = Epoch{};
    }
  });
  const bool open_tail =
      current.stores + current.flushes + current.fences > 0;
  std::printf("  %-20s %zu%s\n", "epochs", epochs.size(),
              open_tail ? " (+1 open tail)" : "");
  constexpr size_t kMaxRows = 32;
  for (size_t i = 0; i < epochs.size() && i < kMaxRows; ++i) {
    std::printf("    epoch %4zu @ seq %-10" PRIu64 " %6" PRIu64
                " store(s) %6" PRIu64 " flush(es) %4" PRIu64 " fence(s)\n",
                i, epochs[i].end_seq, epochs[i].stores, epochs[i].flushes,
                epochs[i].fences);
  }
  if (epochs.size() > kMaxRows) {
    std::printf("    ... (%zu more epochs)\n", epochs.size() - kMaxRows);
  }
  if (open_tail) {
    std::printf("    open tail %15s %6" PRIu64 " store(s) %6" PRIu64
                " flush(es) %4" PRIu64
                " fence(s) (no closing persistency instruction)\n",
                "", current.stores, current.flushes, current.fences);
  }
}

// `--trace-info`: file-format facts about a saved trace — version,
// counts, block/compression layout (v3), and whether the footer index
// survived — plus the per-epoch store/flush/fence profile the adaptive
// scheduler ranks by. Works on v1/v2/v3.
int PrintTraceInfo(const std::string& path) {
  using namespace mumak;
  LoadedTrace trace;
  if (!Load(path, &trace)) {
    return 2;
  }
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  const uint64_t file_bytes = size_error ? 0 : size;
  const TraceStream& stream = trace.stream;
  const char* layout = trace.version == 3
                           ? "columnar blocks, LZ-compressed"
                           : (trace.version == 2 ? "flat rows + payloads"
                                                 : "flat rows");
  const uint64_t events = FileEvents(trace);
  std::printf("%s:\n", path.c_str());
  std::printf("  %-20s v%" PRIu32 " (%s)\n", "format", trace.version, layout);
  std::printf("  %-20s %" PRIu64 "\n", "events", events);
  std::printf("  %-20s %" PRIu64 "\n", "file bytes", file_bytes);

  uint64_t payload_bytes = 0;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    payload_bytes += stream.block(b).payload_bytes;
  }
  for (const TraceBlockIndexEntry& entry : trace.dropped) {
    payload_bytes += entry.payload_bytes;
  }
  std::printf("  %-20s %" PRIu64 "%s\n", "payload bytes", payload_bytes,
              stream.with_payloads() ? "" : " (payload-less)");

  if (trace.version != 3) {
    std::printf("  %-20s none (flat row stream; no seek index)\n", "blocks");
    std::printf("  %-20s %zu\n", "site names", trace.site_names.size());
    PrintEpochStats(stream);
    return 0;
  }

  std::printf("  %-20s %zu (%" PRIu32 " events/block)\n", "blocks",
              stream.blocks() + trace.dropped.size(), stream.block_events());
  // Encoded vs raw column bytes of the blocks that loaded, from their
  // frame headers.
  uint64_t encoded_bytes = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_raw_blocks = 0;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const TraceBlockHeader header = stream.frame_header(b);
    encoded_bytes += header.encoded_len;
    raw_bytes += header.raw_len;
    if (header.encoded_len == header.raw_len) {
      ++stored_raw_blocks;
    }
  }
  if (encoded_bytes > 0) {
    std::printf("  %-20s %" PRIu64 " encoded / %" PRIu64
                " raw columns (%.2fx)\n",
                "block bytes", encoded_bytes, raw_bytes,
                static_cast<double>(raw_bytes) /
                    static_cast<double>(encoded_bytes));
  }
  if (stored_raw_blocks > 0) {
    std::printf("  %-20s %" PRIu64 " (incompressible, stored raw)\n",
                "uncompressed blocks", stored_raw_blocks);
  }
  // What the same stream costs as a flat v2 row file: 32 bytes per event
  // plus the payload arena plus the 20-byte header.
  const uint64_t flat_bytes = 20 + events * 32 + payload_bytes;
  if (file_bytes > 0) {
    std::printf("  %-20s %.2fx smaller than flat v2 (%" PRIu64 " bytes)\n",
                "compression", static_cast<double>(flat_bytes) /
                                   static_cast<double>(file_bytes),
                flat_bytes);
  }
  std::printf("  %-20s %s\n", "index",
              trace.index_rebuilt
                  ? "REBUILT by frame scan (footer torn or missing)"
                  : "intact (footer index + CRC)");
  std::printf("  %-20s %zu\n", "corrupt blocks", trace.dropped.size());
  std::printf("  %-20s %zu\n", "site names", trace.site_names.size());
  PrintEpochStats(stream);
  return trace.dropped.empty() ? 0 : 1;
}

int InspectJournal(const std::string& path, bool follow, bool json,
                   bool openmetrics) {
  if (follow) {
    return FollowJournal(path, json);
  }
  const mumak::JournalReplay replay = mumak::ReplayJournal(path);
  for (const std::string& warning : replay.warnings) {
    std::fprintf(stderr, "mumak-inspect: %s\n", warning.c_str());
  }
  if (!replay.ok) {
    std::fprintf(stderr, "mumak-inspect: %s\n", replay.error.c_str());
    return 2;
  }
  if (openmetrics) {
    // Exposition surface: just the newest embedded snapshot, in a form a
    // Prometheus textfile collector can ingest directly.
    const std::string text =
        mumak::MetricsJsonToOpenMetrics(replay.last_metrics_json);
    if (text.empty()) {
      std::fprintf(stderr,
                   "mumak-inspect: '%s' has no metrics snapshot (was the "
                   "campaign run with --metrics or --journal metrics "
                   "attached?)\n",
                   path.c_str());
      return 2;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  PrintJournalSnapshot(replay, json);
  const mumak::Report report = replay.ReconstructReport();
  return report.BugCount() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mumak;

  bool analyze = false;
  bool eadr = false;
  bool histograms = false;
  bool dirty_overwrites = false;
  uint32_t analysis_jobs = 1;
  std::optional<std::vector<std::string>> detectors;
  std::string metrics_path;
  std::string metrics_format = "json";
  std::string from_journal;
  bool follow = false;
  bool json = false;
  bool trace_info = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--eadr") {
      eadr = true;
    } else if (arg == "--histograms") {
      histograms = true;
    } else if (arg == "--dirty-overwrites") {
      dirty_overwrites = true;
    } else if (arg == "--analysis-jobs") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "mumak-inspect: --analysis-jobs requires a value\n");
        return 2;
      }
      const long jobs = std::strtol(argv[++i], nullptr, 10);
      if (jobs < 1) {
        std::fprintf(stderr,
                     "mumak-inspect: bad --analysis-jobs value '%s' "
                     "(expected a positive integer)\n",
                     argv[i]);
        return 2;
      }
      analysis_jobs = static_cast<uint32_t>(jobs);
    } else if (arg == "--detectors") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mumak-inspect: --detectors requires a list\n");
        return 2;
      }
      const std::string list = argv[++i];
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
      detectors = std::move(names);
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mumak-inspect: --metrics requires a file\n");
        return 2;
      }
      metrics_path = argv[++i];
    } else if (arg == "--metrics-format") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "mumak-inspect: --metrics-format requires a value\n");
        return 2;
      }
      metrics_format = argv[++i];
      if (metrics_format != "json" && metrics_format != "openmetrics") {
        std::fprintf(stderr,
                     "mumak-inspect: bad --metrics-format value '%s' "
                     "(expected json|openmetrics)\n",
                     metrics_format.c_str());
        return 2;
      }
    } else if (arg == "--from-journal") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "mumak-inspect: --from-journal requires a file\n");
        return 2;
      }
      from_journal = argv[++i];
    } else if (arg == "--trace-info") {
      trace_info = true;
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: mumak-inspect [--analyze] [--eadr] [--dirty-overwrites] "
          "[--analysis-jobs <n>] [--detectors <list>] [--histograms] "
          "[--metrics <file>] [--metrics-format json|openmetrics] "
          "<trace.bin>\n"
          "       mumak-inspect --trace-info <trace.bin>\n"
          "       mumak-inspect --from-journal <file> [--json] [--follow]\n");
      return 0;
    } else {
      path = arg;
    }
  }
  if (detectors.has_value()) {
    const DetectorRegistry& registry = DetectorRegistry::Global();
    for (const std::string& name : *detectors) {
      auto pass = registry.Create(name, TraceAnalysisOptions{});
      if (pass == nullptr) {
        std::fprintf(stderr, "mumak-inspect: unknown detector '%s'\n",
                     name.c_str());
        return 2;
      }
      if (!pass->supports_mode(eadr)) {
        std::fprintf(stderr,
                     "mumak-inspect: detector '%s' does not support %s "
                     "mode\n",
                     name.c_str(), eadr ? "eADR" : "ADR");
        return 2;
      }
    }
  }
  if (!from_journal.empty()) {
    return InspectJournal(from_journal, follow, json,
                          metrics_format == "openmetrics");
  }
  if (follow) {
    std::fprintf(stderr,
                 "mumak-inspect: --follow requires --from-journal\n");
    return 2;
  }
  if (path.empty()) {
    std::fprintf(stderr, "mumak-inspect: a trace file is required\n");
    return 2;
  }
  if (trace_info) {
    return PrintTraceInfo(path);
  }

  LoadedTrace trace;
  if (!Load(path, &trace)) {
    return 2;
  }
  const TraceStream& stream = trace.stream;
  std::printf("%s: %" PRIu64 " events (format v%" PRIu32 "%s)\n",
              path.c_str(), FileEvents(trace), trace.version,
              stream.with_payloads() ? ", store payloads" : "");

  // Stream statistics, accumulated in a metrics registry so the summary
  // can be dumped as the same JSON the `mumak --metrics` flag produces.
  MetricsRegistry registry;
  EventCounters counters(&registry);
  std::map<EventKind, uint64_t> by_kind;
  uint64_t lines_touched = 0;
  {
    std::map<uint64_t, bool> lines;
    Histogram* size_by_kind[9] = {};
    Histogram* gap_by_kind[9] = {};
    for (size_t k = 0; k < 9; ++k) {
      const std::string name(EventKindName(static_cast<EventKind>(k)));
      size_by_kind[k] = registry.GetHistogram("pm.size." + name);
      gap_by_kind[k] = registry.GetHistogram("pm.seq_gap." + name);
    }
    uint64_t last_seq_by_kind[9];
    bool seen_kind[9] = {};
    uint64_t payload_bytes = 0;
    ForEachEvent(stream, [&](const TraceBlockView& view, size_t i) {
      const PmEvent ev = view.Event(i);
      const size_t k = static_cast<size_t>(ev.kind);
      ++by_kind[ev.kind];
      counters.Bump(ev.kind);
      size_by_kind[k]->Observe(ev.size);
      // Instruction distance between consecutive events of one kind:
      // flush/fence cadence at a glance (e.g. a fence every ~N
      // instructions).
      if (seen_kind[k]) {
        gap_by_kind[k]->Observe(ev.seq - last_seq_by_kind[k]);
      }
      seen_kind[k] = true;
      last_seq_by_kind[k] = ev.seq;
      if (IsStore(ev.kind) || IsFlush(ev.kind)) {
        lines[ev.offset / 64] = true;
      }
      if (view.HasPayload(i)) {
        payload_bytes += ev.size;
      }
    });
    lines_touched = lines.size();
    registry.GetGauge("pm.lines_touched")->Set(lines_touched);
    if (stream.with_payloads()) {
      registry.GetGauge("pm.payload_bytes")->Set(payload_bytes);
      std::printf("store payload bytes: %" PRIu64 "\n", payload_bytes);
    }
  }
  std::printf("\nevent mix:\n");
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-12s %10" PRIu64 "\n",
                std::string(EventKindName(kind)).c_str(), count);
  }
  const uint64_t stores = by_kind[EventKind::kStore] +
                          by_kind[EventKind::kNtStore];
  const uint64_t flushes = by_kind[EventKind::kClflush] +
                           by_kind[EventKind::kClflushOpt] +
                           by_kind[EventKind::kClwb];
  const uint64_t fences =
      by_kind[EventKind::kSfence] + by_kind[EventKind::kMfence];
  std::printf("\ncache lines touched: %" PRIu64 "\n", lines_touched);
  if (flushes > 0) {
    std::printf("stores per flush:    %.2f\n",
                static_cast<double>(stores) / static_cast<double>(flushes));
  }
  if (fences > 0) {
    std::printf("flushes per fence:   %.2f\n",
                static_cast<double>(flushes) / static_cast<double>(fences));
  }

  if (histograms) {
    std::printf("\n=== per-event-type histograms ===\n");
    for (const auto& [kind, count] : by_kind) {
      if (count == 0) {
        continue;  // the mix arithmetic above inserts zero entries
      }
      const std::string name(EventKindName(kind));
      std::printf("\n%s: %" PRIu64 " events\n", name.c_str(), count);
      std::printf("  access size (bytes):\n");
      PrintHistogram(*registry.GetHistogram("pm.size." + name));
      const Histogram* gap = registry.GetHistogram("pm.seq_gap." + name);
      if (gap->count() > 0) {
        std::printf("  instruction distance between consecutive %s:\n",
                    name.c_str());
        PrintHistogram(*gap);
      }
    }
  }

  int exit_code = 0;
  if (analyze) {
    TraceAnalysisOptions options;
    options.eadr_mode = eadr;
    options.report_dirty_overwrites = dirty_overwrites;
    options.detectors = detectors;
    options.jobs = analysis_jobs;
    options.metrics = &registry;
    TraceAnalyzer analyzer(std::move(options));
    TraceStats stats;
    // Re-intern the producer's site names locally so findings carry
    // human-readable locations (the footer's site table).
    std::map<uint32_t, FrameId> remap;
    for (const auto& [site, name] : trace.site_names) {
      remap.emplace(site, FrameRegistry::Global().Intern(name, "", 0));
    }
    ForEachEvent(stream, [&](const TraceBlockView& view, size_t i) {
      PmEvent ev = view.Event(i);
      auto it = remap.find(ev.site);
      if (it != remap.end()) {
        ev.site = it->second;
      }
      analyzer.OnEvent(ev);
    });
    const Report report = analyzer.Finish(&stats);
    std::printf("\n=== trace analysis (%s semantics) ===\n",
                eadr ? "eADR" : "ADR");
    std::printf("%s", report.Render().c_str());
    std::printf("(%" PRIu64 " events, %" PRIu64
                " lines tracked, %.3fs)\n",
                stats.events, stats.lines_tracked, stats.elapsed_s);
    exit_code = report.BugCount() == 0 ? 0 : 1;
  }

  // Metrics summary: the counter block of the registry, one line per
  // metric (histograms go to --histograms / the JSON dump).
  const MetricsSnapshot snapshot = registry.Snapshot();
  std::printf("\n=== metrics summary ===\n");
  for (const auto& [name, value] : snapshot.counters) {
    if (value > 0) {
      std::printf("  %-32s %12" PRIu64 "\n", name.c_str(), value);
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::printf("  %-32s %12" PRIu64 "\n", name.c_str(), value);
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    if (out) {
      if (metrics_format == "openmetrics") {
        out << snapshot.RenderOpenMetrics();
      } else {
        out << snapshot.RenderJson() << "\n";
      }
    }
    if (out) {
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "mumak-inspect: could not write %s\n",
                   metrics_path.c_str());
      return 2;
    }
  }
  return exit_code;
}
