// Trace format v3 data-plane benchmark: columnar compressed blocks vs the
// flat v2 row stream. Measures
//
//   1. file size: v3 must be >= 2.5x smaller than v2 on the bench trace,
//   2. offline analysis: AnalyzeFile (load, then block-parallel analysis)
//      at --analysis-jobs 4 must be >= 2x over serial on a >= 4-core host;
//      the v2 row reads re-encode the rows as v3 blocks on load,
//   3. replay seek: a ReplayCursor that has passed its checkpoints stepping
//      back to 90% of the trace (checkpoint restore plus advance) vs a
//      cursor replaying from zero,
//   4. replay: one full ReplayCursor pass over the in-memory stream (the
//      profile's trace), with and without digest tracking, in seconds and
//      ns per event — block decoding included,
//   5. equality: the v3 and v2 campaigns must produce byte-identical
//      reports.
//
// Emits BENCH_trace_v3.json. The wall-clock gates are recorded but only
// enforced on hosts with >= 4 cores (the CI bench runner); the size and
// byte-identity gates are enforced everywhere.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/trace_analysis.h"
#include "src/instrument/trace.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

uint64_t Next(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

PmEvent Ev(EventKind kind, uint64_t offset, uint32_t size, uint32_t site,
           uint64_t seq) {
  PmEvent event;
  event.kind = kind;
  event.offset = offset;
  event.size = size;
  event.site = site;
  event.seq = seq;
  return event;
}

// The flush-heavy long-trace shape from bench_trace_analysis: small stores
// over a wide working set, a flush per store, a fence every few ops, plus
// the §4.2 bug patterns so every detector has live work.
std::vector<PmEvent> FlushHeavyTrace(uint64_t ops, uint64_t lines) {
  std::vector<PmEvent> events;
  events.reserve(ops * 9 / 2);
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  uint64_t seq = 0;
  for (uint64_t op = 0; op < ops; ++op) {
    const uint64_t line = Next(&rng) % lines;
    const uint64_t offset = line * 64 + (Next(&rng) & 0x38);
    const uint32_t site = static_cast<uint32_t>(Next(&rng) % 64);
    events.push_back(Ev(EventKind::kStore, offset, 8, site, ++seq));
    if ((op & 0x3f) == 1) {
      events.push_back(Ev(EventKind::kStore, offset, 8, site, ++seq));
    }
    if ((op & 0xff) != 3) {
      events.push_back(Ev(EventKind::kClwb, line * 64, 64, site + 64, ++seq));
      if ((op & 0x7f) == 5) {
        events.push_back(
            Ev(EventKind::kClwb, line * 64, 64, site + 128, ++seq));
      }
    }
    if ((op & 0x3) == 3) {
      events.push_back(Ev(EventKind::kSfence, 0, 0, site + 192, ++seq));
    }
  }
  events.push_back(Ev(EventKind::kSfence, 0, 0, 255, ++seq));
  return events;
}

// A replay-shaped trace stream: stores carry payloads (the replay-injection
// input), over a pool small enough that cursor work dominates.
TraceStream ReplayTrace(uint64_t ops, size_t pool_size) {
  TraceStreamWriter writer(/*with_payloads=*/true);
  uint64_t rng = 0x6a09e667f3bcc909ull;
  uint64_t seq = 0;
  for (uint64_t op = 0; op < ops; ++op) {
    const uint64_t offset = (Next(&rng) % (pool_size / 8)) * 8;
    PmEvent ev = Ev(EventKind::kStore, offset, 8, 1, ++seq);
    uint8_t bytes[8];
    for (size_t b = 0; b < 8; ++b) {
      bytes[b] = static_cast<uint8_t>((op + b) % 251);
    }
    ev.payload = bytes;
    writer.OnEvent(ev);
    if ((op & 0x7) == 7) {
      writer.OnEvent(Ev(EventKind::kClwb, offset / 64 * 64, 64, 2, ++seq));
      writer.OnEvent(Ev(EventKind::kSfence, 0, 0, 3, ++seq));
    }
  }
  return writer.Finish();
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

void SpoolFile(const std::vector<PmEvent>& events, const std::string& path,
               uint32_t format, uint32_t block_events) {
  TraceSinkOptions options;
  options.format = format;
  options.block_events = block_events;
  TraceFileSink sink(path, options);
  for (const PmEvent& event : events) {
    sink.OnEvent(event);
  }
  sink.Close();
}

struct AnalysisRun {
  double seconds = 0;
  uint64_t findings = 0;
  std::string render;
};

AnalysisRun TimedAnalysis(const std::string& path, uint32_t jobs, int reps) {
  AnalysisRun best;
  for (int rep = 0; rep < reps; ++rep) {
    TraceAnalysisOptions options;
    options.jobs = jobs;
    TraceAnalyzer analyzer(std::move(options));
    TraceStats stats;
    const auto start = std::chrono::steady_clock::now();
    const Report report = analyzer.AnalyzeFile(path, &stats);
    const double elapsed = Seconds(start);
    if (rep == 0 || elapsed < best.seconds) {
      best.seconds = elapsed;
    }
    best.findings = stats.findings;
    best.render = report.Render();
  }
  return best;
}

}  // namespace
}  // namespace mumak

int main() {
  using namespace mumak;

  const unsigned cores = std::thread::hardware_concurrency() != 0
                             ? std::thread::hardware_concurrency()
                             : static_cast<unsigned>(
                                   ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("=== trace v3 data plane: size, parallel analysis, replay seek "
              "===\n");
  std::printf("host cores: %u\n\n", cores);

  // -- 1. file size: v2 flat rows vs v3 columnar blocks ----------------------
  const std::vector<PmEvent> events = FlushHeavyTrace(600000, 1 << 19);
  const std::string v2_path = "BENCH_trace_v3.v2.tmp";
  const std::string v3_path = "BENCH_trace_v3.v3.tmp";
  const auto spool_v2_start = std::chrono::steady_clock::now();
  SpoolFile(events, v2_path, /*format=*/0, 0);  // flat row stream
  const double spool_v2_s = Seconds(spool_v2_start);
  const auto spool_v3_start = std::chrono::steady_clock::now();
  SpoolFile(events, v3_path, /*format=*/3, 64u << 10);
  const double spool_v3_s = Seconds(spool_v3_start);
  const uint64_t v2_bytes = FileBytes(v2_path);
  const uint64_t v3_bytes = FileBytes(v3_path);
  const double size_ratio =
      v3_bytes > 0 ? static_cast<double>(v2_bytes) /
                         static_cast<double>(v3_bytes)
                   : 0;
  std::printf("trace: %zu events\n", events.size());
  std::printf("v2 flat:     %10llu bytes (spooled in %.3fs)\n",
              static_cast<unsigned long long>(v2_bytes), spool_v2_s);
  std::printf("v3 columnar: %10llu bytes (spooled in %.3fs)\n",
              static_cast<unsigned long long>(v3_bytes), spool_v3_s);
  std::printf("size ratio: %.2fx smaller (acceptance: >= 2.5x)\n\n",
              size_ratio);

  // -- 2. offline analysis: serial vs block-parallel -------------------------
  constexpr int kReps = 3;
  const AnalysisRun serial = TimedAnalysis(v3_path, 1, kReps);
  const AnalysisRun jobs2 = TimedAnalysis(v3_path, 2, kReps);
  const AnalysisRun jobs4 = TimedAnalysis(v3_path, 4, kReps);
  const AnalysisRun v2_serial = TimedAnalysis(v2_path, 1, kReps);
  const double analysis_speedup =
      jobs4.seconds > 0 ? serial.seconds / jobs4.seconds : 0;
  std::printf("offline analysis of the v3 file:\n");
  std::printf("  serial      %8.4fs  %llu findings\n", serial.seconds,
              static_cast<unsigned long long>(serial.findings));
  std::printf("  jobs=2      %8.4fs\n", jobs2.seconds);
  std::printf("  jobs=4      %8.4fs  -> %.2fx (acceptance: >= 2x)\n",
              jobs4.seconds, analysis_speedup);
  std::printf("  v2 serial   %8.4fs (flat-file baseline)\n", v2_serial.seconds);
  const bool reports_identical = serial.render == jobs4.render &&
                                 serial.render == jobs2.render &&
                                 serial.render == v2_serial.render;
  std::printf("v3/v2, serial/parallel reports byte-identical: %s\n\n",
              reports_identical ? "yes" : "NO");

  // -- 3. replay seek: checkpoint restore vs from-zero synthesis -------------
  constexpr size_t kPoolSize = 1u << 20;
  const TraceStream replay_trace = ReplayTrace(400000, kPoolSize);
  uint64_t last_seq = 0;
  {
    TraceBlockDecoder decoder;
    const TraceBlockView& last =
        replay_trace.DecodeBlock(replay_trace.blocks() - 1, &decoder);
    last_seq = last.seqs[last.count - 1];
  }
  const uint64_t replay_target = last_seq * 9 / 10;
  // A cursor at the end of the trace has passed its (default four)
  // checkpoints, as a ranked order's cursor has after a late check; each
  // timed step back restores the latest one at or before the target.
  ReplayCursor stepping(replay_trace, kPoolSize, /*track_digest=*/true);
  double from_zero_s = 0;
  double resumed_s = 0;
  size_t skipped_events = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      const auto start = std::chrono::steady_clock::now();
      ReplayCursor cursor(replay_trace, kPoolSize, /*track_digest=*/true,
                          /*seek_checkpoints=*/0);
      cursor.AdvanceTo(replay_target);
      const double elapsed = Seconds(start);
      if (rep == 0 || elapsed < from_zero_s) {
        from_zero_s = elapsed;
      }
    }
    {
      stepping.AdvanceTo(last_seq);
      const uint64_t skipped_before = stepping.seek_skipped_events();
      const auto start = std::chrono::steady_clock::now();
      stepping.AdvanceTo(replay_target);
      const double elapsed = Seconds(start);
      skipped_events = stepping.seek_skipped_events() - skipped_before;
      if (rep == 0 || elapsed < resumed_s) {
        resumed_s = elapsed;
      }
    }
  }
  const double replay_seek_speedup =
      resumed_s > 0 ? from_zero_s / resumed_s : 0;
  std::printf("replay synthesis to seq %llu (90%% in, %llu-event trace):\n",
              static_cast<unsigned long long>(replay_target),
              static_cast<unsigned long long>(replay_trace.events()));
  std::printf("  from zero   %8.4fs\n", from_zero_s);
  std::printf("  step back   %8.4fs (%zu events skipped) -> %.1fx\n\n",
              resumed_s, skipped_events, replay_seek_speedup);

  // -- 4. full replay pass over the in-memory stream -------------------------
  // One cursor walks every event, decoding each block once: the cost a
  // seq-ordered replay campaign pays for synthesis, at a failure point
  // every 64 events (a digest read at each under tracking).
  double pass_s[2] = {0, 0};  // [plain, digest]
  for (const bool digest : {false, true}) {
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      ReplayCursor cursor(replay_trace, kPoolSize, digest);
      for (uint64_t seq = 64; seq < last_seq + 64; seq += 64) {
        cursor.AdvanceTo(seq);
        if (digest) {
          (void)cursor.Digest();
        }
      }
      const double elapsed = Seconds(start);
      if (rep == 0 || elapsed < pass_s[digest]) {
        pass_s[digest] = elapsed;
      }
    }
  }
  const double events_d = static_cast<double>(replay_trace.events());
  const double pass_ns[2] = {pass_s[0] * 1e9 / events_d,
                             pass_s[1] * 1e9 / events_d};
  std::printf("full replay pass over the %llu-byte stream (%.2f B/event):\n",
              static_cast<unsigned long long>(replay_trace.bytes().size()),
              static_cast<double>(replay_trace.bytes().size()) / events_d);
  std::printf("  no digest   %8.4fs  %6.1f ns/event\n", pass_s[0], pass_ns[0]);
  std::printf("  digest      %8.4fs  %6.1f ns/event\n\n", pass_s[1],
              pass_ns[1]);

  // -- verdict + JSON --------------------------------------------------------
  const bool wall_gates = cores >= 4;
  const bool size_ok = size_ratio >= 2.5;
  const bool analysis_ok = analysis_speedup >= 2.0;
  const bool seek_ok = replay_seek_speedup > 1.0;
  std::printf("acceptance: size %s, identity %s, parallel %s%s, seek %s%s\n",
              size_ok ? "PASS" : "FAIL", reports_identical ? "PASS" : "FAIL",
              analysis_ok ? "PASS" : "FAIL",
              wall_gates ? "" : " (recorded, <4 cores)",
              seek_ok ? "PASS" : "FAIL",
              wall_gates ? "" : " (recorded, <4 cores)");

  std::ofstream out("BENCH_trace_v3.json", std::ios::trunc);
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"events\": %zu,\n"
      "  \"cores\": %u,\n"
      "  \"file_bytes\": {\"v2\": %llu, \"v3\": %llu},\n"
      "  \"size_ratio\": %.2f,\n"
      "  \"spool_s\": {\"v2\": %.4f, \"v3\": %.4f},\n"
      "  \"offline_analysis_s\": {\"serial\": %.4f, \"jobs2\": %.4f, "
      "\"jobs4\": %.4f, \"v2_serial\": %.4f},\n"
      "  \"analysis_speedup_jobs4\": %.2f,\n"
      "  \"replay_seek\": {\"from_zero_s\": %.4f, \"resumed_s\": %.4f, "
      "\"skipped_events\": %zu, \"speedup\": %.1f},\n"
      "  \"replay_pass\": {\"events\": %llu, \"stream_bytes\": %llu, "
      "\"s\": %.4f, \"ns_per_event\": %.1f, \"digest_s\": %.4f, "
      "\"digest_ns_per_event\": %.1f},\n"
      "  \"reports_identical\": %s,\n"
      "  \"wall_gates_evaluated\": %s\n"
      "}\n",
      events.size(), cores, static_cast<unsigned long long>(v2_bytes),
      static_cast<unsigned long long>(v3_bytes), size_ratio, spool_v2_s,
      spool_v3_s, serial.seconds, jobs2.seconds, jobs4.seconds,
      v2_serial.seconds, analysis_speedup, from_zero_s, resumed_s,
      skipped_events, replay_seek_speedup,
      static_cast<unsigned long long>(replay_trace.events()),
      static_cast<unsigned long long>(replay_trace.bytes().size()), pass_s[0],
      pass_ns[0], pass_s[1], pass_ns[1], reports_identical ? "true" : "false",
      wall_gates ? "true" : "false");
  out << buffer;
  out.close();
  std::printf("BENCH_trace_v3.json written\n");

  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  const bool hard_gates = size_ok && reports_identical;
  const bool soft_gates = !wall_gates || (analysis_ok && seek_ok);
  return hard_gates && soft_gates ? 0 : 1;
}
