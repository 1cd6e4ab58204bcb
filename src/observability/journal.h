// Campaign flight recorder: an append-only, crash-tolerant event journal
// recording the fault-injection campaign's lifecycle — run header, profile
// summary (trace fingerprint, failure-point count), phase transitions,
// per-failure-point dispatch/verdict events, trace-analysis findings,
// periodic metrics snapshots, and a terminal footer.
//
// On-disk format (`MJN1`): a 4-byte magic, then length-prefixed records:
//
//   u32 payload_len | u32 crc32(payload) | payload (one JSON object)
//
// Integers are little-endian. The payload is a flat JSON object with a
// "type" field; unknown types and unknown fields are ignored by readers,
// so the format is forward-extensible without a version bump. A version
// bump (MJN2) means the framing itself changed and old readers must
// refuse the file. The verdict cache file (src/core/verdict_cache.h) is
// MJN1 too, read through the same record reader (ReadJournalRecords).
//
// Durability model: records are enqueued by the hot paths and flushed to
// the file by a group-commit writer thread, so a SIGKILL loses at most the
// tail still in the page cache / queue — never previously written records.
// The reader tolerates a torn final record (stop and warn) and skips
// CRC-corrupt or unparseable records (warn and continue), so *any* prefix
// of a journal yields a valid partial view: this is what powers
// `mumak-inspect --from-journal` anytime reports and `mumak
// --resume-journal`.

#ifndef MUMAK_SRC_OBSERVABILITY_JOURNAL_H_
#define MUMAK_SRC_OBSERVABILITY_JOURNAL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/report.h"
#include "src/pmem/image_digest.h"

namespace mumak {

class JsonObject;
class MetricsRegistry;
struct JsonValue;

inline constexpr char kJournalMagic[4] = {'M', 'J', 'N', '1'};
// Records are small JSON objects; anything claiming to be larger than this
// is treated as a torn tail rather than trusted as a skip distance.
inline constexpr size_t kJournalMaxRecordBytes = 1 << 20;

// One verdict event: the complete outcome of one failure-point check.
// Carries everything needed to (a) skip the failure point on resume and
// (b) reconstruct its Finding byte-identically to a fresh run. Also the
// verdict cache's entry (src/core/verdict_cache.h).
struct JournalVerdict {
  uint64_t seq = 0;         // failure point's first-hit instruction counter
  std::string status;       // ok | unrecoverable | crashed | timeout
  std::string detail;
  std::string location;     // failure-point path (report location)
  std::string signal_name;  // sandbox evidence, empty when n/a
  bool timed_out = false;
  uint64_t wall_us = 0;
  std::string dedup_of;     // image-dedup provenance, empty for fresh runs
  bool from_cache = false;  // verdict came from the verdict cache
  uint32_t worker = 0;      // worker lane (0 = serial / pipeline thread)
};

// The one verdict codec, shared by journal records, fleet frames and the
// verdict cache's records. Appends `verdict` from "seq" on to `record`,
// after the caller's leading fields: "worker" when `with_worker` (the
// journal's; a fleet frame's lane is the connection it arrives on), the
// fields every verdict carries, the optional ones that are set, and
// "digest" (32 hex digits) when given: the image a cached verdict is for.
void WriteVerdictFields(const JournalVerdict& verdict, bool with_worker,
                        JsonObject* record,
                        const ImageDigest* digest = nullptr);
// Reads what WriteVerdictFields wrote (elided fields read as their
// defaults); `digest` receives the digest, nullopt when absent or bad.
JournalVerdict ReadVerdictFields(const JsonValue& record,
                                 std::optional<ImageDigest>* digest = nullptr);

// One framed record: u32 len | u32 crc32(payload) | payload.
std::string FrameJournalRecord(const std::string& payload);

struct JournalRecordScan {
  bool ok = false;       // false: unreadable / wrong magic / wrong version
  std::string error;     // set when !ok
  std::vector<std::string> warnings;  // torn tail, skipped records, ...
  uint64_t valid_bytes = 0;  // offset just past the last intact record
};
// The one MJN1 record reader (the durability model above): hands every
// intact record to `visit` in file order, parsed and as its raw payload.
// Never throws.
JournalRecordScan ReadJournalRecords(
    const std::string& path,
    const std::function<void(const JsonValue& record,
                             std::string_view payload)>& visit);

// Decoded journal prefix: everything ReplayJournal could recover before
// hitting the end of the file or a torn tail.
struct JournalReplay : JournalRecordScan {
  bool has_header = false;
  std::map<std::string, std::string> header;  // flat run-option map

  bool has_profile = false;
  uint64_t fingerprint = 0;  // order-sensitive trace fingerprint
  uint64_t failure_points = 0;
  uint64_t pm_events = 0;

  std::vector<JournalVerdict> verdicts;  // in append order
  std::vector<Finding> trace_findings;   // journaled analysis findings
  uint64_t dispatches = 0;
  std::vector<std::string> phases;  // "name:begin" / "name:end", in order
  uint64_t resume_generations = 0;  // count of resume markers seen
  uint64_t metrics_samples = 0;
  std::string last_metrics_json;  // most recent embedded snapshot, raw JSON
  uint64_t last_t_us = 0;         // timestamp of the newest record seen

  bool has_footer = false;
  bool interrupted = false;
  double footer_elapsed_s = 0;
  uint64_t footer_bugs = 0;
  uint64_t footer_warnings = 0;
  // Why the campaign stopped early, when it did ("budget-exhausted" for
  // --budget-checks / --budget-seconds stops); empty for complete runs and
  // for journals written before the field existed.
  std::string footer_reason;

  // Finding for one non-ok verdict; shared with the engine's resume path so
  // replayed findings are byte-identical to freshly produced ones.
  static Finding FindingFromVerdict(const JournalVerdict& verdict);

  // The injection report's one fold, shared by every injection driver,
  // resume and ReconstructReport: verdicts stable-sorted by seq, "ok"
  // skipped, the first finding per detail kept. The winner is the lowest
  // seq, whichever lane or generation recorded it. `deduplicated`
  // (optional) receives the number of dropped repeats.
  static Report FoldVerdicts(std::vector<const JournalVerdict*> verdicts,
                             uint64_t* deduplicated = nullptr);

  // Rebuilds the partial report the campaign would have produced from the
  // journaled events alone: the verdicts through FoldVerdicts, then the
  // trace-analysis findings.
  Report ReconstructReport() const;
};

// Decodes as much of the journal at `path` as is intact (see the
// durability model above). Never throws; check `ok` / `warnings`.
JournalReplay ReplayJournal(const std::string& path);

// Re-renders an embedded metrics snapshot (JournalReplay::
// last_metrics_json, the MetricsRegistry::RenderJson() form) as an
// OpenMetrics text exposition. Returns "" when the JSON does not parse.
std::string MetricsJsonToOpenMetrics(const std::string& snapshot_json);

// Append-only journal writer with a group-commit thread: hot paths only
// frame + enqueue (one lock, no I/O); the writer thread batches queued
// records into single write() calls and optionally samples an attached
// MetricsRegistry on a fixed interval. Thread-safe.
class CampaignJournal {
 public:
  // Creates (truncating) `path` and writes the magic.
  static std::unique_ptr<CampaignJournal> Create(const std::string& path,
                                                 std::string* error);
  // Reopens an existing journal for resume: truncates the torn tail at
  // `valid_bytes` (from ReplayJournal) and appends from there. The caller
  // should follow up with WriteResumeMarker().
  static std::unique_ptr<CampaignJournal> OpenForResume(
      const std::string& path, uint64_t valid_bytes, std::string* error);

  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Hot path: frame and enqueue one serialised JSON object (no newline).
  void Append(std::string json);

  // Typed emitters (serialise + Append).
  void WriteHeader(const std::map<std::string, std::string>& fields);
  void WriteProfile(uint64_t fingerprint, uint64_t failure_points,
                    uint64_t pm_events);
  void WritePhase(const std::string& name, bool begin);
  void WriteDispatch(uint64_t seq, uint32_t worker);
  void WriteVerdict(const JournalVerdict& verdict);
  void WriteFinding(const Finding& finding);
  void WriteResumeMarker(uint64_t resumed_verdicts);
  // `reason` (optional) records why the campaign stopped early, e.g.
  // "budget-exhausted"; empty is elided from the record.
  void WriteFooter(uint64_t bugs, uint64_t warnings, double elapsed_s,
                   bool interrupted, const std::string& reason = "");

  // Starts periodic metrics records ({counters, gauges, histograms} plus
  // RSS and journal queue depth) every `interval_ms`. Call at most once,
  // before the campaign's hot phases.
  void AttachMetrics(MetricsRegistry* metrics, uint64_t interval_ms = 500);

  // Emits one metrics record now (if a registry is attached) regardless of
  // the sampling interval — used for the final pre-footer sample.
  void SampleMetricsNow();

  // Blocks until everything enqueued so far has been written to the file.
  void Flush();
  // Flush + fsync + close the fd and stop the writer thread. Idempotent;
  // called by the destructor.
  void Close();

  const std::string& path() const { return path_; }
  // Microseconds since the journal was opened (record timestamps).
  uint64_t NowMicros() const;

 private:
  CampaignJournal(std::string path, int fd);
  void WriterLoop();
  std::string MetricsRecordJson();

  std::string path_;
  int fd_ = -1;
  std::chrono::steady_clock::time_point epoch_;

  MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_interval_ms_ = 500;

  std::mutex mutex_;
  std::condition_variable cv_;       // wakes the writer thread
  std::condition_variable drained_;  // wakes Flush()
  std::deque<std::string> queue_;    // framed records awaiting write
  bool stop_ = false;
  bool closed_ = false;
  uint64_t enqueued_ = 0;
  uint64_t written_ = 0;
  std::thread writer_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_OBSERVABILITY_JOURNAL_H_
