#include "src/observability/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/instrument/trace_v3.h"
#include "src/observability/flat_json.h"
#include "src/observability/metrics.h"

namespace mumak {

// --- framing ---------------------------------------------------------------
// (PutU32/GetU32 and the JSON builder/parser live in flat_json.h, shared
// with MFL1 frames.)

std::string FrameJournalRecord(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

namespace {

FindingKind FindingKindFromName(const std::string& name) {
  static const std::map<std::string, FindingKind> kByName = {
      {"recovery-unrecoverable", FindingKind::kRecoveryUnrecoverable},
      {"recovery-crash", FindingKind::kRecoveryCrash},
      {"recovery-timeout", FindingKind::kRecoveryTimeout},
      {"unflushed-store", FindingKind::kUnflushedStore},
      {"transient-data", FindingKind::kTransientData},
      {"dirty-overwrite", FindingKind::kDirtyOverwrite},
      {"redundant-flush", FindingKind::kRedundantFlush},
      {"multi-store-flush", FindingKind::kMultiStoreFlush},
      {"redundant-fence", FindingKind::kRedundantFence},
      {"multi-flush-fence", FindingKind::kMultiFlushFence},
  };
  auto it = kByName.find(name);
  return it != kByName.end() ? it->second : FindingKind::kUnflushedStore;
}

// Resident set size in KiB, from /proc/self/statm (0 where unavailable).
uint64_t ResidentKb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t total_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) {
    return 0;
  }
  const long page = sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<uint64_t>(page > 0 ? page : 4096) /
         1024;
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

void WriteVerdictFields(const JournalVerdict& verdict, bool with_worker,
                        JsonObject* record, const ImageDigest* digest) {
  record->U64("seq", verdict.seq);
  if (with_worker) {
    record->U64("worker", verdict.worker);
  }
  record->Str("status", verdict.status)
      .Str("detail", verdict.detail)
      .Str("location", verdict.location);
  if (!verdict.signal_name.empty()) {
    record->Str("signal", verdict.signal_name);
  }
  if (verdict.timed_out) {
    record->Bool("timed_out", true);
  }
  if (verdict.wall_us != 0) {
    record->U64("wall_us", verdict.wall_us);
  }
  if (!verdict.dedup_of.empty()) {
    record->Str("dedup_of", verdict.dedup_of);
  }
  if (verdict.from_cache) {
    record->Bool("from_cache", true);
  }
  if (digest != nullptr) {
    record->Str("digest", digest->Hex());
  }
}

JournalVerdict ReadVerdictFields(const JsonValue& record,
                                 std::optional<ImageDigest>* digest) {
  JournalVerdict verdict;
  verdict.seq = record.U64("seq");
  verdict.worker = static_cast<uint32_t>(record.U64("worker"));
  verdict.status = record.Str("status");
  verdict.detail = record.Str("detail");
  verdict.location = record.Str("location");
  verdict.signal_name = record.Str("signal");
  verdict.timed_out = record.BoolOr("timed_out", false);
  verdict.wall_us = record.U64("wall_us");
  verdict.dedup_of = record.Str("dedup_of");
  verdict.from_cache = record.BoolOr("from_cache", false);
  if (digest != nullptr) {
    ImageDigest parsed;
    *digest = ImageDigest::FromHex(record.Str("digest"), &parsed)
                  ? std::optional<ImageDigest>(parsed)
                  : std::nullopt;
  }
  return verdict;
}

// --- writer ----------------------------------------------------------------

std::unique_ptr<CampaignJournal> CampaignJournal::Create(
    const std::string& path, std::string* error) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot create '" + path + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  if (!WriteAll(fd, kJournalMagic, sizeof(kJournalMagic))) {
    if (error != nullptr) {
      *error = "cannot write '" + path + "': " + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<CampaignJournal>(
      new CampaignJournal(path, fd));
}

std::unique_ptr<CampaignJournal> CampaignJournal::OpenForResume(
    const std::string& path, uint64_t valid_bytes, std::string* error) {
  if (valid_bytes < sizeof(kJournalMagic)) {
    if (error != nullptr) {
      *error = "journal '" + path + "' has no intact prefix to resume from";
    }
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  // Drop the torn tail (if any) so the file stays append-only from the
  // last intact record onward.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    if (error != nullptr) {
      *error = "cannot truncate '" + path + "': " + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<CampaignJournal>(
      new CampaignJournal(path, fd));
}

CampaignJournal::CampaignJournal(std::string path, int fd)
    : path_(std::move(path)),
      fd_(fd),
      epoch_(std::chrono::steady_clock::now()) {
  writer_ = std::thread([this] { WriterLoop(); });
}

CampaignJournal::~CampaignJournal() { Close(); }

uint64_t CampaignJournal::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void CampaignJournal::Append(std::string json) {
  std::string framed = FrameJournalRecord(json);
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) {
    return;
  }
  queue_.push_back(std::move(framed));
  ++enqueued_;
  cv_.notify_one();
}

void CampaignJournal::WriterLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  auto next_sample =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(metrics_interval_ms_);
  for (;;) {
    if (queue_.empty() && !stop_) {
      if (metrics_ != nullptr) {
        cv_.wait_until(lock, next_sample);
      } else {
        cv_.wait(lock);
      }
    }
    if (metrics_ != nullptr &&
        std::chrono::steady_clock::now() >= next_sample && !stop_) {
      // Sampling happens on the writer thread: build the record without
      // the lock (snapshotting walks every instrument), then enqueue.
      MetricsRegistry* metrics = metrics_;
      lock.unlock();
      std::string record = FrameJournalRecord(MetricsRecordJson());
      lock.lock();
      (void)metrics;
      if (!closed_) {
        queue_.push_back(std::move(record));
        ++enqueued_;
      }
      next_sample = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(metrics_interval_ms_);
    }
    if (queue_.empty()) {
      if (stop_) {
        return;
      }
      continue;
    }
    // Group commit: drain the whole queue into one write().
    std::string batch;
    uint64_t taken = 0;
    while (!queue_.empty()) {
      batch += queue_.front();
      queue_.pop_front();
      ++taken;
    }
    lock.unlock();
    WriteAll(fd_, batch.data(), batch.size());
    lock.lock();
    written_ += taken;
    drained_.notify_all();
  }
}

std::string CampaignJournal::MetricsRecordJson() {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    depth = queue_.size();
  }
  JsonObject record;
  record.Str("type", "metrics")
      .U64("t_us", NowMicros())
      .U64("rss_kb", ResidentKb())
      .U64("queue_depth", depth);
  if (metrics_ != nullptr) {
    record.Raw("snapshot", metrics_->RenderJson());
  }
  return record.Finish();
}

void CampaignJournal::AttachMetrics(MetricsRegistry* metrics,
                                    uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  metrics_interval_ms_ = interval_ms == 0 ? 1 : interval_ms;
  cv_.notify_one();
}

void CampaignJournal::SampleMetricsNow() {
  bool attached;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attached = metrics_ != nullptr;
  }
  if (attached) {
    Append(MetricsRecordJson());
  }
}

void CampaignJournal::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  const uint64_t target = enqueued_;
  drained_.wait(lock, [&] { return written_ >= target || closed_; });
}

void CampaignJournal::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ && stop_) {
      return;
    }
    stop_ = true;
    cv_.notify_one();
  }
  if (writer_.joinable()) {
    writer_.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!closed_) {
    closed_ = true;
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  drained_.notify_all();
}

// --- typed emitters --------------------------------------------------------

void CampaignJournal::WriteHeader(
    const std::map<std::string, std::string>& fields) {
  JsonObject record;
  record.Str("type", "header").U64("t_us", NowMicros());
  for (const auto& [key, value] : fields) {
    record.Str(key.c_str(), value);
  }
  Append(record.Finish());
}

void CampaignJournal::WriteProfile(uint64_t fingerprint,
                                   uint64_t failure_points,
                                   uint64_t pm_events) {
  Append(JsonObject()
             .Str("type", "profile")
             .U64("t_us", NowMicros())
             .Hex64("fingerprint", fingerprint)
             .U64("failure_points", failure_points)
             .U64("pm_events", pm_events)
             .Finish());
}

void CampaignJournal::WritePhase(const std::string& name, bool begin) {
  Append(JsonObject()
             .Str("type", "phase")
             .U64("t_us", NowMicros())
             .Str("name", name)
             .Str("edge", begin ? "begin" : "end")
             .Finish());
}

void CampaignJournal::WriteDispatch(uint64_t seq, uint32_t worker) {
  Append(JsonObject()
             .Str("type", "dispatch")
             .U64("t_us", NowMicros())
             .U64("seq", seq)
             .U64("worker", worker)
             .Finish());
}

void CampaignJournal::WriteVerdict(const JournalVerdict& verdict) {
  JsonObject record;
  record.Str("type", "verdict").U64("t_us", NowMicros());
  WriteVerdictFields(verdict, /*with_worker=*/true, &record);
  Append(record.Finish());
}

void CampaignJournal::WriteFinding(const Finding& finding) {
  JsonObject record;
  record.Str("type", "finding")
      .U64("t_us", NowMicros())
      .Str("kind", std::string(FindingKindName(finding.kind)))
      .Str("detail", finding.detail)
      .Str("location", finding.location)
      .U64("pm_offset", finding.pm_offset)
      .U64("seq", finding.seq);
  Append(record.Finish());
}

void CampaignJournal::WriteResumeMarker(uint64_t resumed_verdicts) {
  Append(JsonObject()
             .Str("type", "resume")
             .U64("t_us", NowMicros())
             .U64("resumed_verdicts", resumed_verdicts)
             .Finish());
}

void CampaignJournal::WriteFooter(uint64_t bugs, uint64_t warnings,
                                  double elapsed_s, bool interrupted,
                                  const std::string& reason) {
  JsonObject record;
  record.Str("type", "footer")
      .U64("t_us", NowMicros())
      .U64("bugs", bugs)
      .U64("warnings", warnings)
      .Double("elapsed_s", elapsed_s)
      .Bool("interrupted", interrupted);
  // "budget-exhausted" when a --budget-* limit stopped dispatch; readers
  // that predate the field ignore it (MJN1 forward compatibility).
  if (!reason.empty()) {
    record.Str("reason", reason);
  }
  Append(record.Finish());
}

// --- reader ----------------------------------------------------------------

Finding JournalReplay::FindingFromVerdict(const JournalVerdict& verdict) {
  Finding finding;
  finding.source = FindingSource::kFaultInjection;
  if (verdict.status == "unrecoverable") {
    finding.kind = FindingKind::kRecoveryUnrecoverable;
  } else if (verdict.status == "timeout") {
    finding.kind = FindingKind::kRecoveryTimeout;
  } else {
    finding.kind = FindingKind::kRecoveryCrash;
  }
  finding.detail = verdict.detail;
  finding.location = verdict.location;
  finding.seq = verdict.seq;
  finding.signal_name = verdict.signal_name;
  finding.timed_out = verdict.timed_out;
  finding.recovery_wall_us = verdict.wall_us;
  finding.dedup_of = verdict.dedup_of;
  return finding;
}

Report JournalReplay::FoldVerdicts(std::vector<const JournalVerdict*> verdicts,
                                   uint64_t* deduplicated) {
  std::stable_sort(verdicts.begin(), verdicts.end(),
                   [](const JournalVerdict* a, const JournalVerdict* b) {
                     return a->seq < b->seq;
                   });
  Report report;
  std::set<std::string> seen;
  uint64_t dropped = 0;
  for (const JournalVerdict* verdict : verdicts) {
    if (verdict->status == "ok") {
      continue;
    }
    if (!seen.insert(verdict->detail).second) {
      ++dropped;
      continue;
    }
    report.Add(FindingFromVerdict(*verdict));
  }
  if (deduplicated != nullptr) {
    *deduplicated = dropped;
  }
  return report;
}

Report JournalReplay::ReconstructReport() const {
  std::vector<const JournalVerdict*> all;
  all.reserve(verdicts.size());
  for (const JournalVerdict& verdict : verdicts) {
    all.push_back(&verdict);
  }
  Report report = FoldVerdicts(std::move(all));
  for (const Finding& finding : trace_findings) {
    report.Add(finding);
  }
  return report;
}

JournalRecordScan ReadJournalRecords(
    const std::string& path,
    const std::function<void(const JsonValue& record,
                             std::string_view payload)>& visit) {
  JournalRecordScan out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot read '" + path + "'";
    return out;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (data.size() < sizeof(kJournalMagic)) {
    out.error = "'" + path + "' is empty or truncated before the magic";
    return out;
  }
  if (std::memcmp(data.data(), "MJN", 3) == 0 && data[3] != '1') {
    out.error = "'" + path + "' uses an unsupported MJN version (" +
                data.substr(0, 4) + "); this build reads MJN1";
    return out;
  }
  if (std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    out.error = "'" + path + "' is not an MJN1 file";
    return out;
  }
  out.ok = true;
  size_t pos = sizeof(kJournalMagic);
  out.valid_bytes = pos;

  auto warn = [&out](std::string message) {
    out.warnings.push_back(std::move(message));
  };

  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      warn("torn record header at offset " + std::to_string(pos) +
           " (file was cut mid-write)");
      break;
    }
    const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data() + pos);
    const uint32_t length = GetU32(p);
    const uint32_t crc = GetU32(p + 4);
    if (length == 0 || length > kJournalMaxRecordBytes) {
      warn("implausible record length " + std::to_string(length) +
           " at offset " + std::to_string(pos) + "; treating as torn tail");
      break;
    }
    if (data.size() - pos - 8 < length) {
      warn("torn final record at offset " + std::to_string(pos) + " (" +
           std::to_string(length) + " bytes claimed, " +
           std::to_string(data.size() - pos - 8) + " present)");
      break;
    }
    const std::string_view payload(data.data() + pos + 8, length);
    if (Crc32(payload.data(), length) != crc) {
      warn("CRC mismatch at offset " + std::to_string(pos) +
           "; record skipped");
      pos += 8 + length;
      continue;
    }
    pos += 8 + length;
    out.valid_bytes = pos;

    JsonValue record;
    if (!JsonParser(std::string(payload)).Parse(&record) ||
        record.type != JsonValue::Type::kObject) {
      warn("unparseable record at offset " +
           std::to_string(pos - 8 - length) + "; record skipped");
      continue;
    }
    visit(record, payload);
  }
  return out;
}

JournalReplay ReplayJournal(const std::string& path) {
  JournalReplay out;
  static_cast<JournalRecordScan&>(out) = ReadJournalRecords(
      path, [&out](const JsonValue& record, std::string_view payload) {
        const std::string type = record.Str("type");
        const uint64_t t_us = record.U64("t_us");
        if (t_us > out.last_t_us) {
          out.last_t_us = t_us;
        }
        if (type == "header") {
          out.has_header = true;
          for (const auto& [key, value] : record.object) {
            if (key == "type" || key == "t_us") {
              continue;
            }
            if (value.type == JsonValue::Type::kString) {
              out.header[key] = value.string;
            } else if (value.type == JsonValue::Type::kNumber) {
              out.header[key] =
                  std::to_string(static_cast<uint64_t>(value.number));
            } else if (value.type == JsonValue::Type::kBool) {
              out.header[key] = value.boolean ? "true" : "false";
            }
          }
        } else if (type == "profile") {
          out.has_profile = true;
          out.fingerprint = record.Hex64("fingerprint");
          out.failure_points = record.U64("failure_points");
          out.pm_events = record.U64("pm_events");
        } else if (type == "phase") {
          out.phases.push_back(record.Str("name") + ":" + record.Str("edge"));
        } else if (type == "dispatch") {
          ++out.dispatches;
        } else if (type == "verdict") {
          out.verdicts.push_back(ReadVerdictFields(record));
        } else if (type == "finding") {
          Finding finding;
          finding.source = FindingSource::kTraceAnalysis;
          finding.kind = FindingKindFromName(record.Str("kind"));
          finding.detail = record.Str("detail");
          finding.location = record.Str("location");
          finding.pm_offset = record.U64("pm_offset");
          finding.seq = record.U64("seq");
          out.trace_findings.push_back(std::move(finding));
        } else if (type == "metrics") {
          ++out.metrics_samples;
          if (record.Find("snapshot") != nullptr) {
            // Keep the raw snapshot for live surfaces; re-extract it from the
            // payload rather than re-serialising the parsed tree.
            const size_t at = payload.find("\"snapshot\": ");
            if (at != std::string_view::npos) {
              // The snapshot is the final field: strip the record's closing
              // brace.
              out.last_metrics_json = std::string(
                  payload.substr(at + 12, payload.size() - at - 12 - 1));
            }
          }
        } else if (type == "resume") {
          ++out.resume_generations;
        } else if (type == "footer") {
          out.has_footer = true;
          out.interrupted = record.BoolOr("interrupted", false);
          out.footer_elapsed_s = record.Num("elapsed_s");
          out.footer_bugs = record.U64("bugs");
          out.footer_warnings = record.U64("warnings");
          out.footer_reason = record.Str("reason");
        }
        // Unknown types: ignored (forward compatibility within MJN1).
      });
  return out;
}

std::string MetricsJsonToOpenMetrics(const std::string& snapshot_json) {
  JsonValue root;
  if (!JsonParser(snapshot_json).Parse(&root) ||
      root.type != JsonValue::Type::kObject) {
    return std::string();
  }
  // Rebuild a MetricsSnapshot from the embedded RenderJson() form so the
  // exposition comes from the one renderer (no second OpenMetrics
  // serialiser to drift).
  MetricsSnapshot snapshot;
  if (const JsonValue* counters = root.Find("counters");
      counters != nullptr && counters->type == JsonValue::Type::kObject) {
    for (const auto& [name, value] : counters->object) {
      snapshot.counters[name] = static_cast<uint64_t>(value.number);
    }
  }
  if (const JsonValue* gauges = root.Find("gauges");
      gauges != nullptr && gauges->type == JsonValue::Type::kObject) {
    for (const auto& [name, value] : gauges->object) {
      snapshot.gauges[name] = static_cast<uint64_t>(value.number);
    }
  }
  if (const JsonValue* histograms = root.Find("histograms");
      histograms != nullptr &&
      histograms->type == JsonValue::Type::kObject) {
    for (const auto& [name, value] : histograms->object) {
      HistogramSnapshot histogram;
      histogram.buckets.assign(Histogram::kBuckets, 0);
      histogram.count = value.U64("count");
      histogram.sum = value.U64("sum");
      if (const JsonValue* buckets = value.Find("buckets");
          buckets != nullptr &&
          buckets->type == JsonValue::Type::kArray) {
        for (const JsonValue& bucket : buckets->array) {
          // The serialised "le" is the bucket's inclusive upper bound
          // (2^i - 1); bit_width maps it back to the index. The last
          // bucket's bound exceeds double's integer range, so anything
          // that large is pinned to the catch-all directly.
          const double le = bucket.Num("le");
          const size_t index =
              le >= 9.2e18 ? Histogram::kBuckets - 1
                           : Histogram::BucketFor(static_cast<uint64_t>(le));
          histogram.buckets[index] += bucket.U64("count");
        }
      }
      snapshot.histograms.emplace(name, std::move(histogram));
    }
  }
  return snapshot.RenderOpenMetrics();
}

}  // namespace mumak
