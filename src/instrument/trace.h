// PM access trace: in-memory collection, the in-memory v3 stream, the
// binary on-disk formats and the one loader that reads them back.
// Mumak's trace analysis phase (§4.2) consumes this; the file format lets
// the trace be analysed offline, matching the paper's pipeline where trace
// collection and analysis are separate steps.

#ifndef MUMAK_SRC_INSTRUMENT_TRACE_H_
#define MUMAK_SRC_INSTRUMENT_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/instrument/event_hub.h"
#include "src/instrument/pm_event.h"
#include "src/instrument/trace_v3.h"

namespace mumak {

// Event sink that appends every access to an in-memory trace.
class TraceCollector : public EventSink {
 public:
  TraceCollector() = default;

  void OnEvent(const PmEvent& event) override {
    events_.push_back(event);
    // The payload pointer aliases the writer's stack/heap buffer; it would
    // dangle once dispatch returns, so the stored copy drops it.
    events_.back().payload = nullptr;
  }

  const std::vector<PmEvent>& events() const { return events_; }
  std::vector<PmEvent> TakeEvents() { return std::move(events_); }
  void Clear() { events_.clear(); }
  size_t size() const { return events_.size(); }

  // Approximate bookkeeping footprint, used for the Table 2 resource
  // accounting.
  size_t FootprintBytes() const { return events_.capacity() * sizeof(PmEvent); }

 private:
  std::vector<PmEvent> events_;
};

struct LoadedTrace;

// A whole v3 trace in memory — the exact bytes of a v3 trace file plus the
// parsed block index; the paper's tmpfs-staged trace, held in DRAM.
// Profiling writes one, and analysis, replay and the fleet read it.
// Immutable once written: threads share it, each with its own decoder.
class TraceStream {
 public:
  // Validates `bytes` as one complete v3 trace and takes them: header,
  // trailer, index CRC, every block's frame, CRC and decode, ascending
  // seqs, the header's totals and, when `pool_size` is non-zero, every
  // store inside a pool of that size. All or nothing: on failure `out` is
  // untouched and `error` says why. No allocation exceeds what the bytes
  // can encode.
  static bool Parse(std::vector<uint8_t> bytes, uint64_t pool_size,
                    TraceStream* out, std::string* error);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t blocks() const { return index_.size(); }
  const TraceBlockIndexEntry& block(size_t b) const { return index_[b]; }
  // Events in the blocks before `b`; block_start(blocks()) == events().
  uint64_t block_start(size_t b) const { return starts_[b]; }
  uint64_t events() const { return starts_.back(); }
  // Header fields: events per full block, and whether stores carry the
  // bytes they wrote.
  uint32_t block_events() const;
  bool with_payloads() const;
  // Block `b`'s frame header (lengths, CRC, counts, first seq).
  TraceBlockHeader frame_header(size_t b) const;
  // The bytes plus the index, what holding the stream costs.
  size_t FootprintBytes() const;

  // Decodes block `b` into `decoder`. A stream is validated when made, so
  // a failure is corruption, never a block to skip: it throws
  // std::runtime_error naming the block.
  const TraceBlockView& DecodeBlock(size_t b, TraceBlockDecoder* decoder) const;

 private:
  friend class TraceStreamWriter;
  friend bool LoadTrace(std::istream& in, LoadedTrace* out,
                        std::string* error);

  // Parse, with the blocks decoded on `threads` threads, except that
  // `*bytes` is moved from only on success: the loader salvages a damaged
  // file from the bytes Parse refused.
  static bool Adopt(std::vector<uint8_t>* bytes, uint64_t pool_size,
                    uint32_t threads, TraceStream* out, std::string* error);

  std::vector<uint8_t> bytes_;
  std::vector<TraceBlockIndexEntry> index_;
  std::vector<uint64_t> starts_{0};
};

// The v3 writer, the only one: the hot path appends to the current block's
// columns, and one builder thread encodes full blocks and appends their
// frames to memory. Finish() joins that thread (the fleet forks right
// after profiling). A v3 file is the same bytes written out.
class TraceStreamWriter : public EventSink {
 public:
  // `with_payloads` keeps the bytes each store wrote (replay's input).
  explicit TraceStreamWriter(
      bool with_payloads, uint32_t block_events = kTraceV3DefaultBlockEvents);
  ~TraceStreamWriter() override;

  void OnEvent(const PmEvent& event) override;
  // Flushes the last block, joins the builder thread and appends the
  // footers. Call once.
  TraceStream Finish();

 private:
  struct State;  // builder queue + thread, in trace.cc

  bool with_payloads_ = false;
  uint64_t count_ = 0;
  uint64_t payload_bytes_ = 0;
  std::unique_ptr<State> state_;  // null once finished
};

// How a TraceFileSink lays the spool out on disk.
struct TraceSinkOptions {
  // 1/2 per `with_payloads` when 0 (flat rows), else 3.
  uint32_t format = 0;
  bool with_payloads = false;
  // v3 only: events per column block. Smaller blocks seek finer and
  // parallelise shorter traces; larger blocks compress better.
  uint32_t block_events = kTraceV3DefaultBlockEvents;
};

// Event sink that writes the trace to a file: v1/v2 rows as they are
// produced, or a v3 stream (TraceStreamWriter) written out at Close().
// Close() finalises the header; LoadTraceFile then reads the file back.
class TraceFileSink : public EventSink {
 public:
  // Format 0 writes flat rows: a version-2 file carrying the bytes each
  // store wrote when `with_payloads`, else a version-1 file. Format 3
  // writes columnar blocks; the hot path only appends to the current
  // block's columns, and encoding and compression happen on the writer's
  // builder thread.
  TraceFileSink(const std::string& path, const TraceSinkOptions& options);
  ~TraceFileSink() override;

  bool ok() const { return ok_; }
  uint32_t version() const { return version_; }
  uint64_t count() const { return count_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  void OnEvent(const PmEvent& event) override;
  // Flushes buffered records/blocks, writes the index and site-name
  // footers, and patches the header counts.
  void Close();

 private:
  std::string path_;
  void* out_ = nullptr;  // std::ofstream, kept out of the header
  uint32_t version_ = 0;
  uint64_t count_ = 0;
  uint64_t payload_bytes_ = 0;
  bool with_payloads_ = false;
  bool ok_ = false;
  bool closed_ = false;
  std::unordered_set<uint32_t> sites_;  // v1/v2 footer's name table
  std::unique_ptr<TraceStreamWriter> v3_;
};

// A trace file read back by LoadTrace: its events as one v3 stream,
// whatever the file's version, plus what the file says about itself and
// what salvage dropped.
struct LoadedTrace {
  // The file's format: 1 (flat rows), 2 (flat rows with store payloads)
  // or 3 (columnar blocks).
  uint32_t version = 0;
  // Every event that loaded, in file order: a v3 file's own bytes
  // (salvaged when damaged), v1/v2 rows re-encoded as v3 blocks.
  TraceStream stream;
  // The footer's site-name table (site id -> call site), so offline
  // consumers resolve locations without the producing process.
  std::unordered_map<uint32_t, std::string> site_names;
  // v3 salvage: the trailer or the index was unusable, so the blocks were
  // found by scanning frame headers from the front.
  bool index_rebuilt = false;
  // v3 salvage: the index entries of blocks dropped because their frame
  // was unreadable, disagreed with the index, or failed its CRC or decode.
  // A torn tail block is never indexed, so it is not here.
  std::vector<TraceBlockIndexEntry> dropped;
  // What salvage did, one line per step, for the caller to print.
  std::vector<std::string> warnings;
};

// Reads a trace of any version from `in` into `out`, always a stream that
// TraceStream::Parse's checks accept. A v3 file is its own bytes; a torn
// trailer or index, a torn tail, or a block that fails its CRC or decode
// is salvaged first (the intact frames are kept and re-indexed, the rest
// dropped with a warning). v1/v2 rows are re-encoded through
// TraceStreamWriter; a torn row stream is an error. No allocation is sized
// from a count or length the bytes do not back. On failure `error` says
// why (bad magic, unsupported version, ...) and `out` is unspecified.
bool LoadTrace(std::istream& in, LoadedTrace* out, std::string* error);
bool LoadTraceFile(const std::string& path, LoadedTrace* out,
                   std::string* error);

}  // namespace mumak

#endif  // MUMAK_SRC_INSTRUMENT_TRACE_H_
