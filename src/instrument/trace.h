// PM access trace: in-memory collection, the in-memory v3 stream and the
// binary on-disk formats.
// Mumak's trace analysis phase (§4.2) consumes this; the file format lets
// the trace be analysed offline, matching the paper's pipeline where trace
// collection and analysis are separate steps.

#ifndef MUMAK_SRC_INSTRUMENT_TRACE_H_
#define MUMAK_SRC_INSTRUMENT_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/instrument/event_hub.h"
#include "src/instrument/pm_event.h"
#include "src/instrument/trace_v3.h"

namespace mumak {

// Side table of store payloads, parallel to an event vector: entry i holds
// the bytes written by event i (stores, NT-stores, RMWs), or nothing for
// events without a payload. TraceIo and TraceFileReader hand a trace's
// payloads back through one. Payload bytes live in one contiguous arena,
// not one allocation per store.
class PayloadStore {
 public:
  static constexpr uint64_t kNone = ~0ull;

  // Records `size` bytes for the event at `event_index`. Indices must be
  // recorded in increasing order.
  void Record(size_t event_index, const uint8_t* data, size_t size);

  bool Has(size_t event_index) const {
    return event_index < offsets_.size() && offsets_[event_index] != kNone;
  }

  // The recorded bytes for an event; empty span when none were recorded,
  // or when `size` reaches past the arena (it never slices out of bounds).
  std::span<const uint8_t> For(size_t event_index, uint32_t size) const {
    if (!Has(event_index)) {
      return {};
    }
    const uint64_t offset = offsets_[event_index];
    if (offset > bytes_.size() || size > bytes_.size() - offset) {
      return {};
    }
    return {bytes_.data() + offset, size};
  }

  size_t payload_bytes() const { return bytes_.size(); }
  void Clear() {
    bytes_.clear();
    offsets_.clear();
  }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> offsets_;  // per event index; kNone when absent
};

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
  // The bytes plus the index, what holding the stream costs.
  size_t FootprintBytes() const;

  // Decodes block `b` into `decoder`. A stream is validated when made, so
  // a failure is corruption, never a block to skip: it throws
  // std::runtime_error naming the block.
  const TraceBlockView& DecodeBlock(size_t b, TraceBlockDecoder* decoder) const;

 private:
  friend class TraceStreamWriter;

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

// Binary trace serialisation. Versions 1/2 are flat row streams: 8-byte
// magic, 4-byte version, 8-byte count, then packed 32-byte records
// (version 2 appends the store payload bytes after each record that
// carries them). Version 3 is the columnar block format described in
// trace_v3.h. Readers accept all three and reject unknown future versions
// with a diagnostic instead of misparsing the records.
class TraceIo {
 public:
  // Writes version 1 when `payloads` is null (readable by pre-payload
  // tools) and version 2 otherwise.
  static bool Write(const std::vector<PmEvent>& events, std::ostream& out,
                    const PayloadStore* payloads = nullptr);
  // Writes a version-3 columnar trace through TraceStreamWriter. `payloads`
  // null means a payload-less v3 file (the column layout is the same; the
  // arenas are empty).
  static bool WriteV3(const std::vector<PmEvent>& events, std::ostream& out,
                      const PayloadStore* payloads = nullptr,
                      uint32_t block_events = kTraceV3DefaultBlockEvents);
  // Reads any supported version; `payloads` (optional) receives the store
  // payloads, indexed like `events`. Strict: a trace holding fewer events
  // than its header counts (a lost block, a torn tail) is an error, and no
  // allocation exceeds what the remaining bytes can encode. On failure,
  // `error` (optional) explains why.
  static bool Read(std::istream& in, std::vector<PmEvent>* events,
                   PayloadStore* payloads = nullptr,
                   std::string* error = nullptr);

  static bool WriteFile(const std::vector<PmEvent>& events,
                        const std::string& path,
                        const PayloadStore* payloads = nullptr);
  static bool ReadFile(const std::string& path, std::vector<PmEvent>* events,
                       PayloadStore* payloads = nullptr,
                       std::string* error = nullptr);
};

// How a TraceFileSink lays the spool out on disk.
struct TraceSinkOptions {
  // 1/2 per `with_payloads` when 0 (the legacy constructor), else 3.
  uint32_t format = 0;
  bool with_payloads = false;
  // v3 only: events per column block. Smaller blocks seek finer and
  // parallelise shorter traces; larger blocks compress better.
  uint32_t block_events = kTraceV3DefaultBlockEvents;
};

// Event sink that writes the trace to a file: v1/v2 rows as they are
// produced, or a v3 stream (TraceStreamWriter) written out at Close().
// Close() finalises the header; the file is then readable with
// TraceFileReader or TraceIo::ReadFile.
class TraceFileSink : public EventSink {
 public:
  // With `with_payloads` the spool is a version-2 file carrying the bytes
  // each store wrote (the replay-injection input); without, a version-1
  // file identical to the pre-payload format.
  explicit TraceFileSink(const std::string& path, bool with_payloads = false);
  // Full control over the layout; format 3 writes columnar blocks. For v3
  // the hot path only appends to the current block's columns — encoding
  // and compression happen on the writer's builder thread.
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

// Streaming reader over an archived trace file: bounded-memory iteration.
// Reads all supported versions transparently through NextChunk; v3 files
// additionally support block-granular access (NextBlock/NextRawBlock) and
// O(1) seek via the footer index. A v3 file with a torn trailer or index
// degrades to a frame-header scan that rebuilds the index; blocks whose
// CRC fails are skipped with a warning, like the campaign journal reader.
// (Replay never skips: it reads a validated TraceStream.)
class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path);
  ~TraceFileReader();

  bool ok() const { return ok_; }
  // Why ok() is false: garbage header, unsupported future version, ...
  const std::string& error() const { return error_; }
  uint64_t total() const { return total_; }
  // Trace format version of the file (1 = payload-less, 2 = payloads,
  // 3 = columnar blocks).
  uint32_t version() const { return version_; }
  bool has_payloads() const {
    return version_ == 2 || (version_ == 3 && (flags_ & 1) != 0);
  }
  // Total payload bytes consumed so far.
  uint64_t payload_bytes_read() const { return payload_bytes_read_; }
  // Fills `out` with up to `max` events; returns false when exhausted.
  // When `payloads` is non-null it receives the chunk's store payloads,
  // indexed by position within `out` (cleared on every call).
  bool NextChunk(std::vector<PmEvent>* out, size_t max,
                 PayloadStore* payloads = nullptr);

  // -- v3 block-granular access ---------------------------------------------
  // The block index (empty for v1/v2). Entry order is file order, which is
  // also ascending first_seq.
  const std::vector<TraceBlockIndexEntry>& block_index() const {
    return index_;
  }
  // Events per block the file was written with (0 for v1/v2).
  uint32_t block_events() const { return block_events_; }
  // True when the footer index was unreadable and got rebuilt by scanning
  // frame headers (torn trailer, truncated file).
  bool index_rebuilt() const { return index_rebuilt_; }
  // Blocks skipped so far because their CRC or decode failed.
  uint64_t corrupt_blocks() const { return corrupt_blocks_; }
  // Decodes the next block and returns a borrowed columnar view, valid
  // until the next NextBlock/NextChunk call. nullptr at end of trace (or
  // on v1/v2 files). Corrupt blocks are skipped with a warning.
  const TraceBlockView* NextBlock();
  // Reads the next block's frame without decoding it: header plus the
  // encoded bytes. Lets a parallel consumer decode on worker threads while
  // this thread only does file IO. False at end of trace or on v1/v2.
  bool NextRawBlock(TraceBlockHeader* header, std::vector<uint8_t>* encoded);
  // Repositions the reader so the next event returned is the first with
  // seq >= target, using the block index to land on the containing block
  // directly. Returns false on v1/v2 files (no index; callers scan).
  bool SeekToSeq(uint64_t target);

  // Site-name table from the file footer (site id -> human-readable call
  // site), letting offline consumers resolve locations without the
  // producing process. Empty for traces without a footer.
  const std::unordered_map<uint32_t, std::string>& site_names() const {
    return site_names_;
  }

 private:
  bool OpenV3(uint64_t header_payload_bytes);
  void RebuildIndexByScan(uint64_t file_size);
  void ReadSiteTableAt(uint64_t offset);
  // Decodes block `block_cursor_` into decoder_, skipping corrupt blocks
  // (advancing the cursor past them). False when no block remains.
  bool DecodeCurrentBlock();

  void* in_ = nullptr;  // std::ifstream
  uint64_t total_ = 0;
  uint64_t read_ = 0;
  uint32_t version_ = 0;
  uint32_t flags_ = 0;
  uint32_t block_events_ = 0;
  uint64_t payload_bytes_read_ = 0;
  bool ok_ = false;
  std::string error_;
  std::unordered_map<uint32_t, std::string> site_names_;

  // v3 state: index + streaming decode position.
  std::vector<TraceBlockIndexEntry> index_;
  size_t block_cursor_ = 0;    // next block to decode
  size_t event_cursor_ = 0;    // next event within the decoded block
  bool block_decoded_ = false;
  bool index_rebuilt_ = false;
  uint64_t corrupt_blocks_ = 0;
  std::unique_ptr<TraceBlockDecoder> decoder_;
  std::vector<uint8_t> frame_buffer_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_INSTRUMENT_TRACE_H_
