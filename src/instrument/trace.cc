#include "src/instrument/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <istream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/instrument/shadow_call_stack.h"

namespace mumak {
namespace {

constexpr std::array<char, 8> kMagic = {'M', 'U', 'M', 'A', 'K', 'T', 'R', '1'};
// Version 1: packed records only. Version 2: a 8-byte payload-byte total in
// the header (so the site-name footer stays seekable without scanning the
// variable-length records) and per-record store payloads. Version 3:
// columnar compressed blocks (trace_v3.h); its header additionally carries
// the block-event count and a flags word (bit 0: payloads present).
constexpr uint32_t kVersionLegacy = 1;
constexpr uint32_t kVersionPayload = 2;
constexpr uint32_t kVersionColumnar = kTraceVersionV3;
constexpr uint64_t kFooterMagic = 0x53455449531f1e1dull;  // site table
constexpr uint32_t kV3FlagPayloads = 1;
// magic(8) version(4) count(8) payload_bytes(8) block_events(4) flags(4).
constexpr uint64_t kV3HeaderBytes = 36;
// Longest site name a footer may carry.
constexpr uint32_t kMaxSiteNameBytes = 4096;

// Packed on-disk record: kind(1) flags(1) pad(2) size(4) site(4) pad(4)
// offset(8) seq(8) = 32 bytes. The flags byte occupies what was a pad byte
// in version 1, where it was always written as zero.
constexpr uint8_t kFlagHasPayload = 1;

struct PackedEvent {
  uint8_t kind;
  uint8_t flags;
  uint8_t pad[2];
  uint32_t size;
  uint32_t site;
  uint32_t pad2;
  uint64_t offset;
  uint64_t seq;
};
static_assert(sizeof(PackedEvent) == 32);

// Site ids with their names, in footer order.
using SiteTable = std::vector<std::pair<uint32_t, std::string>>;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

bool VersionSupported(uint32_t version, std::string* error) {
  if (version == kVersionLegacy || version == kVersionPayload ||
      version == kVersionColumnar) {
    return true;
  }
  SetError(error, "unsupported trace format version " +
                      std::to_string(version) + " (this tool reads versions " +
                      std::to_string(kVersionLegacy) + "-" +
                      std::to_string(kVersionColumnar) +
                      "; the file was written by a newer mumak)");
  return false;
}

PackedEvent Pack(const PmEvent& ev, bool with_payload) {
  PackedEvent packed{};
  packed.kind = static_cast<uint8_t>(ev.kind);
  packed.flags = with_payload ? kFlagHasPayload : 0;
  packed.size = ev.size;
  packed.site = ev.site;
  packed.offset = ev.offset;
  packed.seq = ev.seq;
  return packed;
}

PmEvent Unpack(const PackedEvent& packed) {
  PmEvent ev;
  ev.kind = static_cast<EventKind>(packed.kind);
  ev.size = packed.size;
  ev.site = packed.site;
  ev.offset = packed.offset;
  ev.seq = packed.seq;
  return ev;
}

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), bytes, bytes + sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(value), sizeof(*value)));
}

// Copies `size` bytes at offset `at` into `dst`; false when they are not
// all there.
bool ReadBytes(const std::vector<uint8_t>& bytes, uint64_t at, void* dst,
               size_t size) {
  if (at > bytes.size() || bytes.size() - at < size) {
    return false;
  }
  if (size != 0) {  // `dst` may be an empty vector's null data()
    std::memcpy(dst, bytes.data() + at, size);
  }
  return true;
}

// Appends the rest of `in` to `bytes`, in one allocation when the stream
// can tell its size.
void ReadRest(std::istream& in, std::vector<uint8_t>* bytes) {
  const std::streampos at = in.tellg();
  if (at != std::streampos(-1) && in.seekg(0, std::ios::end)) {
    const std::streampos end = in.tellg();
    in.seekg(at);
    if (end > at) {
      bytes->reserve(bytes->size() + static_cast<size_t>(end - at));
    }
  }
  in.clear();
  std::array<char, 1 << 16> chunk;
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    bytes->insert(bytes->end(), chunk.data(), chunk.data() + in.gcount());
  }
}

// Reads `size` bytes into `out`, growing it only as bytes arrive, so a
// corrupt length cannot size an allocation the stream does not back.
bool ReadExactly(std::istream& in, uint64_t size, std::vector<uint8_t>* out) {
  out->clear();
  while (out->size() < size) {
    const size_t at = out->size();
    const size_t step =
        static_cast<size_t>(std::min<uint64_t>(size - at, 1u << 16));
    out->resize(at + step);
    if (!in.read(reinterpret_cast<char*>(out->data() + at),
                 static_cast<std::streamsize>(step))) {
      return false;
    }
  }
  return true;
}

SiteTable DescribeSites(const std::unordered_set<uint32_t>& sites) {
  SiteTable table;
  table.reserve(sites.size());
  for (uint32_t site : sites) {
    table.emplace_back(site, FrameRegistry::Global().Describe(site));
  }
  return table;
}

// Site-name footer, shared by every version: kFooterMagic, a count, then
// (site id, name length, name bytes) triples.
void AppendSiteTable(std::vector<uint8_t>* out, const SiteTable& table) {
  AppendPod(out, kFooterMagic);
  AppendPod(out, static_cast<uint32_t>(table.size()));
  for (const auto& [site, name] : table) {
    AppendPod(out, site);
    AppendPod(out, static_cast<uint32_t>(name.size()));
    out->insert(out->end(), name.begin(), name.end());
  }
}

// Appends the entries of the site-name table at `at` to `table`, in file
// order, if one starts there (anything else is ignored: the magic check
// rejects it), until its count or the bytes run out.
void ParseSiteTable(const std::vector<uint8_t>& bytes, uint64_t at,
                    SiteTable* table) {
  uint64_t magic = 0;
  uint32_t n = 0;
  if (!ReadBytes(bytes, at, &magic, sizeof(magic)) || magic != kFooterMagic ||
      !ReadBytes(bytes, at + 8, &n, sizeof(n))) {
    return;
  }
  at += 12;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t site = 0;
    uint32_t length = 0;
    if (!ReadBytes(bytes, at, &site, sizeof(site)) ||
        !ReadBytes(bytes, at + 4, &length, sizeof(length)) ||
        length > kMaxSiteNameBytes || length > bytes.size() - (at + 8)) {
      return;
    }
    const auto* name = reinterpret_cast<const char*>(bytes.data() + at + 8);
    table->emplace_back(site, std::string(name, length));
    at += 8 + length;
  }
}

// Encodes one built block through the caller's scratch buffers, appends
// its frame and records the index entry.
void AppendV3Frame(std::vector<uint8_t>* out, const TraceBlockBuilder& builder,
                   std::vector<TraceBlockIndexEntry>* index,
                   std::vector<uint8_t>* columns,
                   std::vector<uint8_t>* encoded) {
  TraceBlockHeader header;
  builder.Encode(columns, encoded, &header);
  TraceBlockIndexEntry entry;
  entry.file_offset = out->size();
  entry.first_seq = header.first_seq;
  entry.events = header.events;
  entry.payload_bytes = header.payload_bytes;
  index->push_back(entry);
  AppendPod(out, header);
  out->insert(out->end(), encoded->begin(), encoded->end());
}

// Index section (magic, count, entries, CRC over the entry bytes), then
// the site table, then the 16-byte trailer that locates the index.
void AppendV3Footer(std::vector<uint8_t>* out,
                    const std::vector<TraceBlockIndexEntry>& index,
                    const SiteTable& sites) {
  const uint64_t index_offset = out->size();
  AppendPod(out, kTraceV3IndexMagic);
  AppendPod(out, static_cast<uint32_t>(index.size()));
  const size_t entry_bytes = index.size() * sizeof(TraceBlockIndexEntry);
  const auto* entries = reinterpret_cast<const uint8_t*>(index.data());
  out->insert(out->end(), entries, entries + entry_bytes);
  AppendPod(out, Crc32(index.data(), entry_bytes));
  AppendSiteTable(out, sites);
  AppendPod(out, index_offset);
  AppendPod(out, kTraceV3TrailerMagic);
}

// Finds the footer index of a v3 trace through its trailer and checks the
// index CRC. Returns where the site table starts (just past the index
// section), or 0 when the trailer or the index is unusable.
uint64_t LoadV3Index(const std::vector<uint8_t>& bytes,
                     std::vector<TraceBlockIndexEntry>* index,
                     uint64_t* index_offset) {
  const uint64_t total = bytes.size();
  uint64_t trailer[2] = {0, 0};  // index offset, magic
  uint64_t index_magic = 0;
  uint32_t n = 0;
  if (total < kV3HeaderBytes + sizeof(trailer) ||
      !ReadBytes(bytes, total - sizeof(trailer), trailer, sizeof(trailer)) ||
      trailer[1] != kTraceV3TrailerMagic || trailer[0] < kV3HeaderBytes ||
      trailer[0] > total - sizeof(trailer) - 12 ||
      !ReadBytes(bytes, trailer[0], &index_magic, sizeof(index_magic)) ||
      !ReadBytes(bytes, trailer[0] + 8, &n, sizeof(n)) ||
      index_magic != kTraceV3IndexMagic) {
    return 0;
  }
  const uint64_t entries_at = trailer[0] + 12;
  const uint64_t entry_bytes = uint64_t{n} * sizeof(TraceBlockIndexEntry);
  uint32_t crc = 0;
  if (entry_bytes + sizeof(crc) > total - sizeof(trailer) - entries_at) {
    return 0;
  }
  index->resize(n);
  if (!ReadBytes(bytes, entries_at, index->data(), entry_bytes) ||
      !ReadBytes(bytes, entries_at + entry_bytes, &crc, sizeof(crc)) ||
      crc != Crc32(index->data(), entry_bytes)) {
    index->clear();
    return 0;
  }
  *index_offset = trailer[0];
  return entries_at + entry_bytes + sizeof(crc);
}

}  // namespace

// -- TraceStream ---------------------------------------------------------------

uint32_t TraceStream::block_events() const {
  uint32_t block_events = 0;
  ReadBytes(bytes_, 28, &block_events, sizeof(block_events));
  return block_events;
}

bool TraceStream::with_payloads() const {
  uint32_t flags = 0;
  ReadBytes(bytes_, 32, &flags, sizeof(flags));
  return (flags & kV3FlagPayloads) != 0;
}

TraceBlockHeader TraceStream::frame_header(size_t b) const {
  TraceBlockHeader header;
  std::memcpy(&header, bytes_.data() + index_[b].file_offset, sizeof(header));
  return header;
}

size_t TraceStream::FootprintBytes() const {
  return bytes_.capacity() +
         index_.capacity() * sizeof(TraceBlockIndexEntry) +
         starts_.capacity() * sizeof(uint64_t);
}

const TraceBlockView& TraceStream::DecodeBlock(
    size_t b, TraceBlockDecoder* decoder) const {
  const TraceBlockHeader header = frame_header(b);
  const uint8_t* encoded =
      bytes_.data() + index_[b].file_offset + sizeof(header);
  std::string error;
  if (!decoder->Decode(header, encoded, &error)) {
    throw std::runtime_error("trace block " + std::to_string(b) +
                             " failed to decode: " + error);
  }
  return decoder->view();
}

bool TraceStream::Parse(std::vector<uint8_t> bytes, uint64_t pool_size,
                        TraceStream* out, std::string* error) {
  return Adopt(&bytes, pool_size, /*threads=*/1, out, error);
}

namespace {

// Decodes block `b` (framed at `entry`) of a checked v3 stream and returns
// why it is unfit, empty when fit: it must decode, its seqs ascend and,
// when `pool_size` is non-zero, its stores land inside the pool. `seqs`
// receives its first and last seq.
std::string CheckBlock(const std::vector<uint8_t>& bytes, size_t b,
                       const TraceBlockIndexEntry& entry, uint64_t pool_size,
                       TraceBlockDecoder* decoder,
                       std::pair<uint64_t, uint64_t>* seqs) {
  const std::string where = "block " + std::to_string(b);
  TraceBlockHeader header;
  std::memcpy(&header, bytes.data() + entry.file_offset, sizeof(header));
  std::string error;
  if (!decoder->Decode(header,
                       bytes.data() + entry.file_offset + sizeof(header),
                       &error)) {
    return where + ": " + error;
  }
  const TraceBlockView& view = decoder->view();
  for (size_t i = 0; i < view.count; ++i) {
    if (i > 0 && view.seqs[i] <= view.seqs[i - 1]) {
      return where + ": seqs do not ascend";
    }
    if (pool_size != 0 && view.HasPayload(i) &&
        (view.sizes[i] > pool_size ||
         view.offsets[i] > pool_size - view.sizes[i])) {
      return where + " event " + std::to_string(i) + " writes " +
             std::to_string(view.sizes[i]) + " bytes at offset " +
             std::to_string(view.offsets[i]) + ", outside the pool";
    }
  }
  *seqs = {view.seqs[0], view.seqs[view.count - 1]};
  return "";
}

}  // namespace

bool TraceStream::Adopt(std::vector<uint8_t>* bytes_in, uint64_t pool_size,
                        uint32_t threads, TraceStream* out,
                        std::string* error) {
  const std::vector<uint8_t>& bytes = *bytes_in;
  auto fail = [error](const std::string& message) {
    SetError(error, message);
    return false;
  };
  uint32_t version = 0;
  uint64_t count = 0;
  uint64_t payload_total = 0;
  uint32_t block_events = 0;
  uint32_t flags = 0;
  if (bytes.size() < kV3HeaderBytes ||
      std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return fail("not a v3 trace (too short or bad magic)");
  }
  ReadBytes(bytes, 8, &version, sizeof(version));
  ReadBytes(bytes, 12, &count, sizeof(count));
  ReadBytes(bytes, 20, &payload_total, sizeof(payload_total));
  ReadBytes(bytes, 28, &block_events, sizeof(block_events));
  ReadBytes(bytes, 32, &flags, sizeof(flags));
  if (version != kVersionColumnar) {
    return fail("trace format version " + std::to_string(version) +
                ", expected 3");
  }
  if ((flags & ~kV3FlagPayloads) != 0 || block_events == 0) {
    return fail("corrupt trace header (flags or block size)");
  }
  const bool with_payloads = (flags & kV3FlagPayloads) != 0;
  std::vector<TraceBlockIndexEntry> index;
  uint64_t index_offset = 0;
  if (LoadV3Index(bytes, &index, &index_offset) == 0) {
    return fail("no intact trailer and block index (torn or spliced stream)");
  }
  const size_t n = index.size();

  // Every frame: where the index says, agreeing with it, full except the
  // last, the frames back to back up to the index, the header's totals.
  std::vector<uint64_t> starts{0};
  starts.reserve(index.size() + 1);
  uint64_t offset = kV3HeaderBytes;
  uint64_t payload_seen = 0;
  for (size_t b = 0; b < n; ++b) {
    const TraceBlockIndexEntry& entry = index[b];
    const std::string where = "block " + std::to_string(b);
    TraceBlockHeader header;
    if (entry.file_offset != offset ||
        index_offset - offset < sizeof(header) ||
        !ReadBytes(bytes, offset, &header, sizeof(header)) ||
        header.encoded_len > index_offset - offset - sizeof(header)) {
      return fail(where + " is not framed where the index puts it");
    }
    if (header.first_seq != entry.first_seq ||
        header.events != entry.events ||
        header.payload_bytes != entry.payload_bytes || header.events == 0 ||
        header.events > block_events ||
        (b + 1 < n && header.events != block_events) ||
        (!with_payloads && header.payload_bytes != 0)) {
      return fail(where + "'s frame disagrees with the index or header");
    }
    payload_seen += header.payload_bytes;
    starts.push_back(starts.back() + header.events);
    offset += sizeof(header) + header.encoded_len;
  }
  if (offset != index_offset) {
    return fail("bytes between the last block and the block index");
  }
  if (starts.back() != count || payload_seen != payload_total) {
    return fail("stream holds " + std::to_string(starts.back()) +
                " events but its header counts " + std::to_string(count) +
                " (lost blocks)");
  }

  // Every block decodes on its own, so `threads` check them side by side;
  // seqs must then also ascend from one block to the next.
  std::vector<std::string> unfit(n);
  std::vector<std::pair<uint64_t, uint64_t>> seqs(n);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto check = [&] {
    TraceBlockDecoder decoder;
    for (size_t b = next++; b < n && !failed; b = next++) {
      unfit[b] = CheckBlock(bytes, b, index[b], pool_size, &decoder, &seqs[b]);
      if (!unfit[b].empty()) {
        failed = true;
      }
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < std::min<size_t>(threads, n); ++t) {
    helpers.emplace_back(check);
  }
  check();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  for (size_t b = 0; b < n; ++b) {
    if (!unfit[b].empty()) {
      return fail(unfit[b]);
    }
  }
  for (size_t b = 1; b < n; ++b) {
    if (seqs[b].first <= seqs[b - 1].second) {
      return fail("block " + std::to_string(b) + ": seqs do not ascend");
    }
  }
  out->bytes_ = std::move(*bytes_in);
  out->index_ = std::move(index);
  out->starts_ = std::move(starts);
  return true;
}

// -- TraceStreamWriter ---------------------------------------------------------

// The hot path appends to the current TraceBlockBuilder and hands full
// blocks to one builder thread over a bounded queue. The builder thread
// owns the byte buffer, the index and the site set while running — it
// encodes, compresses, CRCs and appends frames. Builders are recycled
// through a free list so steady state allocates nothing.
struct TraceStreamWriter::State {
  // One block in flight per queue slot plus the one being built. Four
  // queued blocks absorb encode latency spikes without letting an
  // unbounded backlog pin memory.
  static constexpr size_t kMaxBuilders = 5;

  uint32_t block_events = kTraceV3DefaultBlockEvents;
  std::unique_ptr<TraceBlockBuilder> building =
      std::make_unique<TraceBlockBuilder>();

  std::mutex mutex;
  std::condition_variable queue_ready;   // worker: a block awaits encoding
  std::condition_variable builder_free;  // producer: a builder came back
  std::deque<std::unique_ptr<TraceBlockBuilder>> queue;
  std::vector<std::unique_ptr<TraceBlockBuilder>> free_list;
  size_t builders_total = 1;
  bool done = false;

  std::thread worker;
  // Worker-owned until the thread joins.
  std::vector<uint8_t> bytes;
  std::vector<TraceBlockIndexEntry> index;
  std::unordered_set<uint32_t> sites;

  void Run() {
    // The encode scratch: serialised columns, then the compressed frame.
    std::vector<uint8_t> columns;
    std::vector<uint8_t> encoded;
    for (;;) {
      std::unique_ptr<TraceBlockBuilder> block;
      {
        std::unique_lock<std::mutex> lock(mutex);
        queue_ready.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) {
          break;
        }
        block = std::move(queue.front());
        queue.pop_front();
      }
      AppendV3Frame(&bytes, *block, &index, &columns, &encoded);
      sites.insert(block->sites().begin(), block->sites().end());
      block->Clear();
      {
        std::lock_guard<std::mutex> lock(mutex);
        free_list.push_back(std::move(block));
      }
      builder_free.notify_one();
    }
  }

  // Hands the current block to the worker and picks up an empty builder,
  // waiting only when kMaxBuilders blocks are already in flight.
  void FlushBuilding() {
    std::unique_lock<std::mutex> lock(mutex);
    queue.push_back(std::move(building));
    queue_ready.notify_one();
    if (free_list.empty() && builders_total >= kMaxBuilders) {
      builder_free.wait(lock, [&] { return !free_list.empty(); });
    }
    if (!free_list.empty()) {
      building = std::move(free_list.back());
      free_list.pop_back();
    } else {
      building = std::make_unique<TraceBlockBuilder>();
      ++builders_total;
    }
  }

  // Flushes the partial block and joins the worker.
  void Stop() {
    if (!building->empty()) {
      FlushBuilding();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    queue_ready.notify_one();
    worker.join();
  }
};

TraceStreamWriter::TraceStreamWriter(bool with_payloads,
                                     uint32_t block_events)
    : with_payloads_(with_payloads), state_(std::make_unique<State>()) {
  State& state = *state_;
  state.block_events =
      block_events != 0 ? block_events : kTraceV3DefaultBlockEvents;
  // Header: magic(8) version(4) count(8) payload_bytes(8) block_events(4)
  // flags(4); Finish() patches the two totals.
  state.bytes.reserve(64u << 10);
  state.bytes.insert(state.bytes.end(), kMagic.begin(), kMagic.end());
  AppendPod(&state.bytes, kVersionColumnar);
  AppendPod(&state.bytes, uint64_t{0});
  AppendPod(&state.bytes, uint64_t{0});
  AppendPod(&state.bytes, state.block_events);
  AppendPod(&state.bytes,
            static_cast<uint32_t>(with_payloads ? kV3FlagPayloads : 0));
  state.worker = std::thread([&state] { state.Run(); });
}

TraceStreamWriter::~TraceStreamWriter() {
  if (state_ != nullptr) {
    state_->Stop();
  }
}

void TraceStreamWriter::OnEvent(const PmEvent& event) {
  State& state = *state_;
  if (with_payloads_ && event.has_payload()) {
    state.building->Add(event);
    payload_bytes_ += event.size;
  } else {
    PmEvent copy = event;
    copy.payload = nullptr;
    state.building->Add(copy);
  }
  ++count_;
  if (state.building->count() >= state.block_events) {
    state.FlushBuilding();
  }
}

TraceStream TraceStreamWriter::Finish() {
  State& state = *state_;
  state.Stop();
  AppendV3Footer(&state.bytes, state.index, DescribeSites(state.sites));
  std::memcpy(state.bytes.data() + 12, &count_, sizeof(count_));
  std::memcpy(state.bytes.data() + 20, &payload_bytes_,
              sizeof(payload_bytes_));
  TraceStream stream;
  stream.bytes_ = std::move(state.bytes);
  stream.bytes_.shrink_to_fit();
  stream.index_ = std::move(state.index);
  stream.starts_.reserve(stream.index_.size() + 1);
  for (const TraceBlockIndexEntry& entry : stream.index_) {
    stream.starts_.push_back(stream.starts_.back() + entry.events);
  }
  state_.reset();
  return stream;
}

// -- TraceFileSink -------------------------------------------------------------

TraceFileSink::TraceFileSink(const std::string& path,
                             const TraceSinkOptions& options)
    : path_(path) {
  uint32_t format = options.format;
  if (format == 0) {
    format = options.with_payloads ? kVersionPayload : kVersionLegacy;
  }
  version_ = format;
  with_payloads_ = format == kVersionPayload ||
                   (format == kVersionColumnar && options.with_payloads);
  auto* out = new std::ofstream(path, std::ios::binary | std::ios::trunc);
  out_ = out;
  if (!*out) {
    return;
  }
  if (version_ == kVersionColumnar) {
    v3_ = std::make_unique<TraceStreamWriter>(with_payloads_,
                                              options.block_events);
  } else {
    out->write(kMagic.data(), kMagic.size());
    out->write(reinterpret_cast<const char*>(&version_), sizeof(version_));
    const uint64_t placeholder = 0;  // patched by Close()
    out->write(reinterpret_cast<const char*>(&placeholder),
               sizeof(placeholder));
    if (with_payloads_) {
      out->write(reinterpret_cast<const char*>(&placeholder),
                 sizeof(placeholder));  // payload-byte total, patched too
    }
  }
  ok_ = static_cast<bool>(*out);
}

TraceFileSink::~TraceFileSink() {
  Close();
  delete static_cast<std::ofstream*>(out_);
}

void TraceFileSink::OnEvent(const PmEvent& event) {
  const bool with_payload = with_payloads_ && event.has_payload();
  if (with_payload) {
    payload_bytes_ += event.size;
  }
  ++count_;
  if (v3_ != nullptr) {
    v3_->OnEvent(event);
    return;
  }
  sites_.insert(event.site);
  auto* out = static_cast<std::ofstream*>(out_);
  const PackedEvent packed = Pack(event, with_payload);
  out->write(reinterpret_cast<const char*>(&packed), sizeof(packed));
  if (with_payload) {
    out->write(reinterpret_cast<const char*>(event.payload), event.size);
  }
}

void TraceFileSink::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  auto* out = static_cast<std::ofstream*>(out_);
  if (v3_ != nullptr) {
    const TraceStream stream = v3_->Finish();
    out->write(reinterpret_cast<const char*>(stream.bytes().data()),
               static_cast<std::streamsize>(stream.bytes().size()));
    out->flush();
    ok_ = ok_ && static_cast<bool>(*out);
    out->close();
    return;
  }
  // Footer: the site-name table, so offline consumers can resolve call
  // sites without the producing process (whose code addresses are gone).
  std::vector<uint8_t> footer;
  AppendSiteTable(&footer, DescribeSites(sites_));
  out->write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  out->seekp(kMagic.size() + sizeof(uint32_t));
  out->write(reinterpret_cast<const char*>(&count_), sizeof(count_));
  if (with_payloads_) {
    out->write(reinterpret_cast<const char*>(&payload_bytes_),
               sizeof(payload_bytes_));
  }
  out->flush();
  ok_ = ok_ && static_cast<bool>(*out);
  out->close();
}

// -- LoadTrace -----------------------------------------------------------------

namespace {

// A v3 file whose trailer or index is unusable: walks the frame headers
// from the front, like the campaign journal reader. A frame that runs past
// the end (a torn tail) ends the scan, and so do unrecognised bytes and
// the index or site-table magic, whose names are kept.
std::vector<TraceBlockIndexEntry> ScanFrames(
    const std::vector<uint8_t>& bytes, SiteTable* names,
    std::vector<std::string>* warnings) {
  std::vector<TraceBlockIndexEntry> index;
  uint64_t offset = kV3HeaderBytes;
  TraceBlockHeader header;
  while (ReadBytes(bytes, offset, &header, sizeof(header))) {
    if (header.magic != kTraceV3BlockMagic) {
      uint64_t magic = 0;
      std::memcpy(&magic, &header, sizeof(magic));
      if (magic == kFooterMagic) {
        ParseSiteTable(bytes, offset, names);
      } else if (magic == kTraceV3IndexMagic) {
        // The index section itself was fine but the trailer was torn; the
        // site table follows the entries and their CRC.
        uint32_t n = 0;
        std::memcpy(&n, reinterpret_cast<const uint8_t*>(&header) + 8,
                    sizeof(n));
        const uint64_t entries = uint64_t{n} * sizeof(TraceBlockIndexEntry);
        ParseSiteTable(bytes, offset + 12 + entries + sizeof(uint32_t), names);
      } else {
        warnings->push_back("unrecognised bytes at trace offset " +
                            std::to_string(offset) + "; stopping scan");
      }
      break;
    }
    if (header.encoded_len > kTraceV3MaxEncodedBytes ||
        header.encoded_len > bytes.size() - offset - sizeof(header)) {
      warnings->push_back("torn trace block at offset " +
                          std::to_string(offset) + " dropped");
      break;
    }
    index.push_back({offset, header.first_seq, header.events,
                     header.payload_bytes});
    offset += sizeof(header) + header.encoded_len;
  }
  return index;
}

// The intact frames of a damaged v3 file, re-indexed. A torn trailer or
// index is rebuilt by a frame scan; a block whose frame is unreadable,
// disagrees with its index entry (or overlaps the frame before it), or
// fails its CRC or decode is dropped.
// Returns the complete v3 bytes of what survived: the header with its
// totals patched, the kept frames, a new index, the site table and a
// trailer.
std::vector<uint8_t> Salvage(const std::vector<uint8_t>& bytes,
                             LoadedTrace* out) {
  SiteTable names;
  std::vector<TraceBlockIndexEntry> index;
  uint64_t index_offset = 0;
  const uint64_t sites_at = LoadV3Index(bytes, &index, &index_offset);
  if (sites_at != 0) {
    ParseSiteTable(bytes, sites_at, &names);
  } else {
    out->index_rebuilt = true;
    out->warnings.push_back("trace index unreadable; rebuilding by frame scan");
    index = ScanFrames(bytes, &names, &out->warnings);
  }

  std::vector<uint8_t> kept(bytes.begin(), bytes.begin() + kV3HeaderBytes);
  std::vector<TraceBlockIndexEntry> kept_index;
  TraceBlockDecoder decoder;
  uint64_t events = 0;
  uint64_t payload_bytes = 0;
  uint64_t frames_end = kV3HeaderBytes;  // of the last frame kept
  for (size_t b = 0; b < index.size(); ++b) {
    const TraceBlockIndexEntry& entry = index[b];
    const std::string block = "trace block " + std::to_string(b);
    TraceBlockHeader header;
    std::string why;
    if (!ReadBytes(bytes, entry.file_offset, &header, sizeof(header)) ||
        header.magic != kTraceV3BlockMagic ||
        header.encoded_len >
            bytes.size() - entry.file_offset - sizeof(header)) {
      out->warnings.push_back(block + " unreadable, skipped");
    } else if (entry.file_offset < frames_end ||
               header.first_seq != entry.first_seq ||
               header.events != entry.events ||
               header.payload_bytes != entry.payload_bytes) {
      out->warnings.push_back(block +
                              " skipped (frame disagrees with the index)");
    } else if (!decoder.Decode(header,
                               bytes.data() + entry.file_offset +
                                   sizeof(header),
                               &why)) {
      out->warnings.push_back(block + " skipped (" + why + ")");
    } else {
      const auto frame = bytes.begin() + static_cast<ptrdiff_t>(
                                             entry.file_offset);
      kept_index.push_back(entry);
      kept_index.back().file_offset = kept.size();
      kept.insert(kept.end(), frame,
                  frame + static_cast<ptrdiff_t>(sizeof(header) +
                                                 header.encoded_len));
      events += header.events;
      payload_bytes += header.payload_bytes;
      frames_end = entry.file_offset + sizeof(header) + header.encoded_len;
      continue;
    }
    out->dropped.push_back(entry);
  }
  AppendV3Footer(&kept, kept_index, names);
  std::memcpy(kept.data() + 12, &events, sizeof(events));
  std::memcpy(kept.data() + 20, &payload_bytes, sizeof(payload_bytes));
  return kept;
}

// v1/v2: a row count (v2: then a payload-byte total), the packed rows,
// then the site table. The rows are re-encoded as v3 blocks through the
// one writer into `stream`, which the caller checks like any v3 bytes.
bool LoadRows(std::istream& in, uint32_t version,
              std::vector<uint8_t>* stream, LoadedTrace* out,
              std::string* error) {
  uint64_t count = 0;
  uint64_t payload_total = 0;  // the writer recounts it
  if (!ReadPod(in, &count) ||
      (version == kVersionPayload && !ReadPod(in, &payload_total))) {
    SetError(error, "truncated trace header");
    return false;
  }
  // Nothing is reserved from `count`: a corrupt header must not size an
  // allocation; the stream grows with the rows actually read.
  TraceStreamWriter writer(version == kVersionPayload);
  std::vector<uint8_t> payload;
  for (uint64_t i = 0; i < count; ++i) {
    PackedEvent packed{};
    if (!ReadPod(in, &packed)) {
      SetError(error, "truncated trace records");
      return false;
    }
    PmEvent event = Unpack(packed);
    if ((packed.flags & kFlagHasPayload) != 0) {
      if (!ReadExactly(in, packed.size, &payload)) {
        SetError(error, "truncated store payload");
        return false;
      }
      event.payload = payload.data();
    }
    writer.OnEvent(event);
  }
  *stream = writer.Finish().bytes();
  std::vector<uint8_t> footer;
  ReadRest(in, &footer);
  SiteTable sites;
  ParseSiteTable(footer, 0, &sites);
  for (auto& [site, name] : sites) {
    out->site_names.emplace(site, std::move(name));
  }
  return true;
}

}  // namespace

bool LoadTrace(std::istream& in, LoadedTrace* out, std::string* error) {
  std::array<char, 8> magic{};
  if (!in.read(magic.data(), magic.size()) || magic != kMagic) {
    SetError(error, "not a mumak trace (bad magic)");
    return false;
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) {
    SetError(error, "truncated trace header");
    return false;
  }
  if (!VersionSupported(version, error)) {
    return false;
  }
  out->version = version;
  // A loaded file is checked on every core: the blocks are independent.
  const uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<uint8_t> bytes;
  if (version != kVersionColumnar) {
    return LoadRows(in, version, &bytes, out, error) &&
           TraceStream::Adopt(&bytes, 0, threads, &out->stream, error);
  }
  bytes.assign(kMagic.begin(), kMagic.end());
  AppendPod(&bytes, version);
  ReadRest(in, &bytes);
  if (bytes.size() < kV3HeaderBytes) {
    SetError(error, "truncated trace header");
    return false;
  }
  if (!TraceStream::Adopt(&bytes, 0, threads, &out->stream, nullptr)) {
    bytes = Salvage(bytes, out);
    if (!TraceStream::Adopt(&bytes, 0, threads, &out->stream, error)) {
      return false;
    }
  }
  // A parsed stream's trailer is intact: the site table follows its index.
  const std::vector<uint8_t>& stream = out->stream.bytes();
  uint64_t index_offset = 0;
  ReadBytes(stream, stream.size() - 16, &index_offset, sizeof(index_offset));
  SiteTable sites;
  ParseSiteTable(stream,
                 index_offset + 12 +
                     out->stream.blocks() * sizeof(TraceBlockIndexEntry) +
                     sizeof(uint32_t),
                 &sites);
  for (auto& [site, name] : sites) {
    out->site_names.emplace(site, std::move(name));
  }
  return true;
}

bool LoadTraceFile(const std::string& path, LoadedTrace* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "cannot open '" + path + "'");
    return false;
  }
  return LoadTrace(in, out, error);
}

}  // namespace mumak
