#include "src/instrument/trace.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

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

// Site-name footer, shared by every version: kFooterMagic, a count, then
// (site id, name length, name bytes) triples.
void AppendSiteTable(std::vector<uint8_t>* out,
                     const std::unordered_set<uint32_t>& sites) {
  AppendPod(out, kFooterMagic);
  AppendPod(out, static_cast<uint32_t>(sites.size()));
  for (uint32_t site : sites) {
    const std::string name = FrameRegistry::Global().Describe(site);
    AppendPod(out, site);
    AppendPod(out, static_cast<uint32_t>(name.size()));
    out->insert(out->end(), name.begin(), name.end());
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
                    const std::unordered_set<uint32_t>& sites) {
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

// Reads `size` bytes at offset `at` into `dst`; false when they are not all
// there.
using ReadAt = std::function<bool(uint64_t at, void* dst, size_t size)>;

// Finds the footer index of a `total`-byte v3 trace through its trailer
// and checks the index CRC. Returns where the site table starts (just past
// the index section), or 0 when the trailer or the index is unusable.
uint64_t LoadV3Index(const ReadAt& read, uint64_t total,
                     std::vector<TraceBlockIndexEntry>* index,
                     uint64_t* index_offset) {
  uint64_t trailer[2] = {0, 0};  // index offset, magic
  uint64_t index_magic = 0;
  uint32_t n = 0;
  if (total < kV3HeaderBytes + sizeof(trailer) ||
      !read(total - sizeof(trailer), trailer, sizeof(trailer)) ||
      trailer[1] != kTraceV3TrailerMagic || trailer[0] < kV3HeaderBytes ||
      trailer[0] > total - sizeof(trailer) - 12 ||
      !read(trailer[0], &index_magic, sizeof(index_magic)) ||
      !read(trailer[0] + 8, &n, sizeof(n)) ||
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
  if (!read(entries_at, index->data(), entry_bytes) ||
      !read(entries_at + entry_bytes, &crc, sizeof(crc)) ||
      crc != Crc32(index->data(), entry_bytes)) {
    index->clear();
    return 0;
  }
  *index_offset = trailer[0];
  return entries_at + entry_bytes + sizeof(crc);
}

}  // namespace

void PayloadStore::Record(size_t event_index, const uint8_t* data,
                          size_t size) {
  if (offsets_.size() < event_index) {
    offsets_.resize(event_index, kNone);
  }
  offsets_.push_back(bytes_.size());
  bytes_.insert(bytes_.end(), data, data + size);
}

bool TraceIo::Write(const std::vector<PmEvent>& events, std::ostream& out,
                    const PayloadStore* payloads) {
  out.write(kMagic.data(), kMagic.size());
  const uint32_t version =
      payloads != nullptr ? kVersionPayload : kVersionLegacy;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  uint64_t count = events.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  if (payloads != nullptr) {
    uint64_t payload_bytes = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      if (payloads->Has(i)) {
        payload_bytes += events[i].size;
      }
    }
    out.write(reinterpret_cast<const char*>(&payload_bytes),
              sizeof(payload_bytes));
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const bool with_payload = payloads != nullptr && payloads->Has(i);
    const PackedEvent packed = Pack(events[i], with_payload);
    out.write(reinterpret_cast<const char*>(&packed), sizeof(packed));
    if (with_payload) {
      const std::span<const uint8_t> bytes =
          payloads->For(i, events[i].size);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  return static_cast<bool>(out);
}

bool TraceIo::WriteV3(const std::vector<PmEvent>& events, std::ostream& out,
                      const PayloadStore* payloads, uint32_t block_events) {
  TraceStreamWriter writer(payloads != nullptr, block_events);
  for (size_t i = 0; i < events.size(); ++i) {
    PmEvent ev = events[i];
    ev.payload = payloads != nullptr ? payloads->For(i, ev.size).data()
                                     : nullptr;
    writer.OnEvent(ev);
  }
  const TraceStream stream = writer.Finish();
  out.write(reinterpret_cast<const char*>(stream.bytes().data()),
            static_cast<std::streamsize>(stream.bytes().size()));
  return static_cast<bool>(out);
}

namespace {

// Whole-stream v3 load through TraceStream::Parse, so the vector-at-once
// API is as strict as replay input: a corrupt block, or fewer events than
// the header counts, is an error here; the streaming TraceFileReader is
// the skip-and-warn path.
bool ReadV3Stream(std::istream& in, std::vector<PmEvent>* events,
                  PayloadStore* payloads, std::string* error) {
  std::vector<uint8_t> bytes(kMagic.begin(), kMagic.end());
  AppendPod(&bytes, kVersionColumnar);
  bytes.insert(bytes.end(), std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  TraceStream stream;
  if (!TraceStream::Parse(std::move(bytes), 0, &stream, error)) {
    return false;
  }
  events->reserve(stream.events());
  TraceBlockDecoder decoder;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const TraceBlockView& view = stream.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i) {
      if (payloads != nullptr && view.HasPayload(i)) {
        payloads->Record(events->size(), view.Payload(i), view.sizes[i]);
      }
      events->push_back(view.Event(i));
    }
  }
  return true;
}

}  // namespace

bool TraceIo::Read(std::istream& in, std::vector<PmEvent>* events,
                   PayloadStore* payloads, std::string* error) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    SetError(error, "not a mumak trace (bad magic)");
    return false;
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) {
    SetError(error, "truncated trace header");
    return false;
  }
  if (!VersionSupported(version, error)) {
    return false;
  }
  events->clear();
  if (payloads != nullptr) {
    payloads->Clear();
  }
  if (version == kVersionColumnar) {
    return ReadV3Stream(in, events, payloads, error);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) {
    SetError(error, "truncated trace header");
    return false;
  }
  if (version >= kVersionPayload) {
    uint64_t payload_bytes = 0;  // header field; recomputed from records
    in.read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
    if (!in) {
      SetError(error, "truncated trace header");
      return false;
    }
  }
  // No reservation from `count`: a corrupt header must not size an
  // allocation; the vector grows with the records actually read.
  std::vector<uint8_t> scratch;
  for (uint64_t i = 0; i < count; ++i) {
    PackedEvent packed{};
    in.read(reinterpret_cast<char*>(&packed), sizeof(packed));
    if (!in) {
      SetError(error, "truncated trace records");
      return false;
    }
    if ((packed.flags & kFlagHasPayload) != 0) {
      scratch.resize(packed.size);
      in.read(reinterpret_cast<char*>(scratch.data()), packed.size);
      if (!in) {
        SetError(error, "truncated store payload");
        return false;
      }
      if (payloads != nullptr) {
        payloads->Record(i, scratch.data(), scratch.size());
      }
    }
    events->push_back(Unpack(packed));
  }
  return true;
}

bool TraceIo::WriteFile(const std::vector<PmEvent>& events,
                        const std::string& path,
                        const PayloadStore* payloads) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  return Write(events, out, payloads);
}

bool TraceIo::ReadFile(const std::string& path, std::vector<PmEvent>* events,
                       PayloadStore* payloads, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, "cannot open '" + path + "'");
    return false;
  }
  return Read(in, events, payloads, error);
}

// -- TraceStream ---------------------------------------------------------------

size_t TraceStream::FootprintBytes() const {
  return bytes_.capacity() +
         index_.capacity() * sizeof(TraceBlockIndexEntry) +
         starts_.capacity() * sizeof(uint64_t);
}

const TraceBlockView& TraceStream::DecodeBlock(
    size_t b, TraceBlockDecoder* decoder) const {
  const uint64_t at = index_[b].file_offset;
  TraceBlockHeader header;
  std::memcpy(&header, bytes_.data() + at, sizeof(header));
  std::string error;
  if (!decoder->Decode(header, bytes_.data() + at + sizeof(header), &error)) {
    throw std::runtime_error("trace block " + std::to_string(b) +
                             " failed to decode: " + error);
  }
  return decoder->view();
}

bool TraceStream::Parse(std::vector<uint8_t> bytes, uint64_t pool_size,
                        TraceStream* out, std::string* error) {
  auto fail = [error](const std::string& message) {
    SetError(error, message);
    return false;
  };
  const ReadAt read = [&bytes](uint64_t at, void* dst, size_t size) {
    if (at > bytes.size() || bytes.size() - at < size) {
      return false;
    }
    std::memcpy(dst, bytes.data() + at, size);
    return true;
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
  read(8, &version, sizeof(version));
  read(12, &count, sizeof(count));
  read(20, &payload_total, sizeof(payload_total));
  read(28, &block_events, sizeof(block_events));
  read(32, &flags, sizeof(flags));
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
  if (LoadV3Index(read, bytes.size(), &index, &index_offset) == 0) {
    return fail("no intact trailer and block index (torn or spliced stream)");
  }
  const size_t n = index.size();

  // Every block: where the index says, agreeing with it, decodable, full
  // except the last, seqs ascending across blocks, payloads in the pool.
  TraceBlockDecoder decoder;
  std::vector<uint64_t> starts{0};
  starts.reserve(index.size() + 1);
  uint64_t offset = kV3HeaderBytes;
  uint64_t payload_seen = 0;
  uint64_t last_seq = 0;
  for (size_t b = 0; b < n; ++b) {
    const TraceBlockIndexEntry& entry = index[b];
    const std::string where = "block " + std::to_string(b);
    TraceBlockHeader header;
    if (entry.file_offset != offset ||
        index_offset - offset < sizeof(header) ||
        !read(offset, &header, sizeof(header)) ||
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
    std::string block_error;
    if (!decoder.Decode(header, bytes.data() + offset + sizeof(header),
                        &block_error)) {
      return fail(where + ": " + block_error);
    }
    const TraceBlockView& view = decoder.view();
    for (size_t i = 0; i < view.count; ++i) {
      if (starts.back() + i > 0 && view.seqs[i] <= last_seq) {
        return fail(where + ": seqs do not ascend");
      }
      last_seq = view.seqs[i];
      if (pool_size != 0 && view.HasPayload(i) &&
          (view.sizes[i] > pool_size ||
           view.offsets[i] > pool_size - view.sizes[i])) {
        return fail(where + " event " + std::to_string(i) + " writes " +
                    std::to_string(view.sizes[i]) + " bytes at offset " +
                    std::to_string(view.offsets[i]) + ", outside the pool");
      }
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
  out->bytes_ = std::move(bytes);
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
  AppendV3Footer(&state.bytes, state.index, state.sites);
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

TraceFileSink::TraceFileSink(const std::string& path, bool with_payloads)
    : TraceFileSink(path, TraceSinkOptions{.format = 0,
                                           .with_payloads = with_payloads}) {}

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
  AppendSiteTable(&footer, sites_);
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

// -- TraceFileReader -----------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string& path) {
  auto* in = new std::ifstream(path, std::ios::binary);
  in_ = in;
  if (!*in) {
    error_ = "cannot open '" + path + "'";
    return;
  }
  std::array<char, 8> magic{};
  in->read(magic.data(), magic.size());
  if (!*in || magic != kMagic) {
    error_ = "not a mumak trace (bad magic)";
    return;
  }
  in->read(reinterpret_cast<char*>(&version_), sizeof(version_));
  if (!*in) {
    error_ = "truncated trace header";
    return;
  }
  if (!VersionSupported(version_, &error_)) {
    return;
  }
  in->read(reinterpret_cast<char*>(&total_), sizeof(total_));
  uint64_t payload_bytes = 0;
  if (*in && version_ >= kVersionPayload) {
    in->read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
  }
  if (*in && version_ == kVersionColumnar) {
    in->read(reinterpret_cast<char*>(&block_events_), sizeof(block_events_));
    in->read(reinterpret_cast<char*>(&flags_), sizeof(flags_));
  }
  ok_ = static_cast<bool>(*in);
  if (!ok_) {
    error_ = "truncated trace header";
    return;
  }
  if (version_ == kVersionColumnar) {
    ok_ = OpenV3(payload_bytes);
    return;
  }
  // Load the optional site-name footer, then rewind to the records. The
  // version-2 header carries the payload-byte total precisely so this seek
  // works without scanning the variable-length records.
  const std::streampos records_begin = in->tellg();
  in->seekg(static_cast<std::streamoff>(records_begin) +
            static_cast<std::streamoff>(total_ * sizeof(PackedEvent) +
                                        payload_bytes));
  ReadSiteTableAt(static_cast<uint64_t>(in->tellg()));
  in->clear();
  in->seekg(records_begin);
}

// Loads the site-name table if `offset` points at one; harmless no-op when
// it points at anything else (the magic check rejects it).
void TraceFileReader::ReadSiteTableAt(uint64_t offset) {
  auto* in = static_cast<std::ifstream*>(in_);
  in->clear();
  in->seekg(static_cast<std::streamoff>(offset));
  uint64_t footer_magic = 0;
  in->read(reinterpret_cast<char*>(&footer_magic), sizeof(footer_magic));
  if (!*in || footer_magic != kFooterMagic) {
    in->clear();
    return;
  }
  uint32_t n = 0;
  in->read(reinterpret_cast<char*>(&n), sizeof(n));
  for (uint32_t i = 0; i < n && *in; ++i) {
    uint32_t site = 0;
    uint32_t length = 0;
    in->read(reinterpret_cast<char*>(&site), sizeof(site));
    in->read(reinterpret_cast<char*>(&length), sizeof(length));
    if (!*in || length > 4096) {
      break;
    }
    std::string name(length, '\0');
    in->read(name.data(), length);
    site_names_.emplace(site, std::move(name));
  }
  in->clear();
}

bool TraceFileReader::OpenV3(uint64_t header_payload_bytes) {
  (void)header_payload_bytes;  // index entries are authoritative below
  auto* in = static_cast<std::ifstream*>(in_);
  in->seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in->tellg());
  const ReadAt read = [in](uint64_t at, void* out, size_t size) {
    in->clear();
    in->seekg(static_cast<std::streamoff>(at));
    in->read(static_cast<char*>(out), static_cast<std::streamsize>(size));
    return static_cast<bool>(*in);
  };
  uint64_t index_offset = 0;
  const uint64_t sites_at = LoadV3Index(read, file_size, &index_, &index_offset);
  if (sites_at != 0) {
    ReadSiteTableAt(sites_at);
  } else {
    in->clear();
    RebuildIndexByScan(file_size);
    index_rebuilt_ = true;
  }
  total_ = 0;
  for (const TraceBlockIndexEntry& entry : index_) {
    total_ += entry.events;
  }
  decoder_ = std::make_unique<TraceBlockDecoder>();
  return true;
}

// Torn trailer or corrupt index: walk the frame headers from the front,
// mirroring the campaign journal reader's skip-and-warn recovery. Blocks
// whose frame extends past EOF are dropped (torn tail); a footer or index
// magic ends the scan.
void TraceFileReader::RebuildIndexByScan(uint64_t file_size) {
  std::fprintf(stderr,
               "mumak: trace index unreadable; rebuilding by frame scan\n");
  auto* in = static_cast<std::ifstream*>(in_);
  uint64_t offset = kV3HeaderBytes;
  while (offset + sizeof(TraceBlockHeader) <= file_size) {
    in->clear();
    in->seekg(static_cast<std::streamoff>(offset));
    TraceBlockHeader header;
    in->read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!*in) {
      break;
    }
    if (header.magic != kTraceV3BlockMagic) {
      uint64_t magic64 = 0;
      std::memcpy(&magic64, &header, sizeof(magic64));
      if (magic64 == kFooterMagic) {
        ReadSiteTableAt(offset);
      } else if (magic64 == kTraceV3IndexMagic) {
        // The index section itself was fine but the trailer was torn; the
        // site table follows the entries.
        uint32_t n = 0;
        std::memcpy(&n, reinterpret_cast<const char*>(&header) + 8,
                    sizeof(n));
        ReadSiteTableAt(offset + sizeof(uint64_t) + sizeof(uint32_t) +
                        static_cast<uint64_t>(n) *
                            sizeof(TraceBlockIndexEntry) +
                        sizeof(uint32_t));
      } else {
        std::fprintf(stderr,
                     "mumak: unrecognised bytes at trace offset %llu; "
                     "stopping scan\n",
                     static_cast<unsigned long long>(offset));
      }
      break;
    }
    if (header.encoded_len > kTraceV3MaxEncodedBytes ||
        offset + sizeof(TraceBlockHeader) + header.encoded_len > file_size) {
      std::fprintf(stderr,
                   "mumak: torn trace block at offset %llu dropped\n",
                   static_cast<unsigned long long>(offset));
      break;
    }
    TraceBlockIndexEntry entry;
    entry.file_offset = offset;
    entry.first_seq = header.first_seq;
    entry.events = header.events;
    entry.payload_bytes = header.payload_bytes;
    index_.push_back(entry);
    offset += sizeof(TraceBlockHeader) + header.encoded_len;
  }
  in->clear();
}

TraceFileReader::~TraceFileReader() {
  delete static_cast<std::ifstream*>(in_);
}

bool TraceFileReader::NextRawBlock(TraceBlockHeader* header,
                                   std::vector<uint8_t>* encoded) {
  if (!ok_ || version_ != kVersionColumnar) {
    return false;
  }
  auto* in = static_cast<std::ifstream*>(in_);
  while (block_cursor_ < index_.size()) {
    const TraceBlockIndexEntry& entry = index_[block_cursor_];
    in->clear();
    in->seekg(static_cast<std::streamoff>(entry.file_offset));
    in->read(reinterpret_cast<char*>(header), sizeof(*header));
    bool frame_ok = static_cast<bool>(*in) &&
                    header->magic == kTraceV3BlockMagic &&
                    header->encoded_len <= kTraceV3MaxEncodedBytes;
    if (frame_ok) {
      encoded->resize(header->encoded_len);
      in->read(reinterpret_cast<char*>(encoded->data()),
               header->encoded_len);
      frame_ok = static_cast<bool>(*in);
    }
    ++block_cursor_;
    if (frame_ok) {
      return true;
    }
    ++corrupt_blocks_;
    std::fprintf(stderr, "mumak: trace block %zu unreadable, skipped\n",
                 block_cursor_ - 1);
  }
  return false;
}

const TraceBlockView* TraceFileReader::NextBlock() {
  if (!ok_ || version_ != kVersionColumnar) {
    return nullptr;
  }
  TraceBlockHeader header;
  while (NextRawBlock(&header, &frame_buffer_)) {
    std::string block_error;
    if (decoder_->Decode(header, frame_buffer_.data(), &block_error)) {
      block_decoded_ = true;
      event_cursor_ = 0;
      return &decoder_->view();
    }
    ++corrupt_blocks_;
    std::fprintf(stderr, "mumak: trace block %zu skipped (%s)\n",
                 block_cursor_ - 1, block_error.c_str());
  }
  block_decoded_ = false;
  return nullptr;
}

bool TraceFileReader::SeekToSeq(uint64_t target) {
  if (!ok_ || version_ != kVersionColumnar) {
    return false;
  }
  // Last block whose first seq is <= target; earlier blocks cannot contain
  // it (entries are ascending in first_seq).
  size_t block = 0;
  uint64_t skipped_events = 0;
  for (size_t i = 1; i < index_.size(); ++i) {
    if (index_[i].first_seq > target) {
      break;
    }
    skipped_events += index_[i - 1].events;
    block = i;
  }
  block_cursor_ = block;
  block_decoded_ = false;
  read_ = skipped_events;
  if (NextBlock() == nullptr) {
    return total_ == 0 || block_cursor_ >= index_.size();
  }
  const TraceBlockView& view = decoder_->view();
  while (event_cursor_ < view.count && view.seqs[event_cursor_] < target) {
    ++event_cursor_;
    ++read_;
  }
  return true;
}

bool TraceFileReader::NextChunk(std::vector<PmEvent>* out, size_t max,
                                PayloadStore* payloads) {
  out->clear();
  if (payloads != nullptr) {
    payloads->Clear();
  }
  if (!ok_) {
    return false;
  }
  if (version_ == kVersionColumnar) {
    while (out->size() < max) {
      if (!block_decoded_ || event_cursor_ >= decoder_->view().count) {
        if (NextBlock() == nullptr) {
          break;
        }
      }
      const TraceBlockView& view = decoder_->view();
      while (event_cursor_ < view.count && out->size() < max) {
        const PmEvent ev = view.Event(event_cursor_);
        if (view.HasPayload(event_cursor_)) {
          payload_bytes_read_ += ev.size;
          if (payloads != nullptr) {
            payloads->Record(out->size(), view.Payload(event_cursor_),
                             ev.size);
          }
        }
        out->push_back(ev);
        ++event_cursor_;
        ++read_;
      }
    }
    return !out->empty();
  }
  if (read_ >= total_) {
    return false;
  }
  auto* in = static_cast<std::ifstream*>(in_);
  const size_t want =
      std::min<size_t>(max, static_cast<size_t>(total_ - read_));
  out->reserve(want);
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < want; ++i) {
    PackedEvent packed{};
    in->read(reinterpret_cast<char*>(&packed), sizeof(packed));
    if (!*in) {
      ok_ = false;
      error_ = "truncated trace records";
      break;
    }
    if ((packed.flags & kFlagHasPayload) != 0) {
      scratch.resize(packed.size);
      in->read(reinterpret_cast<char*>(scratch.data()), packed.size);
      if (!*in) {
        ok_ = false;
        error_ = "truncated store payload";
        break;
      }
      payload_bytes_read_ += packed.size;
      if (payloads != nullptr) {
        payloads->Record(out->size(), scratch.data(), scratch.size());
      }
    }
    out->push_back(Unpack(packed));
    ++read_;
  }
  return !out->empty();
}

}  // namespace mumak
