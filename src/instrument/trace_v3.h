// Trace format v3: columnar, per-block-compressed, seekable.
//
// Version 1/2 traces are flat row streams — 32 bytes per event plus inline
// payloads, no random access, and the whole file must be scanned to reach
// any position. v3 instead serialises events as column groups per fixed-
// size block (default 64K events):
//
//   seq     zig-zag delta varints (consecutive counters encode as 1 byte)
//   kind    raw bytes (the store/flush/fence cycle is LZ-compressible)
//   payload presence bitmap (1 bit per event)
//   size    varints
//   site    varints (interned ids are small)
//   offset  zig-zag delta varints (spatial locality keeps deltas short)
//   payload arena (the stored bytes, concatenated in event order)
//
// Each block's column bytes are then compressed with an in-tree LZ4-class
// byte-oriented compressor (greedy hash-chain matcher, 16-bit distances)
// and framed with a 32-byte header carrying the encoded/raw lengths, a
// CRC32 of the encoded bytes, the event/payload counts and the block's
// first sequence number. A footer index maps block -> (file offset, first
// seq, events, payload bytes); a 16-byte trailer locates the index from
// the end of the file. A torn or corrupt file degrades gracefully: the
// loader rebuilds the index by scanning frame headers and drops blocks
// whose CRC fails, like the campaign journal reader.
//
// This header is the codec: block building/encoding and frame decoding.
// The stream-level writer and loader (header, footer, builder thread, the
// in-memory TraceStream, salvage) live with the other trace IO in
// src/instrument/trace.{h,cc}.

#ifndef MUMAK_SRC_INSTRUMENT_TRACE_V3_H_
#define MUMAK_SRC_INSTRUMENT_TRACE_V3_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/instrument/pm_event.h"

namespace mumak {

inline constexpr uint32_t kTraceVersionV3 = 3;
inline constexpr uint32_t kTraceV3DefaultBlockEvents = 64u << 10;
inline constexpr uint32_t kTraceV3BlockMagic = 0x334b4c42u;  // "BLK3"
inline constexpr uint64_t kTraceV3IndexMagic = 0x3358444e49334b42ull;
inline constexpr uint64_t kTraceV3TrailerMagic = 0x33524c5254334b42ull;
// Sanity bound on a single frame: no legitimate block encodes anywhere
// near this, so larger length fields mean corruption, not data.
inline constexpr uint32_t kTraceV3MaxEncodedBytes = 1u << 30;

// CRC-32 (IEEE, reflected polynomial 0xEDB88320; Crc32("123456789") is
// 0xCBF43926) over a byte range: the one CRC of the v3 trace, the MJN1
// journal and MFL1 frames. It lives here because the instrument layer sits
// below observability in the link graph.
uint32_t Crc32(const void* data, size_t size);

// In-tree LZ4-class byte compressor. Compress returns false when the
// input does not shrink (the caller then stores the block raw — signalled
// on disk by encoded_len == raw_len). Decompress is fully bounds-checked:
// corrupt input yields false, never out-of-bounds access.
bool TraceLzCompress(const uint8_t* src, size_t size,
                     std::vector<uint8_t>* out);
bool TraceLzDecompress(const uint8_t* src, size_t size, uint8_t* dst,
                       size_t raw_size);

// On-disk frame header, one per block.
struct TraceBlockHeader {
  uint32_t magic = kTraceV3BlockMagic;
  uint32_t encoded_len = 0;  // bytes following the header
  uint32_t raw_len = 0;      // decoded column bytes (== encoded_len: raw)
  uint32_t crc32 = 0;        // over the encoded bytes
  uint32_t events = 0;
  uint32_t payload_bytes = 0;
  uint64_t first_seq = 0;
};
static_assert(sizeof(TraceBlockHeader) == 32);

// One footer-index entry per block.
struct TraceBlockIndexEntry {
  uint64_t file_offset = 0;  // of the frame header
  uint64_t first_seq = 0;
  uint32_t events = 0;
  uint32_t payload_bytes = 0;
};
static_assert(sizeof(TraceBlockIndexEntry) == 24);

// Accumulates events column-wise, then encodes one block. The builder is
// reused across blocks (Clear keeps the column capacity), so a steady
// trace stream allocates nothing after the first block.
class TraceBlockBuilder {
 public:
  void Add(const PmEvent& event) {
    if (seqs_.empty()) {
      first_seq_ = event.seq;
    }
    seqs_.push_back(event.seq);
    kinds_.push_back(static_cast<uint8_t>(event.kind));
    sizes_.push_back(event.size);
    sites_.push_back(event.site);
    offsets_.push_back(event.offset);
    const bool with_payload = event.has_payload();
    has_payload_.push_back(with_payload ? 1 : 0);
    if (with_payload) {
      payload_arena_.insert(payload_arena_.end(), event.payload,
                            event.payload + event.size);
    }
  }

  size_t count() const { return seqs_.size(); }
  bool empty() const { return seqs_.empty(); }
  const std::vector<uint32_t>& sites() const { return sites_; }
  size_t payload_bytes() const { return payload_arena_.size(); }

  // Serialises the columns into `columns` (caller-owned scratch, reused
  // block after block so its capacity is reserved once), compresses, and
  // fills `header`; `encoded` receives the on-disk frame payload. Does not
  // Clear().
  void Encode(std::vector<uint8_t>* columns, std::vector<uint8_t>* encoded,
              TraceBlockHeader* header) const;

  void Clear();

 private:
  uint64_t first_seq_ = 0;
  std::vector<uint64_t> seqs_;
  std::vector<uint8_t> kinds_;
  std::vector<uint32_t> sizes_;
  std::vector<uint32_t> sites_;
  std::vector<uint64_t> offsets_;
  std::vector<uint8_t> has_payload_;  // 0/1 per event
  std::vector<uint8_t> payload_arena_;
};

// Borrowed columnar views over one decoded block. Valid until the owning
// decoder's next Decode() (or destruction) — consumers that need events
// past that must copy.
struct TraceBlockView {
  size_t count = 0;
  uint64_t first_seq = 0;
  const uint64_t* seqs = nullptr;
  const uint8_t* kinds = nullptr;
  const uint32_t* sizes = nullptr;
  const uint32_t* sites = nullptr;
  const uint64_t* offsets = nullptr;
  // Byte offset of event i's payload in `payload_arena`, or kNoPayload.
  static constexpr uint64_t kNoPayload = ~0ull;
  const uint64_t* payload_offsets = nullptr;
  const uint8_t* payload_arena = nullptr;
  size_t payload_arena_size = 0;

  PmEvent Event(size_t i) const {
    PmEvent event;
    event.kind = static_cast<EventKind>(kinds[i]);
    event.size = sizes[i];
    event.site = sites[i];
    event.offset = offsets[i];
    event.seq = seqs[i];
    return event;
  }
  bool HasPayload(size_t i) const {
    return payload_offsets[i] != kNoPayload;
  }
  const uint8_t* Payload(size_t i) const {
    return payload_arena + payload_offsets[i];
  }
};

// Decodes frames back into columns. Reused across blocks: the column
// buffers are retained between Decode() calls, so steady-state decoding
// allocates nothing.
class TraceBlockDecoder {
 public:
  // `encoded` must hold header.encoded_len bytes. Verifies the CRC,
  // decompresses, and decodes the columns. On failure the view is
  // unchanged and `error` (optional) explains; the caller skips the block.
  bool Decode(const TraceBlockHeader& header, const uint8_t* encoded,
              std::string* error = nullptr);

  const TraceBlockView& view() const { return view_; }

 private:
  TraceBlockView view_;
  std::vector<uint8_t> raw_;  // decompressed column bytes
  std::vector<uint64_t> seqs_;
  std::vector<uint8_t> kinds_;
  std::vector<uint32_t> sizes_;
  std::vector<uint32_t> sites_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> payload_offsets_;
  std::vector<uint8_t> payload_arena_;
};

}  // namespace mumak

#endif  // MUMAK_SRC_INSTRUMENT_TRACE_V3_H_
