#include "src/instrument/trace_v3.h"

#include <cstring>


namespace mumak {
namespace {

// -- varint / zig-zag ---------------------------------------------------------

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = *(*p)++;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

void SetError(std::string* error, const char* message) {
  if (error != nullptr) {
    *error = message;
  }
}

uint32_t Load32(const uint8_t* p) {
  uint32_t value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

}  // namespace

// -- CRC-32 -------------------------------------------------------------------

uint32_t Crc32(const void* data, size_t size) {
  // Slicing-by-8: table k maps a byte to its CRC contribution k bytes
  // ahead, so the main loop folds eight input bytes per step. Same CRC as
  // the bytewise loop, which still handles the tail.
  static const auto* kTables = [] {
    static uint32_t tables[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      tables[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
      }
    }
    return tables;
  }();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = Load32(bytes) ^ crc;
    const uint32_t hi = Load32(bytes + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// -- LZ4-class byte compressor ------------------------------------------------
//
// Sequence format (LZ4's shape, not its bitstream): a token byte whose
// high nibble is the literal count and low nibble the match length minus
// the 4-byte minimum, each extended by 255-run bytes when the nibble
// saturates at 15; then the literals; then — except for the final,
// literals-only sequence — a 2-byte little-endian match distance. Matches
// may overlap their output (the classic RLE-through-LZ trick), so the
// decoder copies those bytewise and the others with memcpy.

namespace {

constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzHashBits = 13;
constexpr size_t kLzTailLiterals = 5;   // final bytes always emit as literals
constexpr size_t kLzSearchCutoff = 12;  // stop matching this close to the end
constexpr uint32_t kLzNoPos = 0xffffffffu;

size_t LzHash(uint32_t value) {
  return (value * 2654435761u) >> (32 - kLzHashBits);
}

void LzPutLength(std::vector<uint8_t>* out, size_t extra) {
  while (extra >= 255) {
    out->push_back(255);
    extra -= 255;
  }
  out->push_back(static_cast<uint8_t>(extra));
}

void LzEmit(std::vector<uint8_t>* out, const uint8_t* literals,
            size_t literal_len, size_t match_len, size_t distance) {
  const uint8_t literal_nibble =
      static_cast<uint8_t>(literal_len < 15 ? literal_len : 15);
  const size_t match_extra = match_len > 0 ? match_len - kLzMinMatch : 0;
  const uint8_t match_nibble =
      static_cast<uint8_t>(match_len > 0 ? (match_extra < 15 ? match_extra
                                                             : 15)
                                         : 0);
  out->push_back(static_cast<uint8_t>((literal_nibble << 4) | match_nibble));
  if (literal_len >= 15) {
    LzPutLength(out, literal_len - 15);
  }
  out->insert(out->end(), literals, literals + literal_len);
  if (match_len == 0) {
    return;  // final sequence: no distance field
  }
  out->push_back(static_cast<uint8_t>(distance & 0xff));
  out->push_back(static_cast<uint8_t>(distance >> 8));
  if (match_extra >= 15) {
    LzPutLength(out, match_extra - 15);
  }
}

}  // namespace

bool TraceLzCompress(const uint8_t* src, size_t size,
                     std::vector<uint8_t>* out) {
  out->clear();
  if (size < kLzSearchCutoff + kLzMinMatch) {
    return false;  // too small to win
  }
  std::vector<uint32_t> table(1u << kLzHashBits, kLzNoPos);
  const size_t search_end = size - kLzSearchCutoff;
  size_t pos = 0;
  size_t literal_start = 0;
  while (pos < search_end) {
    const uint32_t here = Load32(src + pos);
    const size_t hash = LzHash(here);
    const uint32_t candidate = table[hash];
    table[hash] = static_cast<uint32_t>(pos);
    if (candidate != kLzNoPos && pos - candidate <= 0xffff &&
        Load32(src + candidate) == here) {
      // Extend the match, but leave the tail literals untouched.
      const size_t limit = size - kLzTailLiterals;
      size_t len = kLzMinMatch;
      while (pos + len < limit && src[candidate + len] == src[pos + len]) {
        ++len;
      }
      LzEmit(out, src + literal_start, pos - literal_start, len,
             pos - candidate);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  LzEmit(out, src + literal_start, size - literal_start, 0, 0);
  return out->size() < size;
}

bool TraceLzDecompress(const uint8_t* src, size_t size, uint8_t* dst,
                       size_t raw_size) {
  const uint8_t* sp = src;
  const uint8_t* const send = src + size;
  uint8_t* dp = dst;
  uint8_t* const dend = dst + raw_size;
  auto read_extra = [&](size_t* len) {
    for (;;) {
      if (sp >= send) {
        return false;
      }
      const uint8_t byte = *sp++;
      *len += byte;
      if (byte != 255) {
        return true;
      }
    }
  };
  while (sp < send) {
    const uint8_t token = *sp++;
    size_t literal_len = token >> 4;
    if (literal_len == 15 && !read_extra(&literal_len)) {
      return false;
    }
    if (static_cast<size_t>(send - sp) < literal_len ||
        static_cast<size_t>(dend - dp) < literal_len) {
      return false;
    }
    std::memcpy(dp, sp, literal_len);
    sp += literal_len;
    dp += literal_len;
    if (sp == send) {
      break;  // final literals-only sequence
    }
    if (send - sp < 2) {
      return false;
    }
    const size_t distance = static_cast<size_t>(sp[0]) |
                            (static_cast<size_t>(sp[1]) << 8);
    sp += 2;
    if (distance == 0 || distance > static_cast<size_t>(dp - dst)) {
      return false;
    }
    size_t match_len = token & 0x0f;
    if (match_len == 15 && !read_extra(&match_len)) {
      return false;
    }
    match_len += kLzMinMatch;
    if (static_cast<size_t>(dend - dp) < match_len) {
      return false;
    }
    const uint8_t* from = dp - distance;
    if (distance >= match_len) {
      std::memcpy(dp, from, match_len);
    } else {
      for (size_t i = 0; i < match_len; ++i) {  // overlap-safe
        dp[i] = from[i];
      }
    }
    dp += match_len;
  }
  return dp == dend;
}

// -- block encode -------------------------------------------------------------

void TraceBlockBuilder::Encode(std::vector<uint8_t>* columns,
                               std::vector<uint8_t>* encoded,
                               TraceBlockHeader* header) const {
  const size_t n = seqs_.size();
  // Worst-case column bytes: 10 per varint column entry, 1 kind byte, one
  // bitmap bit, plus the arena. The caller hands the same buffer back
  // block after block, so the reserve is paid once.
  std::vector<uint8_t>& bytes = *columns;
  bytes.clear();
  bytes.reserve(n * 31 + n / 8 + payload_arena_.size() + 64);

  uint64_t prev_seq = first_seq_;
  for (size_t i = 0; i < n; ++i) {
    PutVarint(&bytes, ZigZag(static_cast<int64_t>(seqs_[i] - prev_seq)));
    prev_seq = seqs_[i];
  }
  bytes.insert(bytes.end(), kinds_.begin(), kinds_.end());
  for (size_t i = 0; i < n; i += 8) {
    uint8_t bits = 0;
    for (size_t bit = 0; bit < 8 && i + bit < n; ++bit) {
      bits |= static_cast<uint8_t>(has_payload_[i + bit] << bit);
    }
    bytes.push_back(bits);
  }
  for (size_t i = 0; i < n; ++i) {
    PutVarint(&bytes, sizes_[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    PutVarint(&bytes, sites_[i]);
  }
  uint64_t prev_offset = 0;
  for (size_t i = 0; i < n; ++i) {
    PutVarint(&bytes, ZigZag(static_cast<int64_t>(offsets_[i] - prev_offset)));
    prev_offset = offsets_[i];
  }
  bytes.insert(bytes.end(), payload_arena_.begin(), payload_arena_.end());

  if (!TraceLzCompress(bytes.data(), bytes.size(), encoded)) {
    encoded->assign(bytes.begin(), bytes.end());  // incompressible: store raw
  }
  header->magic = kTraceV3BlockMagic;
  header->encoded_len = static_cast<uint32_t>(encoded->size());
  header->raw_len = static_cast<uint32_t>(bytes.size());
  header->crc32 = Crc32(encoded->data(), encoded->size());
  header->events = static_cast<uint32_t>(n);
  header->payload_bytes = static_cast<uint32_t>(payload_arena_.size());
  header->first_seq = first_seq_;
}

void TraceBlockBuilder::Clear() {
  first_seq_ = 0;
  seqs_.clear();
  kinds_.clear();
  sizes_.clear();
  sites_.clear();
  offsets_.clear();
  has_payload_.clear();
  payload_arena_.clear();
}

// -- block decode -------------------------------------------------------------

bool TraceBlockDecoder::Decode(const TraceBlockHeader& header,
                               const uint8_t* encoded, std::string* error) {
  if (header.magic != kTraceV3BlockMagic) {
    SetError(error, "bad block magic");
    return false;
  }
  if (header.encoded_len > kTraceV3MaxEncodedBytes ||
      header.raw_len > kTraceV3MaxEncodedBytes) {
    SetError(error, "implausible block length");
    return false;
  }
  // Allocation bounds before anything is sized from the header: LZ expands
  // at most 255x, and an event takes a byte in each of five columns.
  if (header.encoded_len != header.raw_len &&
      header.raw_len > uint64_t{header.encoded_len} * 255 + 32) {
    SetError(error, "implausible block expansion");
    return false;
  }
  if (uint64_t{header.events} * 5 > header.raw_len) {
    SetError(error, "event count exceeds the block's bytes");
    return false;
  }
  if (Crc32(encoded, header.encoded_len) != header.crc32) {
    SetError(error, "block CRC mismatch");
    return false;
  }
  const uint8_t* raw = encoded;
  if (header.encoded_len != header.raw_len) {
    raw_.resize(header.raw_len);
    if (!TraceLzDecompress(encoded, header.encoded_len, raw_.data(),
                           header.raw_len)) {
      SetError(error, "block decompression failed");
      return false;
    }
    raw = raw_.data();
  }

  const size_t n = header.events;
  const uint8_t* p = raw;
  const uint8_t* const end = raw + header.raw_len;
  seqs_.resize(n);
  kinds_.resize(n);
  sizes_.resize(n);
  sites_.resize(n);
  offsets_.resize(n);
  payload_offsets_.resize(n);

  uint64_t prev_seq = header.first_seq;
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(&p, end, &delta)) {
      SetError(error, "truncated seq column");
      return false;
    }
    // Wrapping unsigned add: a corrupt delta must not overflow a signed
    // sum (undefined behaviour), only yield seqs the caller rejects.
    prev_seq += static_cast<uint64_t>(UnZigZag(delta));
    seqs_[i] = prev_seq;
  }
  if (static_cast<size_t>(end - p) < n) {
    SetError(error, "truncated kind column");
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (p[i] > static_cast<uint8_t>(EventKind::kLoad)) {
      SetError(error, "invalid event kind");
      return false;
    }
  }
  std::memcpy(kinds_.data(), p, n);
  p += n;
  const size_t bitmap_bytes = (n + 7) / 8;
  if (static_cast<size_t>(end - p) < bitmap_bytes) {
    SetError(error, "truncated payload bitmap");
    return false;
  }
  const uint8_t* bitmap = p;
  p += bitmap_bytes;
  for (size_t i = 0; i < n; ++i) {
    uint64_t value = 0;
    if (!GetVarint(&p, end, &value) || value > 0xffffffffu) {
      SetError(error, "truncated size column");
      return false;
    }
    sizes_[i] = static_cast<uint32_t>(value);
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t value = 0;
    if (!GetVarint(&p, end, &value) || value > 0xffffffffu) {
      SetError(error, "truncated site column");
      return false;
    }
    sites_[i] = static_cast<uint32_t>(value);
  }
  uint64_t prev_offset = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(&p, end, &delta)) {
      SetError(error, "truncated offset column");
      return false;
    }
    prev_offset += static_cast<uint64_t>(UnZigZag(delta));
    offsets_[i] = prev_offset;
  }
  const size_t arena_size = static_cast<size_t>(end - p);
  if (arena_size != header.payload_bytes) {
    SetError(error, "payload arena size mismatch");
    return false;
  }
  uint64_t arena_at = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool with_payload = (bitmap[i / 8] >> (i % 8)) & 1;
    if (with_payload) {
      if (arena_at + sizes_[i] > arena_size) {
        SetError(error, "payload arena overrun");
        return false;
      }
      payload_offsets_[i] = arena_at;
      arena_at += sizes_[i];
    } else {
      payload_offsets_[i] = TraceBlockView::kNoPayload;
    }
  }
  if (arena_at != arena_size) {
    SetError(error, "payload arena underrun");
    return false;
  }
  payload_arena_.assign(p, end);

  view_.count = n;
  view_.first_seq = header.first_seq;
  view_.seqs = seqs_.data();
  view_.kinds = kinds_.data();
  view_.sizes = sizes_.data();
  view_.sites = sites_.data();
  view_.offsets = offsets_.data();
  view_.payload_offsets = payload_offsets_.data();
  view_.payload_arena = payload_arena_.data();
  view_.payload_arena_size = payload_arena_.size();
  return true;
}

}  // namespace mumak
