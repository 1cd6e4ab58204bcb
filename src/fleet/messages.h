// Flat-JSON message bodies carried in MFL1 frames
// (src/observability/frame_channel.h), shared by the scheduler, the worker
// loop, and the serve daemon. One
// object per frame, discriminated by "type":
//
//   scheduler -> worker:  range {begin,end} | steal {} | shutdown {}
//   worker -> scheduler:  hello {worker} | verdict {index, ...} |
//                         insert {digest, ...} | stolen {begin,end} |
//                         done {collisions, blocks_decoded} | heartbeat {}
//   client -> daemon:     submit {argv} | status {}
//   daemon -> client:     result {exit, report} | status {...} | error {msg}
//
// 64-bit values that can exceed 2^53 (image digests, trace fingerprints,
// cache first_seq) travel as hex strings; everything else (indices, wall
// times) fits a JSON number exactly.

#ifndef MUMAK_SRC_FLEET_MESSAGES_H_
#define MUMAK_SRC_FLEET_MESSAGES_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/verdict_cache.h"
#include "src/observability/flat_json.h"
#include "src/observability/journal.h"
#include "src/pmem/image_digest.h"

namespace mumak {
namespace fleet {

inline std::string SimpleMessage(const char* type) {
  return JsonObject().Str("type", type).Finish();
}

inline std::string RangeMessage(const char* type, size_t begin, size_t end) {
  return JsonObject()
      .Str("type", type)
      .U64("begin", begin)
      .U64("end", end)
      .Finish();
}

// The journal's verdict codec (WriteVerdictFields) behind the frame's
// index; ReadVerdictFields decodes it.
inline std::string VerdictMessage(size_t index, const JournalVerdict& v) {
  JsonObject record;
  record.Str("type", "verdict").U64("index", index);
  WriteVerdictFields(v, /*with_worker=*/false, &record);
  return record.Finish();
}

inline std::string InsertMessage(const ImageDigest& digest,
                                 const VerdictCacheEntry& entry) {
  JsonObject record;
  char first_seq_hex[17];
  std::snprintf(first_seq_hex, sizeof(first_seq_hex), "%016llx",
                static_cast<unsigned long long>(entry.first_seq));
  record.Str("type", "insert")
      .Str("digest", digest.Hex())
      .U64("status", entry.status)
      .Str("first_seq", first_seq_hex)
      .Str("detail", entry.detail);
  if (!entry.signal_name.empty()) {
    record.Str("signal", entry.signal_name);
  }
  if (entry.timed_out) {
    record.Bool("timed_out", true);
  }
  if (entry.recovery_wall_us != 0) {
    record.U64("wall_us", entry.recovery_wall_us);
  }
  return record.Finish();
}

// Hex() renders hi then lo, 16 lowercase hex digits each.
inline bool DigestFromHex(const std::string& hex, ImageDigest* out) {
  if (hex.size() != 32) {
    return false;
  }
  out->hi = std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16);
  out->lo = std::strtoull(hex.substr(16, 16).c_str(), nullptr, 16);
  return true;
}

inline bool InsertFromMessage(const JsonValue& msg, ImageDigest* digest,
                              VerdictCacheEntry* entry) {
  if (!DigestFromHex(msg.Str("digest"), digest)) {
    return false;
  }
  entry->status = static_cast<uint32_t>(msg.U64("status"));
  entry->first_seq =
      std::strtoull(msg.Str("first_seq").c_str(), nullptr, 16);
  entry->detail = msg.Str("detail");
  entry->signal_name = msg.Str("signal");
  entry->timed_out = msg.BoolOr("timed_out", false);
  entry->recovery_wall_us = msg.U64("wall_us");
  return true;
}

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_MESSAGES_H_
