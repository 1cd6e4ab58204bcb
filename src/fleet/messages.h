// Flat-JSON message bodies carried in MFL1 frames
// (src/observability/frame_channel.h), shared by the scheduler, the worker
// loop, and the serve daemon. One
// object per frame, discriminated by "type":
//
//   scheduler -> worker:  range {begin,end} | steal {} | shutdown {}
//   worker -> scheduler:  hello {worker} | verdict {index, ..., digest?} |
//                         stolen {begin,end} |
//                         done {collisions, blocks_decoded} | heartbeat {}
//   client -> daemon:     submit {argv} | status {}
//   daemon -> client:     result {exit, report} | status {...} | error {msg}
//
// Image digests and trace fingerprints, which exceed 2^53, travel as hex
// strings; everything else (indices, seqs, wall times) fits a JSON number
// exactly.

#ifndef MUMAK_SRC_FLEET_MESSAGES_H_
#define MUMAK_SRC_FLEET_MESSAGES_H_

#include <cstdint>
#include <string>

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
// index; ReadVerdictFields decodes it. `digest` is set when the verdict is
// fresh (the worker's cache did not know the image): the scheduler inserts
// the verdict into its cache under it on receipt.
inline std::string VerdictMessage(size_t index, const JournalVerdict& v,
                                  const ImageDigest* digest = nullptr) {
  JsonObject record;
  record.Str("type", "verdict").U64("index", index);
  WriteVerdictFields(v, /*with_worker=*/false, &record, digest);
  return record.Finish();
}

}  // namespace fleet
}  // namespace mumak

#endif  // MUMAK_SRC_FLEET_MESSAGES_H_
