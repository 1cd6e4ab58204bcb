// Shared fuzz-style harness for the framed protocols and file formats:
// MJN1 (campaign journal, src/observability/journal.h), MFL1
// (src/observability/frame_channel.h: the fleet, `mumak serve` and sandbox
// replies), MFL1 at the handshake's much tighter cap on the first frame of
// a TCP connection (the same decoder), the v3 trace stream a TCP fleet
// worker receives (TraceStream::Parse, src/instrument/trace.h), which is
// all or nothing: a valid stream's every block, or none; trace files of
// every version through the one loader (LoadTrace), which salvages a
// damaged v3 file's intact blocks; and verdict-cache files
// (VerdictCache::Load, src/core/verdict_cache.h), MJN1 read through the
// journal's record reader, whose every loaded entry must be one that was
// saved.
// Every reader faces bytes written by a process that may have been
// SIGKILLed mid-write (torn tails), a child that crashed while serialising
// (corrupt lengths/CRCs), or plain garbage. The invariants a reader must
// uphold, uniformly:
//   - never crash, hang, or over-allocate on any input;
//   - never accept more than was written (CRC/consistency);
//   - decode the clean prefix of a stream whose tail is torn.
// Mutations are deterministic (seeded LCG), so a failure reproduces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/verdict_cache.h"
#include "src/fleet/transport.h"
#include "src/instrument/trace.h"
#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"
#include "src/observability/journal.h"

namespace {

// The largest single allocation made while tracking is on: a loader must
// size nothing from a count or length its bytes do not back.
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// Out of line, so the compiler does not pair the inlined free() with the
// operator new call site it cannot see into.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mumak {
namespace {

// What the bytes of a `file_size`-byte input can back. A v3 block's LZ
// expands at most 255x and decoding widens a column byte to at most 8, so
// decoded columns may outgrow the file; 512x covers both. The floor covers
// fixed buffers (stream reads, the writer's first 64 KiB, the LZ table).
size_t AllocationBound(size_t file_size) {
  return std::max<size_t>(size_t{1} << 20, file_size * 512);
}

// Runs `load`, expecting no single allocation beyond what `file_size`
// bytes can back.
template <typename Load>
bool Bounded(size_t file_size, Load load) {
  g_largest_allocation.store(0);
  g_track_allocations.store(true);
  const bool ok = load();
  g_track_allocations.store(false);
  EXPECT_LE(g_largest_allocation.load(), AllocationBound(file_size));
  return ok;
}

// Deterministic 64-bit LCG (MMIX constants): the harness must not depend
// on std::random_device or time.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 11;
  }
  uint8_t NextByte() { return static_cast<uint8_t>(Next()); }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

// A protocol adapter: a valid multi-frame stream, the number of frames it
// carries, and a decoder returning how many frames were accepted. The
// decode callback must tolerate ANY byte string.
struct ProtocolHarness {
  const char* name;
  std::vector<uint8_t> valid;
  size_t frame_count;
  std::function<size_t(const std::vector<uint8_t>&)> decode;
};

// --- MJN1: campaign journal files -------------------------------------------

ProtocolHarness MakeMjn1Harness() {
  ProtocolHarness h;
  h.name = "MJN1";
  const std::string path = testing::TempDir() + "/framing_fuzz_seed.mjn";
  std::string error;
  auto journal = CampaignJournal::Create(path, &error);
  EXPECT_NE(journal, nullptr) << error;
  journal->WriteHeader({{"target", "btree"}, {"ops", "64"}});
  journal->WriteProfile(0xfeedface12345678ull, 9, 512);
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    journal->WriteDispatch(seq * 7, 0);
    JournalVerdict v;
    v.seq = seq * 7;
    v.status = seq % 2 == 0 ? "ok" : "unrecoverable";
    v.detail = "detail for seq " + std::to_string(seq * 7);
    journal->WriteVerdict(v);
  }
  journal->WriteFooter(2, 0, 1.5, false);
  journal->Close();
  std::ifstream in(path, std::ios::binary);
  h.valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  // 1 header + 1 profile + 4 dispatches + 4 verdicts + 1 footer.
  h.frame_count = 11;
  h.decode = [](const std::vector<uint8_t>& bytes) {
    const std::string path =
        testing::TempDir() + "/framing_fuzz_mutant.mjn";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    const JournalReplay replay = ReplayJournal(path);
    std::remove(path.c_str());
    if (!replay.ok) {
      return size_t{0};
    }
    // Count decoded records the way the writer counted frames.
    return static_cast<size_t>((replay.has_header ? 1 : 0) +
                               (replay.has_profile ? 1 : 0) +
                               replay.dispatches + replay.verdicts.size() +
                               (replay.has_footer ? 1 : 0));
  };
  return h;
}

// --- MFL1: fleet, serve and sandbox frames ----------------------------------

// Frames the one MFL1 decoder accepts from `bytes` at payload cap `cap`.
size_t DecodedFrames(const std::vector<uint8_t>& bytes, uint32_t cap) {
  FrameDecoder decoder(cap);
  decoder.Feed(bytes.data(), bytes.size());
  size_t accepted = 0;
  std::string payload;
  while (decoder.Next(&payload) == FrameStatus::kOk) {
    ++accepted;
  }
  return accepted;
}

ProtocolHarness MakeMfl1Harness() {
  ProtocolHarness h;
  h.name = "MFL1";
  h.frame_count = 4;
  for (size_t i = 0; i < h.frame_count; ++i) {
    const std::string frame = EncodeFrame(
        "{\"type\": \"verdict\", \"index\": " + std::to_string(i) +
        ", \"seq\": " + std::to_string(100 + i) +
        ", \"status\": \"ok\", \"detail\": \"\", \"location\": \"\"}");
    h.valid.insert(h.valid.end(), frame.begin(), frame.end());
  }
  h.decode = [](const std::vector<uint8_t>& bytes) {
    return DecodedFrames(bytes, fleet::kFleetMaxPayload);
  };
  return h;
}

// --- MFL1 handshake: the length-capped first frame --------------------------

ProtocolHarness MakeHandshakeHarness() {
  ProtocolHarness h;
  h.name = "MFL1-handshake";
  h.frame_count = 4;
  for (size_t i = 0; i < h.frame_count; ++i) {
    fleet::FleetHandshake hs;
    hs.proto = fleet::kFleetProtoVersion;
    hs.role = (i % 2) == 0 ? "worker" : "scheduler";
    hs.worker = static_cast<uint32_t>(i);
    hs.fingerprint = 0xfeedface00000000ull + i;
    const std::string frame = EncodeFrame(fleet::HandshakeMessage(hs));
    h.valid.insert(h.valid.end(), frame.begin(), frame.end());
  }
  h.decode = [](const std::vector<uint8_t>& bytes) {
    return DecodedFrames(bytes, fleet::kFleetMaxHandshakeBytes);
  };
  return h;
}

// --- v3 trace stream: the fleet bootstrap's replay input --------------------

constexpr uint64_t kStreamPool = 1u << 20;

// Every decoded column byte of `stream`, block by block: two streams that
// replay identically have equal contents.
std::vector<uint8_t> StreamContents(const TraceStream& stream) {
  std::vector<uint8_t> out;
  TraceBlockDecoder decoder;
  auto put = [&out](const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out.insert(out.end(), bytes, bytes + size);
  };
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const TraceBlockView& view = stream.DecodeBlock(b, &decoder);
    put(view.seqs, view.count * sizeof(uint64_t));
    put(view.kinds, view.count);
    put(view.sizes, view.count * sizeof(uint32_t));
    put(view.sites, view.count * sizeof(uint32_t));
    put(view.offsets, view.count * sizeof(uint64_t));
    put(view.payload_offsets, view.count * sizeof(uint64_t));
    put(view.payload_arena, view.payload_arena_size);
  }
  return out;
}

ProtocolHarness MakeTraceStreamHarness() {
  ProtocolHarness h;
  h.name = "v3 trace stream";
  TraceStreamWriter writer(/*with_payloads=*/true, /*block_events=*/64);
  for (uint64_t i = 0; i < 4 * 64; ++i) {
    PmEvent ev;
    ev.seq = i * 3;
    ev.site = static_cast<uint32_t>(i % 5);
    const uint64_t value = i * 0x9e3779b97f4a7c15ull;
    if (i % 4 == 3) {
      ev.kind = EventKind::kSfence;
    } else {
      ev.kind = EventKind::kStore;
      ev.offset = (i * 24) % (kStreamPool - 8);
      ev.size = sizeof(value);
      ev.payload = reinterpret_cast<const uint8_t*>(&value);
    }
    writer.OnEvent(ev);
  }
  const TraceStream stream = writer.Finish();
  h.valid = stream.bytes();
  h.frame_count = stream.blocks();
  // A stream that parses but replays differently is reported as more
  // blocks than were written, so every containment check catches it.
  h.decode = [contents = StreamContents(stream),
              blocks = stream.blocks()](const std::vector<uint8_t>& bytes) {
    TraceStream parsed;
    std::string error;
    if (!TraceStream::Parse(bytes, kStreamPool, &parsed, &error)) {
      EXPECT_FALSE(error.empty());
      return size_t{0};
    }
    return StreamContents(parsed) == contents ? blocks : blocks + 1;
  };
  return h;
}

// --- Trace files: the one loader, every version ----------------------------

// Events LoadTrace keeps from `bytes`: 0 on an error, else the events of a
// stream TraceStream::Parse accepts.
size_t LoadedEvents(const std::vector<uint8_t>& bytes) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  LoadedTrace loaded;
  std::string error;
  if (!Bounded(bytes.size(), [&] { return LoadTrace(in, &loaded, &error); })) {
    EXPECT_FALSE(error.empty());
    return 0;
  }
  TraceStream reparsed;
  EXPECT_TRUE(TraceStream::Parse(loaded.stream.bytes(), 0, &reparsed, &error))
      << error;
  return static_cast<size_t>(loaded.stream.events());
}

// A 96-event trace file written by TraceFileSink: format 0 gives v1, or v2
// with payloads; format 3 gives 16-event v3 blocks.
std::vector<uint8_t> TraceFileBytes(uint32_t format, bool with_payloads) {
  const std::string path = testing::TempDir() + "/framing_fuzz_seed.trace";
  TraceSinkOptions options;
  options.format = format;
  options.with_payloads = with_payloads;
  options.block_events = 16;
  {
    TraceFileSink sink(path, options);
    for (uint64_t i = 0; i < 96; ++i) {
      PmEvent ev;
      ev.seq = i * 3;
      ev.site = static_cast<uint32_t>(i % 5);
      const uint64_t value = i * 0x9e3779b97f4a7c15ull;
      if (i % 4 == 3) {
        ev.kind = EventKind::kSfence;
      } else {
        ev.kind = EventKind::kStore;
        ev.offset = i * 24;
        ev.size = sizeof(value);
        ev.payload = reinterpret_cast<const uint8_t*>(&value);
      }
      sink.OnEvent(ev);
    }
    sink.Close();
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

ProtocolHarness MakeTraceFileHarness(const char* name, uint32_t format,
                                     bool with_payloads) {
  ProtocolHarness h;
  h.name = name;
  h.valid = TraceFileBytes(format, with_payloads);
  h.frame_count = 96;  // events: a v3 block keeps 16 or none
  h.decode = LoadedEvents;
  return h;
}

// --- Verdict-cache files (MJN1) --------------------------------------------

constexpr uint64_t kCacheFingerprint = 0xc0ffee11c0ffee11ull;

// The entries the harness saves: digest {i + 1, ~i}, seq 100 + i.
std::vector<std::pair<ImageDigest, JournalVerdict>> SavedCacheEntries() {
  const char* const kStatus[] = {"ok", "unrecoverable", "crashed"};
  std::vector<std::pair<ImageDigest, JournalVerdict>> entries;
  for (uint64_t i = 0; i < 3; ++i) {
    JournalVerdict verdict;
    verdict.status = kStatus[i];
    verdict.seq = 100 + i;
    verdict.detail = "verdict " + std::to_string(i);
    verdict.signal_name = i == 2 ? "SIGSEGV" : "";
    ImageDigest digest;
    digest.lo = i + 1;
    digest.hi = ~i;
    entries.emplace_back(digest, verdict);
  }
  return entries;
}

bool SameEntry(const std::pair<ImageDigest, JournalVerdict>& a,
               const std::pair<ImageDigest, JournalVerdict>& b) {
  const JournalVerdict& x = a.second;
  const JournalVerdict& y = b.second;
  return a.first == b.first && x.seq == y.seq && x.status == y.status &&
         x.detail == y.detail && x.location == y.location &&
         x.signal_name == y.signal_name && x.timed_out == y.timed_out &&
         x.wall_us == y.wall_us && x.dedup_of == y.dedup_of &&
         x.from_cache == y.from_cache && x.worker == y.worker;
}

ProtocolHarness MakeVerdictCacheHarness() {
  ProtocolHarness h;
  h.name = "verdict cache";
  const std::string path = testing::TempDir() + "/framing_fuzz_seed.mvc";
  VerdictCache cache;
  for (auto& [digest, verdict] : SavedCacheEntries()) {
    cache.Insert(digest, std::move(verdict), nullptr, 0);
  }
  std::string error;
  EXPECT_TRUE(cache.Save(path, kCacheFingerprint, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  h.valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  h.frame_count = 3;
  h.decode = [](const std::vector<uint8_t>& bytes) {
    const std::string path = testing::TempDir() + "/framing_fuzz_mutant.mvc";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    VerdictCache loaded;
    std::string warning;
    const bool ok = Bounded(bytes.size(), [&] {
      return loaded.Load(path, kCacheFingerprint, &warning);
    });
    std::remove(path.c_str());
    // Every entry kept is counted as loaded and is one that was saved,
    // field for field: damage drops entries, it never changes one.
    EXPECT_EQ(loaded.loaded(), loaded.size());
    const auto saved = SavedCacheEntries();
    for (const auto& entry : loaded.LoadedEntries()) {
      EXPECT_TRUE(std::any_of(saved.begin(), saved.end(),
                              [&](const auto& s) { return SameEntry(s, entry); }))
          << "loaded an entry that was never saved: "
          << entry.first.Hex() << " " << entry.second.status;
    }
    return ok ? loaded.size() : size_t{0};
  };
  return h;
}

std::vector<ProtocolHarness> AllHarnesses() {
  std::vector<ProtocolHarness> all;
  all.push_back(MakeMjn1Harness());
  all.push_back(MakeMfl1Harness());
  all.push_back(MakeHandshakeHarness());
  all.push_back(MakeTraceStreamHarness());
  all.push_back(MakeTraceFileHarness("v1 trace file", 0, false));
  all.push_back(MakeTraceFileHarness("v2 trace file", 0, true));
  all.push_back(MakeTraceFileHarness("v3 trace file", 3, true));
  all.push_back(MakeVerdictCacheHarness());
  return all;
}

// --- The shared properties --------------------------------------------------

TEST(FramingFuzz, ValidStreamDecodesEveryFrame) {
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    EXPECT_EQ(h.decode(h.valid), h.frame_count);
  }
}

// A SIGKILL can tear the stream at any byte: every truncation point must
// decode cleanly to at most the full frame count, never crash, and the
// decoded count must be monotonic in the prefix length.
TEST(FramingFuzz, EveryTruncationDecodesACleanPrefix) {
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    size_t previous = 0;
    for (size_t cut = 0; cut <= h.valid.size(); ++cut) {
      const std::vector<uint8_t> torn(h.valid.begin(),
                                      h.valid.begin() + cut);
      const size_t accepted = h.decode(torn);
      EXPECT_LE(accepted, h.frame_count) << "cut at " << cut;
      EXPECT_GE(accepted, previous) << "cut at " << cut;
      previous = accepted;
    }
    EXPECT_EQ(previous, h.frame_count);
  }
}

// Any single flipped byte must never increase the number of accepted
// frames (CRC/consistency catches it somewhere at or before the damage).
TEST(FramingFuzz, EverySingleByteFlipIsContained) {
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    for (size_t at = 0; at < h.valid.size(); ++at) {
      std::vector<uint8_t> mutant = h.valid;
      mutant[at] ^= 0xa5;
      const size_t accepted = h.decode(mutant);
      EXPECT_LE(accepted, h.frame_count) << "flip at " << at;
    }
  }
}

// Oversized declared lengths must be rejected without allocating or
// waiting for the phantom payload. Each protocol's length field sits right
// after its 4-byte magic (in a trace file the bytes are the magic's second
// half, which must be refused as well; in a verdict cache file it is the
// fingerprint record's, and a cache without its fingerprint starts cold).
TEST(FramingFuzz, OversizedLengthIsRejected) {
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    std::vector<uint8_t> mutant = h.valid;
    const uint32_t huge = 0x7fffffffu;
    std::memcpy(mutant.data() + 4, &huge, sizeof(huge));
    const size_t accepted = h.decode(mutant);
    EXPECT_EQ(accepted, 0u);
  }
}

// Pure garbage, random lengths: nothing may be accepted from a stream that
// does not start with the magic, and nothing may crash.
TEST(FramingFuzz, RandomGarbageAcceptsNothing) {
  Lcg rng(0x5eed5eed5eed5eedull);
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    for (int round = 0; round < 64; ++round) {
      std::vector<uint8_t> garbage(rng.Below(256) + 1);
      for (uint8_t& b : garbage) {
        b = rng.NextByte();
      }
      // Avoid the 1-in-2^32 case where garbage opens with a real magic.
      garbage[0] ^= 0xff;
      EXPECT_EQ(h.decode(garbage), 0u) << "round " << round;
    }
  }
}

// Random multi-byte corruption splices: overwrite a random run of bytes,
// then check containment. Covers cross-field damage single-byte flips
// miss (length+CRC rewritten together, magic spliced mid-stream, ...).
TEST(FramingFuzz, RandomSplicesAreContained) {
  Lcg rng(0xf422aa11deadbeefull);
  for (const ProtocolHarness& h : AllHarnesses()) {
    SCOPED_TRACE(h.name);
    for (int round = 0; round < 128; ++round) {
      std::vector<uint8_t> mutant = h.valid;
      const size_t start = rng.Below(mutant.size());
      const size_t len = rng.Below(mutant.size() - start) + 1;
      for (size_t i = 0; i < len; ++i) {
        mutant[start + i] = rng.NextByte();
      }
      const size_t accepted = h.decode(mutant);
      EXPECT_LE(accepted, h.frame_count)
          << "round " << round << " splice [" << start << ", "
          << start + len << ")";
    }
  }
}

// Replay input is all or nothing: no proper prefix of a stream (a torn
// transfer) is accepted as a shorter trace, and a damaged stream that is
// accepted at all replays exactly as the original (the damage hit a byte
// replay never reads, a site name).
TEST(FramingFuzz, TraceStreamIsAllOrNothing) {
  const ProtocolHarness h = MakeTraceStreamHarness();
  ASSERT_GT(h.frame_count, 1u);
  for (size_t cut = 0; cut < h.valid.size(); ++cut) {
    const std::vector<uint8_t> torn(h.valid.begin(), h.valid.begin() + cut);
    ASSERT_EQ(h.decode(torn), 0u) << "cut at " << cut;
  }
  Lcg rng(0x7ace5eedull);
  for (int round = 0; round < 256; ++round) {
    std::vector<uint8_t> mutant = h.valid;
    const size_t start = rng.Below(mutant.size());
    const size_t len = rng.Below(std::min<size_t>(64, mutant.size() - start)) + 1;
    for (size_t i = 0; i < len; ++i) {
      mutant[start + i] ^= static_cast<uint8_t>(rng.NextByte() | 1);
    }
    const size_t accepted = h.decode(mutant);
    EXPECT_TRUE(accepted == 0 || accepted == h.frame_count)
        << "round " << round;
  }
  // Appended bytes are a splice too.
  std::vector<uint8_t> longer = h.valid;
  longer.push_back(0);
  EXPECT_EQ(h.decode(longer), 0u);
}

// Counts and lengths far beyond the bytes, at every field that declares
// one: each load ends in an error or a stream Parse accepts (checked by
// LoadedEvents), and allocates no more than the bytes back (Bounded).
TEST(FramingFuzz, TraceFileOversizedCountsAndLengths) {
  auto with = [](std::vector<uint8_t> bytes, size_t at, auto value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
  };
  const uint64_t huge_count = uint64_t{1} << 60;
  const uint32_t huge_length = 0xffffffffu;
  for (const auto& [name, format, payloads] :
       {std::tuple<const char*, uint32_t, bool>{"v1", 0, false},
        {"v2", 0, true}}) {
    SCOPED_TRACE(name);
    const std::vector<uint8_t> valid = TraceFileBytes(format, payloads);
    // The row count sits after the magic and version; nothing is reserved
    // from it, and the missing rows are an error.
    EXPECT_EQ(LoadedEvents(with(valid, 12, huge_count)), 0u);
    if (payloads) {
      // The first row (after the 28-byte header) is a store: its size.
      EXPECT_EQ(LoadedEvents(with(valid, 28 + 4, huge_length)), 0u);
    }
  }
  const std::vector<uint8_t> v3 = TraceFileBytes(3, true);
  TraceStream stream;
  ASSERT_TRUE(TraceStream::Parse(v3, 0, &stream, nullptr));
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, v3.data() + v3.size() - 16, sizeof(index_offset));
  // The header's event count: the blocks are intact, so salvage keeps all.
  EXPECT_EQ(LoadedEvents(with(v3, 12, huge_count)), 96u);
  // Block 1's encoded length: its frame is unreadable and dropped.
  EXPECT_EQ(LoadedEvents(with(v3, stream.block(1).file_offset + 4,
                              huge_length)),
            80u);
  // The index's entry count: the index is unusable, a frame scan finds
  // every block.
  EXPECT_EQ(LoadedEvents(with(v3, index_offset + 8, huge_length)), 96u);
  // The first site name's length: the names stop, the events load.
  const uint64_t sites_at =
      index_offset + 12 + stream.blocks() * sizeof(TraceBlockIndexEntry) + 4;
  EXPECT_EQ(LoadedEvents(with(v3, sites_at + 12 + 4, huge_length)), 96u);
}

// A record length beyond the record cap at each entry record: the load
// stops there, keeping the entries before it, and sizes nothing from it.
TEST(FramingFuzz, VerdictCacheOversizedRecordLengths) {
  const ProtocolHarness h = MakeVerdictCacheHarness();
  uint32_t length = 0;
  std::memcpy(&length, h.valid.data() + 4, sizeof(length));
  size_t at = 4 + 8 + length;  // past the fingerprint record
  for (size_t entry = 0; entry < 3; ++entry) {
    std::vector<uint8_t> mutant = h.valid;
    const uint32_t huge = 0x7fffffffu;
    std::memcpy(mutant.data() + at, &huge, sizeof(huge));
    EXPECT_EQ(h.decode(mutant), entry) << "entry " << entry;
    std::memcpy(&length, h.valid.data() + at, sizeof(length));
    at += 8 + length;
  }
  EXPECT_EQ(at, h.valid.size());
}

// The handshake's cap sits far below the general 1 MiB frame limit: a
// frame between the two must decode fine mid-stream but be rejected as the
// first frame of a TCP connection — an unauthenticated peer does not get
// to make the scheduler buffer data.
TEST(FramingFuzz, HandshakeCapIsTighterThanTheGeneralFrameLimit) {
  std::string payload = "{\"type\": \"handshake\", \"pad\": \"";
  payload.append(fleet::kFleetMaxHandshakeBytes * 2, 'x');
  payload += "\"}";
  ASSERT_GT(payload.size(), fleet::kFleetMaxHandshakeBytes);
  ASSERT_LT(payload.size(), fleet::kFleetMaxPayload);
  const std::string frame = EncodeFrame(payload);

  FrameDecoder general(fleet::kFleetMaxPayload);
  general.Feed(frame.data(), frame.size());
  std::string decoded;
  EXPECT_EQ(general.Next(&decoded), FrameStatus::kOk);
  EXPECT_EQ(decoded, payload);

  FrameDecoder first(fleet::kFleetMaxHandshakeBytes);
  first.Feed(frame.data(), frame.size());
  EXPECT_EQ(first.Next(&decoded), FrameStatus::kOversized);
}

// A decoded handshake frame parses back into the exact fields that were
// sent (the fingerprint is 64-bit and must survive the JSON wire).
TEST(FramingFuzz, HandshakeFieldsRoundTrip) {
  fleet::FleetHandshake sent;
  sent.proto = fleet::kFleetProtoVersion;
  sent.role = "scheduler";
  sent.worker = 7;
  sent.fingerprint = 0xfedcba9876543210ull;
  const std::string frame = EncodeFrame(fleet::HandshakeMessage(sent));
  FrameDecoder decoder(fleet::kFleetMaxHandshakeBytes);
  decoder.Feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(decoder.Next(&payload), FrameStatus::kOk);
  EXPECT_EQ(decoder.Next(&payload), FrameStatus::kNeedMore);
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(payload).Parse(&parsed));
  fleet::FleetHandshake got;
  ASSERT_TRUE(fleet::ParseHandshake(parsed, &got));
  EXPECT_EQ(got.proto, sent.proto);
  EXPECT_EQ(got.role, sent.role);
  EXPECT_EQ(got.worker, sent.worker);
  EXPECT_EQ(got.fingerprint, sent.fingerprint);
}

}  // namespace
}  // namespace mumak
