// Tests for trace format v3: the columnar block codec, cross-version
// round-trips through the one loader, salvage of corrupt/torn archived
// files, the strict in-memory stream (writer = file bytes, all-or-nothing
// validation), block-at-a-time replay cursors and their checkpoints, and
// the block-parallel offline analysis (which must produce byte-identical
// reports to the serial path).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/trace_analysis.h"
#include "src/instrument/trace.h"
#include "src/instrument/trace_v3.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

// A synthetic trace: events plus the bytes their stores wrote.
struct Trace {
  std::vector<PmEvent> events;
  std::vector<std::vector<uint8_t>> payloads;  // per event; empty: none

  void Add(const PmEvent& ev, std::vector<uint8_t> payload = {}) {
    events.push_back(ev);
    payloads.push_back(std::move(payload));
  }
  bool HasPayload(size_t i) const { return !payloads[i].empty(); }
  // Event `i` carrying its payload, as a writer receives it.
  PmEvent WithPayload(size_t i) const {
    PmEvent ev = events[i];
    ev.payload = HasPayload(i) ? payloads[i].data() : nullptr;
    return ev;
  }
};

// Every event of `stream` with the bytes its store wrote, decoded.
Trace Decoded(const TraceStream& stream) {
  Trace trace;
  TraceBlockDecoder decoder;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const TraceBlockView& view = stream.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i) {
      std::vector<uint8_t> payload;
      if (view.HasPayload(i)) {
        payload.assign(view.Payload(i), view.Payload(i) + view.sizes[i]);
      }
      trace.Add(view.Event(i), std::move(payload));
    }
  }
  return trace;
}

// The in-memory stream of `trace`, `block_events` events per block.
TraceStream StreamOf(const Trace& trace, uint32_t block_events,
                     bool with_payloads = true) {
  TraceStreamWriter writer(with_payloads, block_events);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    writer.OnEvent(trace.WithPayload(i));
  }
  return writer.Finish();
}

// Deterministic synthetic PM workload: stores with payloads, flushes,
// fences, the occasional NT-store/RMW — enough kind/offset/size variety to
// exercise every column, plus realistic redundancy for the compressor.
Trace MakeTrace(size_t n, bool payloads = true) {
  Trace trace;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rng = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < n; ++i) {
    PmEvent ev;
    ev.seq = i * 2 + (rng() % 2);  // gaps, like a stream with loads elided
    ev.site = static_cast<uint32_t>(rng() % 37);
    const uint64_t roll = rng() % 100;
    std::vector<uint8_t> payload;
    if (roll < 55) {
      ev.kind = roll < 50 ? EventKind::kStore : EventKind::kNtStore;
      ev.offset = (rng() % 512) * 8;
      ev.size = 8;
      if (payloads) {
        for (size_t b = 0; b < 8; ++b) {
          payload.push_back(static_cast<uint8_t>((i + b) % 7));  // compressible
        }
      }
    } else if (roll < 80) {
      ev.kind = rng() % 2 == 0 ? EventKind::kClwb : EventKind::kClflushOpt;
      ev.offset = (rng() % 512) * 8 / 64 * 64;
      ev.size = 64;
    } else if (roll < 95) {
      ev.kind = EventKind::kSfence;
    } else {
      ev.kind = EventKind::kRmw;
      ev.offset = (rng() % 512) * 8;
      ev.size = 8;
    }
    trace.Add(ev, std::move(payload));
  }
  return trace;
}

void ExpectSameEvents(const std::vector<PmEvent>& a,
                      const std::vector<PmEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << "event " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "event " << i;
    EXPECT_EQ(a[i].site, b[i].site) << "event " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "event " << i;
  }
}

// -- LZ codec -----------------------------------------------------------------

TEST(TraceLzTest, RoundTripCompressible) {
  std::vector<uint8_t> data(64 << 10);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 23);
  }
  std::vector<uint8_t> compressed;
  ASSERT_TRUE(TraceLzCompress(data.data(), data.size(), &compressed));
  EXPECT_LT(compressed.size(), data.size());
  std::vector<uint8_t> restored(data.size());
  ASSERT_TRUE(TraceLzDecompress(compressed.data(), compressed.size(),
                                restored.data(), restored.size()));
  EXPECT_EQ(restored, data);
}

TEST(TraceLzTest, IncompressibleInputDeclines) {
  // A pseudo-random stream has no 4-byte matches worth emitting; the
  // compressor reports "not smaller" instead of inflating the block.
  std::vector<uint8_t> data(8 << 10);
  uint64_t state = 1;
  for (auto& byte : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(state >> 33);
  }
  std::vector<uint8_t> compressed;
  EXPECT_FALSE(TraceLzCompress(data.data(), data.size(), &compressed));
}

TEST(TraceLzTest, DecompressRejectsTruncatedInput) {
  std::vector<uint8_t> data(4096, 0x5a);
  std::vector<uint8_t> compressed;
  ASSERT_TRUE(TraceLzCompress(data.data(), data.size(), &compressed));
  std::vector<uint8_t> restored(data.size());
  EXPECT_FALSE(TraceLzDecompress(compressed.data(), compressed.size() / 2,
                                 restored.data(), restored.size()));
}

// -- Block codec --------------------------------------------------------------

TEST(TraceBlockTest, BuilderDecoderRoundTrip) {
  const Trace trace = MakeTrace(1000);
  TraceBlockBuilder builder;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    builder.Add(trace.WithPayload(i));
  }
  TraceBlockHeader header;
  std::vector<uint8_t> columns;
  std::vector<uint8_t> encoded;
  builder.Encode(&columns, &encoded, &header);
  EXPECT_EQ(header.events, 1000u);
  EXPECT_EQ(header.first_seq, trace.events[0].seq);
  // The column scratch is reused, not appended to: a second encode through
  // the same buffers gives the same frame.
  TraceBlockHeader again;
  std::vector<uint8_t> reencoded;
  builder.Encode(&columns, &reencoded, &again);
  EXPECT_EQ(reencoded, encoded);
  EXPECT_EQ(again.raw_len, header.raw_len);

  TraceBlockDecoder decoder;
  std::string error;
  ASSERT_TRUE(decoder.Decode(header, encoded.data(), &error)) << error;
  const TraceBlockView& view = decoder.view();
  ASSERT_EQ(view.count, 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    const PmEvent ev = view.Event(i);
    EXPECT_EQ(ev.seq, trace.events[i].seq);
    EXPECT_EQ(ev.kind, trace.events[i].kind);
    EXPECT_EQ(ev.offset, trace.events[i].offset);
    if (trace.HasPayload(i)) {
      ASSERT_TRUE(view.HasPayload(i));
      const std::vector<uint8_t>& want = trace.payloads[i];
      EXPECT_EQ(std::memcmp(view.Payload(i), want.data(), want.size()), 0);
    } else {
      EXPECT_FALSE(view.HasPayload(i));
    }
  }
}

TEST(TraceBlockTest, DecoderRejectsCorruptPayload) {
  const Trace trace = MakeTrace(100);
  TraceBlockBuilder builder;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    builder.Add(trace.WithPayload(i));
  }
  TraceBlockHeader header;
  std::vector<uint8_t> columns;
  std::vector<uint8_t> encoded;
  builder.Encode(&columns, &encoded, &header);
  // CRC catches a flipped byte.
  std::vector<uint8_t> tampered = encoded;
  tampered[tampered.size() / 2] ^= 0xff;
  TraceBlockDecoder decoder;
  std::string error;
  EXPECT_FALSE(decoder.Decode(header, tampered.data(), &error));
  EXPECT_FALSE(error.empty());
}

// -- Cross-version round-trips ------------------------------------------------

// The trace `path` holds, through the loader.
LoadedTrace LoadFile(const std::string& path) {
  LoadedTrace loaded;
  std::string error;
  EXPECT_TRUE(LoadTraceFile(path, &loaded, &error)) << error;
  return loaded;
}

// Writes `trace` through a TraceFileSink: format 0 is v1 (v2 with
// payloads), format 3 columnar blocks of `block_events`.
std::string WriteFile(const Trace& trace, const std::string& name,
                      uint32_t format, bool with_payloads,
                      uint32_t block_events = kTraceV3DefaultBlockEvents) {
  const std::string path = ::testing::TempDir() + "/" + name;
  TraceSinkOptions options;
  options.format = format;
  options.with_payloads = with_payloads;
  options.block_events = block_events;
  TraceFileSink sink(path, options);
  EXPECT_TRUE(sink.ok());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    sink.OnEvent(trace.WithPayload(i));
  }
  sink.Close();
  EXPECT_EQ(sink.version(), format == 3 ? 3u : (with_payloads ? 2u : 1u));
  return path;
}

std::string WriteV3File(const Trace& trace, const std::string& name,
                        uint32_t block_events, bool with_payloads) {
  return WriteFile(trace, name, 3, with_payloads, block_events);
}

void ExpectSamePayloads(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.HasPayload(i), b.HasPayload(i)) << "event " << i;
    EXPECT_EQ(a.payloads[i], b.payloads[i]) << "event " << i;
  }
}

TEST(TraceV3IoTest, RoundTripWithPayloads) {
  const Trace trace = MakeTrace(5000);
  const TraceStream stream = StreamOf(trace, 512);
  std::stringstream buffer(
      std::string(stream.bytes().begin(), stream.bytes().end()));
  LoadedTrace loaded;
  std::string error;
  ASSERT_TRUE(LoadTrace(buffer, &loaded, &error)) << error;
  const Trace got = Decoded(loaded.stream);
  ExpectSameEvents(got.events, trace.events);
  ExpectSamePayloads(got, trace);
}

TEST(TraceV3IoTest, RoundTripPayloadless) {
  const Trace trace = MakeTrace(3000, /*payloads=*/false);
  const LoadedTrace loaded =
      LoadFile(WriteV3File(trace, "v3_payloadless.bin", 1024, false));
  ExpectSameEvents(Decoded(loaded.stream).events, trace.events);
}

TEST(TraceV3IoTest, AllVersionsDecodeTheSameStream) {
  const Trace trace = MakeTrace(2000);
  const std::string v1 = WriteFile(trace, "all_v1.bin", 0, false);
  const std::string v2 = WriteFile(trace, "all_v2.bin", 0, true);
  const std::string v3 = WriteFile(trace, "all_v3.bin", 3, true, 256);
  // v3 is dramatically smaller; the ≥2.5x acceptance bar lives in
  // bench_trace_v3, but the codec should clear it on any realistic stream.
  EXPECT_LT(std::filesystem::file_size(v3) * 2,
            std::filesystem::file_size(v2));
  const LoadedTrace from_v1 = LoadFile(v1);
  const LoadedTrace from_v2 = LoadFile(v2);
  const LoadedTrace from_v3 = LoadFile(v3);
  EXPECT_EQ(from_v1.version, 1u);
  EXPECT_EQ(from_v2.version, 2u);
  EXPECT_EQ(from_v3.version, 3u);
  const Trace p2 = Decoded(from_v2.stream);
  const Trace p3 = Decoded(from_v3.stream);
  ExpectSameEvents(Decoded(from_v1.stream).events, trace.events);
  ExpectSameEvents(p2.events, trace.events);
  ExpectSameEvents(p3.events, trace.events);
  ExpectSamePayloads(p2, p3);
}

// -- File sink + loader ---------------------------------------------------------

TEST(TraceV3FileTest, SinkAndReaderRoundTrip) {
  const Trace trace = MakeTrace(10000);
  const std::string path =
      WriteV3File(trace, "v3_spool.bin", 512, /*with_payloads=*/true);
  const LoadedTrace loaded = LoadFile(path);
  EXPECT_EQ(loaded.version, 3u);
  EXPECT_TRUE(loaded.stream.with_payloads());
  EXPECT_FALSE(loaded.index_rebuilt);
  EXPECT_EQ(loaded.stream.events(), trace.events.size());
  EXPECT_EQ(loaded.stream.blocks(), (10000u + 511) / 512);
  EXPECT_EQ(loaded.stream.block_events(), 512u);
  const Trace got = Decoded(loaded.stream);
  ExpectSamePayloads(got, trace);
  ExpectSameEvents(got.events, trace.events);
  EXPECT_TRUE(loaded.dropped.empty());
}

TEST(TraceV3FileTest, BlockGranularIteration) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_blocks.bin", 256, /*with_payloads=*/false);
  const LoadedTrace loaded = LoadFile(path);
  TraceBlockDecoder decoder;
  size_t index = 0;
  for (size_t b = 0; b < loaded.stream.blocks(); ++b) {
    const TraceBlockView& view = loaded.stream.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i, ++index) {
      const PmEvent ev = view.Event(i);
      EXPECT_EQ(ev.seq, trace.events[index].seq);
      EXPECT_EQ(ev.kind, trace.events[index].kind);
      EXPECT_EQ(ev.offset, trace.events[index].offset);
    }
  }
  EXPECT_EQ(index, trace.events.size());
}

// -- Salvage ------------------------------------------------------------------

TEST(TraceV3FileTest, CorruptBlockIsSkipped) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_corrupt.bin", 256, /*with_payloads=*/false);
  uint64_t victim_offset = 0;
  uint32_t victim_events = 0;
  {
    const LoadedTrace probe = LoadFile(path);
    ASSERT_GT(probe.stream.blocks(), 4u);
    const TraceBlockIndexEntry& victim = probe.stream.block(3);
    victim_offset = victim.file_offset;
    victim_events = victim.events;
  }
  {
    // Flip bytes inside the victim block's encoded region (past the
    // 32-byte frame header) so its CRC no longer matches.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(victim_offset) + 40);
    const char garbage[8] = {'\xde', '\xad', '\xbe', '\xef',
                             '\xde', '\xad', '\xbe', '\xef'};
    file.write(garbage, sizeof(garbage));
  }
  const LoadedTrace loaded = LoadFile(path);
  const std::vector<PmEvent> got = Decoded(loaded.stream).events;
  EXPECT_EQ(loaded.dropped.size(), 1u);
  ASSERT_EQ(got.size(), trace.events.size() - victim_events);
  // Every surviving event is intact and in order; the victim block's seq
  // range is simply missing.
  size_t cursor = 0;
  for (const PmEvent& ev : trace.events) {
    if (cursor < got.size() && got[cursor].seq == ev.seq) {
      EXPECT_EQ(got[cursor].offset, ev.offset);
      ++cursor;
    }
  }
  EXPECT_EQ(cursor, got.size());
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_EQ(loaded.warnings[0], "trace block 3 skipped (block CRC mismatch)");
}

// An index with a valid CRC may still point two entries at one frame: the
// second copy is dropped, so salvage never outgrows the file.
TEST(TraceV3FileTest, RepeatedIndexEntryIsDropped) {
  const Trace trace = MakeTrace(1024, /*payloads=*/false);
  const TraceStream stream = StreamOf(trace, 256, /*with_payloads=*/false);
  ASSERT_EQ(stream.blocks(), 4u);
  std::vector<uint8_t> bytes = stream.bytes();
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 16,
              sizeof(index_offset));
  uint8_t* entries = bytes.data() + index_offset + 12;
  std::memcpy(entries + sizeof(TraceBlockIndexEntry), entries,
              sizeof(TraceBlockIndexEntry));  // entry 1 := entry 0
  const uint32_t crc = Crc32(entries, 4 * sizeof(TraceBlockIndexEntry));
  std::memcpy(entries + 4 * sizeof(TraceBlockIndexEntry), &crc, sizeof(crc));
  std::stringstream in(std::string(bytes.begin(), bytes.end()));
  LoadedTrace loaded;
  std::string error;
  ASSERT_TRUE(LoadTrace(in, &loaded, &error)) << error;
  EXPECT_EQ(loaded.stream.blocks(), 3u);
  EXPECT_EQ(loaded.dropped.size(), 1u);
  EXPECT_LT(loaded.stream.bytes().size(), bytes.size());
}

TEST(TraceV3FileTest, TornTrailerRebuildsIndex) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_torn.bin", 256, /*with_payloads=*/false);
  size_t full_blocks = 0;
  size_t site_names = 0;
  {
    const LoadedTrace probe = LoadFile(path);
    full_blocks = probe.stream.blocks();
    site_names = probe.site_names.size();
  }
  // Chop the 16-byte trailer: the index can no longer be located directly
  // and the loader must rebuild it by scanning frame headers.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = in.tellg();
    in.close();
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(size) - 16), 0);
  }
  const LoadedTrace loaded = LoadFile(path);
  EXPECT_TRUE(loaded.index_rebuilt);
  EXPECT_EQ(loaded.stream.blocks(), full_blocks);
  ExpectSameEvents(Decoded(loaded.stream).events, trace.events);
  // The scan reaches the intact index section and keeps the site table.
  EXPECT_EQ(loaded.site_names.size(), site_names);
}

TEST(TraceV3FileTest, TornTailBlockIsDropped) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_torn_tail.bin", 256, /*with_payloads=*/false);
  uint64_t last_offset = 0;
  uint32_t last_events = 0;
  size_t blocks = 0;
  {
    const LoadedTrace probe = LoadFile(path);
    blocks = probe.stream.blocks();
    last_offset = probe.stream.block(blocks - 1).file_offset;
    last_events = probe.stream.block(blocks - 1).events;
  }
  // Cut mid-way through the last frame (and everything after it): the
  // loader loses the index AND the final block, keeps the prefix.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(last_offset) + 40), 0);
  const LoadedTrace loaded = LoadFile(path);
  EXPECT_TRUE(loaded.index_rebuilt);
  EXPECT_EQ(loaded.stream.blocks(), blocks - 1);
  EXPECT_EQ(loaded.stream.events(), trace.events.size() - last_events);
  // A torn tail is never indexed, so it is not among the dropped blocks.
  EXPECT_TRUE(loaded.dropped.empty());
}

// -- Parallel offline analysis ------------------------------------------------

std::string RenderedAnalysis(const std::string& path, uint32_t jobs) {
  TraceAnalysisOptions options;
  options.jobs = jobs;
  TraceAnalyzer analyzer(std::move(options));
  TraceStats stats;
  const Report report = analyzer.AnalyzeFile(path, &stats);
  return report.Render();
}

TEST(TraceV3AnalysisTest, BlockParallelMatchesSerial) {
  const Trace trace = MakeTrace(20000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_analysis.bin", 512, /*with_payloads=*/false);
  const std::string serial = RenderedAnalysis(path, 1);
  const std::string parallel2 = RenderedAnalysis(path, 2);
  const std::string parallel4 = RenderedAnalysis(path, 4);
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel4);
  // The stream above leaves plenty unflushed/unfenced; an empty report
  // would mean the comparison is vacuous.
  EXPECT_FALSE(serial.empty());
}

TEST(TraceV3AnalysisTest, V3ReportMatchesFlatReport) {
  const Trace trace = MakeTrace(20000, /*payloads=*/false);
  const std::string v3_path =
      WriteV3File(trace, "v3_vs_flat_a.bin", 512, /*with_payloads=*/false);
  const std::string flat_path =
      WriteFile(trace, "v3_vs_flat_b.bin", 0, /*with_payloads=*/false);
  EXPECT_EQ(RenderedAnalysis(v3_path, 4), RenderedAnalysis(flat_path, 1));
}

// -- In-memory stream ----------------------------------------------------------

// One writer: a v3 file is the stream's bytes written out, and both read
// back to the same events.
TEST(TraceStreamTest, FileIsTheStreamsBytes) {
  const Trace trace = MakeTrace(5000);
  const TraceStream stream = StreamOf(trace, 512);
  EXPECT_EQ(stream.events(), trace.events.size());
  EXPECT_EQ(stream.blocks(), (5000u + 511) / 512);
  EXPECT_EQ(stream.block_start(stream.blocks()), stream.events());
  const std::string path =
      WriteV3File(trace, "v3_stream_bytes.bin", 512, /*with_payloads=*/true);
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(file, stream.bytes());

  TraceStream parsed;
  std::string error;
  ASSERT_TRUE(TraceStream::Parse(file, /*pool_size=*/0, &parsed, &error))
      << error;
  ASSERT_EQ(parsed.blocks(), stream.blocks());
  TraceBlockDecoder decoder;
  size_t index = 0;
  for (size_t b = 0; b < parsed.blocks(); ++b) {
    const TraceBlockView& view = parsed.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i, ++index) {
      EXPECT_EQ(view.seqs[i], trace.events[index].seq);
      ASSERT_EQ(view.HasPayload(i), trace.HasPayload(index));
    }
  }
  EXPECT_EQ(index, trace.events.size());
}

// Parse refuses a stream that lost blocks or claims more events than its
// bytes hold, instead of returning a shorter trace or allocating from the
// claimed count; the loader salvages the same bytes from an archive.
TEST(TraceStreamTest, ParseRejectsLostBlocksAndOversizedCounts) {
  const Trace trace = MakeTrace(5000);
  const std::vector<uint8_t> valid = StreamOf(trace, 1000).bytes();
  TraceStream probe;
  ASSERT_TRUE(TraceStream::Parse(valid, 0, &probe, nullptr));
  const uint64_t third = probe.block(2).file_offset;

  std::vector<uint8_t> cut(valid.begin(), valid.begin() + third);
  std::vector<uint8_t> flipped = valid;
  flipped[third] ^= 0xff;  // the third block's magic
  std::vector<uint8_t> oversized = valid;
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(oversized.data() + 12, &huge, sizeof(huge));  // event count
  const struct {
    const char* name;
    const std::vector<uint8_t>& bytes;
    uint64_t salvaged_events;  // what the loader keeps
  } cases[] = {{"cut", cut, 2000},
               {"flipped magic", flipped, 4000},
               {"oversized count", oversized, 5000}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    TraceStream stream;
    std::string error;
    EXPECT_FALSE(TraceStream::Parse(c.bytes, 0, &stream, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(stream.blocks(), 0u);  // untouched
    std::stringstream in(std::string(c.bytes.begin(), c.bytes.end()));
    LoadedTrace loaded;
    ASSERT_TRUE(LoadTrace(in, &loaded, &error)) << error;
    EXPECT_EQ(loaded.stream.events(), c.salvaged_events);
  }
}

// -- Replay cursor over the stream ---------------------------------------------

// A forward pass decodes each block once, and only once it needs it.
TEST(ReplayCursorBlocksTest, DecodesEachBlockOncePerForwardPass) {
  const Trace trace = MakeTrace(8000);
  const size_t pool_size = 512 * 8 + 64;
  const TraceStream stream = StreamOf(trace, 500);
  ASSERT_EQ(stream.blocks(), 16u);
  ReplayCursor cursor(stream, pool_size, /*track_digest=*/true);
  EXPECT_EQ(cursor.blocks_decoded(), 0u);
  cursor.AdvanceTo(trace.events[0].seq);
  EXPECT_EQ(cursor.blocks_decoded(), 1u);
  // Everything before block 1's first event: still inside block 0.
  cursor.AdvanceTo(stream.block(1).first_seq - 1);
  EXPECT_EQ(cursor.blocks_decoded(), 1u);
  EXPECT_EQ(cursor.consumed(), 500u);
  for (size_t i = 0; i < trace.events.size(); i += 37) {
    cursor.AdvanceTo(trace.events[i].seq);
  }
  cursor.AdvanceTo(trace.events.back().seq);
  EXPECT_EQ(cursor.blocks_decoded(), stream.blocks());
  EXPECT_EQ(cursor.consumed(), trace.events.size());
  // A forward pass never restores.
  EXPECT_EQ(cursor.seek_skipped_events(), 0u);
}

// -- Replay cursor seeks ------------------------------------------------------

// Three epochs over a 256-byte pool, each closed by an sfence; the second
// boundary (seq 40) is immediately followed by another fence at seq 41, an
// empty epoch with no stores in between.
Trace EpochTrace() {
  Trace trace;
  uint64_t next_payload = 1;
  auto add_store = [&](uint64_t seq, uint64_t offset) {
    PmEvent ev;
    ev.kind = EventKind::kStore;
    ev.seq = seq;
    ev.offset = offset;
    ev.size = 8;
    const uint64_t value = next_payload++;
    const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
    trace.Add(ev, std::vector<uint8_t>(bytes, bytes + sizeof(value)));
  };
  auto add_fence = [&](uint64_t seq) {
    PmEvent ev;
    ev.kind = EventKind::kSfence;
    ev.seq = seq;
    trace.Add(ev);
  };
  for (uint64_t i = 0; i < 8; ++i) {
    add_store(10 + i, i * 8);
  }
  add_fence(20);  // epoch 1 closes
  for (uint64_t i = 0; i < 8; ++i) {
    add_store(30 + i, 64 + i * 8);
  }
  add_fence(40);  // epoch 2 closes
  add_fence(41);  // empty epoch: boundary with no events since seq 40
  for (uint64_t i = 0; i < 8; ++i) {
    add_store(50 + i, 128 + i * 8);
  }
  add_fence(60);  // epoch 3 closes
  return trace;
}

// A cursor asked for seqs in any order (the ranked dispatch order, ranges
// handed out of order) must produce, at every seq, the image and digest a
// fresh cursor replaying from zero produces, whatever its checkpoint
// budget: none, one, the default four or one per block. The targets are
// failure-point-like seqs plus the epoch-boundary cases: the first and
// last seq of an epoch, an empty epoch, and every checkpoint's seq bound
// (the last seq before a block starts).
TEST(ReplayCursorSeekTest, AnySeqOrderMatchesAFreshCursor) {
  struct Fixture {
    const char* name;
    Trace trace;
    uint32_t block_events;
    size_t pool_size;
    std::vector<uint64_t> targets;
  };
  std::vector<Fixture> fixtures;
  fixtures.push_back({"random", MakeTrace(4000), 256, 512 * 8 + 64, {}});
  for (size_t i = 0; i < fixtures[0].trace.events.size(); i += 29) {
    fixtures[0].targets.push_back(fixtures[0].trace.events[i].seq);
  }
  fixtures[0].targets.push_back(fixtures[0].trace.events.back().seq);
  fixtures.push_back({"epochs", EpochTrace(), 1, 256,
                      {10, 19, 20, 30, 40, 41, 59, 60}});

  std::mt19937_64 rng(0x5eed);
  for (Fixture& f : fixtures) {
    const TraceStream stream = StreamOf(f.trace, f.block_events);
    for (size_t b = 1; b < stream.blocks(); ++b) {
      f.targets.push_back(stream.block(b).first_seq - 1);
    }
    std::sort(f.targets.begin(), f.targets.end());
    f.targets.erase(std::unique(f.targets.begin(), f.targets.end()),
                    f.targets.end());
    std::vector<PoolMedium> want_images;
    std::vector<ImageDigest> want_digests;
    for (const uint64_t target : f.targets) {
      ReplayCursor fresh(stream, f.pool_size, /*track_digest=*/true,
                         /*seek_checkpoints=*/0);
      want_images.push_back(fresh.AdvanceTo(target));
      want_digests.push_back(fresh.Digest());
    }
    std::vector<std::vector<size_t>> orders(5);
    for (size_t i = 0; i < f.targets.size(); ++i) {
      for (std::vector<size_t>& order : orders) {
        order.push_back(i);
      }
    }
    std::reverse(orders[1].begin(), orders[1].end());
    for (size_t o = 2; o < orders.size(); ++o) {
      std::shuffle(orders[o].begin(), orders[o].end(), rng);
    }
    const uint32_t per_block = static_cast<uint32_t>(stream.blocks());
    for (const uint32_t budget : {0u, 1u, 4u, per_block}) {
      for (const bool track : {false, true}) {
        for (size_t o = 0; o < orders.size(); ++o) {
          SCOPED_TRACE(std::string(f.name) + " budget " +
                       std::to_string(budget) + (track ? " digest" : "") +
                       " order " + std::to_string(o));
          ReplayCursor cursor(stream, f.pool_size, track, budget);
          for (const size_t i : orders[o]) {
            ASSERT_TRUE(cursor.AdvanceTo(f.targets[i]) == want_images[i])
                << "seq " << f.targets[i];
            if (track) {
              ASSERT_EQ(cursor.Digest(), want_digests[i])
                  << "seq " << f.targets[i];
            }
          }
          EXPECT_LE(cursor.checkpoint_count(), budget);
          if (budget == 0) {
            EXPECT_EQ(cursor.seek_skipped_events(), 0u);
          }
        }
      }
    }
  }
}

// Stepping back within the block a checkpoint starts restores that
// checkpoint and decodes nothing: the cursor already holds the block.
TEST(ReplayCursorSeekTest, RestoreOntoTheHeldBlockDecodesNothing) {
  const Trace trace = MakeTrace(8000);
  const size_t pool_size = 512 * 8 + 64;
  const TraceStream stream = StreamOf(trace, 500);
  ASSERT_EQ(stream.blocks(), 16u);
  // One checkpoint per block start but the first.
  ReplayCursor cursor(stream, pool_size, /*track_digest=*/true,
                      /*seek_checkpoints=*/16);
  cursor.AdvanceTo(trace.events[stream.block_start(5) + 100].seq);
  EXPECT_EQ(cursor.blocks_decoded(), 6u);
  EXPECT_EQ(cursor.checkpoint_count(), 5u);
  const uint64_t target = trace.events[stream.block_start(5) + 17].seq;
  cursor.AdvanceTo(target);
  EXPECT_EQ(cursor.blocks_decoded(), 6u);
  EXPECT_EQ(cursor.seek_skipped_events(), stream.block_start(5));
  ReplayCursor fresh(stream, pool_size, /*track_digest=*/true);
  EXPECT_TRUE(cursor.image() == fresh.AdvanceTo(target));
  EXPECT_EQ(cursor.Digest(), fresh.Digest());
  // Forward past a checkpoint ahead of it, after a restore to zero: the
  // cursor jumps to that checkpoint and decodes only its block onwards.
  cursor.AdvanceTo(trace.events[3].seq);
  const uint64_t decoded = cursor.blocks_decoded();
  cursor.AdvanceTo(trace.events[stream.block_start(4) + 1].seq);
  EXPECT_EQ(cursor.blocks_decoded(), decoded + 1);
  EXPECT_EQ(cursor.consumed(), stream.block_start(4) + 2);
}

}  // namespace
}  // namespace mumak
