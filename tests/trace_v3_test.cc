// Tests for trace format v3: the columnar block codec, cross-version
// round-trips, corrupt/torn-block tolerance of archived files, the strict
// in-memory stream (writer = file bytes, all-or-nothing validation),
// index-based seek, block-at-a-time replay cursors and their checkpoints,
// and the block-parallel offline analysis (which must produce
// byte-identical reports to the serial path).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
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
  PayloadStore payloads;

  // Event `i` carrying its payload, as a writer receives it.
  PmEvent WithPayload(size_t i) const {
    PmEvent ev = events[i];
    ev.payload = payloads.For(i, ev.size).data();
    return ev;
  }
};

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
    if (roll < 55) {
      ev.kind = roll < 50 ? EventKind::kStore : EventKind::kNtStore;
      ev.offset = (rng() % 512) * 8;
      ev.size = 8;
      if (payloads) {
        uint8_t bytes[8];
        for (size_t b = 0; b < 8; ++b) {
          bytes[b] = static_cast<uint8_t>((i + b) % 7);  // compressible
        }
        trace.payloads.Record(trace.events.size(), bytes, sizeof(bytes));
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
    trace.events.push_back(ev);
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
    if (trace.payloads.Has(i)) {
      ASSERT_TRUE(view.HasPayload(i));
      const auto want = trace.payloads.For(i, trace.events[i].size);
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

TEST(TraceV3IoTest, RoundTripWithPayloads) {
  const Trace trace = MakeTrace(5000);
  std::stringstream buffer;
  ASSERT_TRUE(
      TraceIo::WriteV3(trace.events, buffer, &trace.payloads, /*block=*/512));
  std::vector<PmEvent> loaded;
  PayloadStore payloads;
  std::string error;
  ASSERT_TRUE(TraceIo::Read(buffer, &loaded, &payloads, &error)) << error;
  ExpectSameEvents(loaded, trace.events);
  for (size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(payloads.Has(i), trace.payloads.Has(i)) << "event " << i;
    if (payloads.Has(i)) {
      const auto got = payloads.For(i, loaded[i].size);
      const auto want = trace.payloads.For(i, loaded[i].size);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    }
  }
}

TEST(TraceV3IoTest, RoundTripPayloadless) {
  const Trace trace = MakeTrace(3000, /*payloads=*/false);
  std::stringstream buffer;
  ASSERT_TRUE(TraceIo::WriteV3(trace.events, buffer, nullptr, 1024));
  std::vector<PmEvent> loaded;
  ASSERT_TRUE(TraceIo::Read(buffer, &loaded));
  ExpectSameEvents(loaded, trace.events);
}

TEST(TraceV3IoTest, AllVersionsDecodeTheSameStream) {
  const Trace trace = MakeTrace(2000);
  std::stringstream v1, v2, v3;
  ASSERT_TRUE(TraceIo::Write(trace.events, v1));
  ASSERT_TRUE(TraceIo::Write(trace.events, v2, &trace.payloads));
  ASSERT_TRUE(TraceIo::WriteV3(trace.events, v3, &trace.payloads, 256));
  // v3 is dramatically smaller; the ≥2.5x acceptance bar lives in
  // bench_trace_v3, but the codec should clear it on any realistic stream.
  EXPECT_LT(v3.str().size() * 2, v2.str().size());
  std::vector<PmEvent> from_v1, from_v2, from_v3;
  PayloadStore p2, p3;
  ASSERT_TRUE(TraceIo::Read(v1, &from_v1));
  ASSERT_TRUE(TraceIo::Read(v2, &from_v2, &p2));
  ASSERT_TRUE(TraceIo::Read(v3, &from_v3, &p3));
  ExpectSameEvents(from_v1, trace.events);
  ExpectSameEvents(from_v2, trace.events);
  ExpectSameEvents(from_v3, trace.events);
  for (size_t i = 0; i < from_v2.size(); ++i) {
    ASSERT_EQ(p2.Has(i), p3.Has(i)) << "event " << i;
    if (p2.Has(i)) {
      const auto a = p2.For(i, from_v2[i].size);
      const auto b = p3.For(i, from_v3[i].size);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

// -- Streaming sink + reader --------------------------------------------------

std::string WriteV3File(const Trace& trace, const std::string& name,
                        uint32_t block_events, bool with_payloads) {
  const std::string path = ::testing::TempDir() + "/" + name;
  TraceSinkOptions options;
  options.format = 3;
  options.with_payloads = with_payloads;
  options.block_events = block_events;
  TraceFileSink sink(path, options);
  EXPECT_TRUE(sink.ok());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    sink.OnEvent(trace.WithPayload(i));
  }
  sink.Close();
  EXPECT_EQ(sink.version(), 3u);
  return path;
}

TEST(TraceV3FileTest, SinkAndReaderRoundTrip) {
  const Trace trace = MakeTrace(10000);
  const std::string path =
      WriteV3File(trace, "v3_spool.bin", 512, /*with_payloads=*/true);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.version(), 3u);
  EXPECT_TRUE(reader.has_payloads());
  EXPECT_FALSE(reader.index_rebuilt());
  EXPECT_EQ(reader.total(), trace.events.size());
  EXPECT_EQ(reader.block_index().size(), (10000 + 511) / 512);
  EXPECT_EQ(reader.block_events(), 512u);

  std::vector<PmEvent> loaded;
  std::vector<PmEvent> batch;
  PayloadStore payloads;
  size_t base = 0;
  while (reader.NextChunk(&batch, 700, &payloads)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t index = base + i;
      EXPECT_EQ(payloads.Has(i), trace.payloads.Has(index));
      if (payloads.Has(i)) {
        const auto got = payloads.For(i, batch[i].size);
        const auto want = trace.payloads.For(index, batch[i].size);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
      }
    }
    base += batch.size();
    loaded.insert(loaded.end(), batch.begin(), batch.end());
  }
  ExpectSameEvents(loaded, trace.events);
  EXPECT_EQ(reader.corrupt_blocks(), 0u);
}

TEST(TraceV3FileTest, BlockGranularIteration) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_blocks.bin", 256, /*with_payloads=*/false);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  size_t index = 0;
  while (const TraceBlockView* view = reader.NextBlock()) {
    for (size_t i = 0; i < view->count; ++i, ++index) {
      const PmEvent ev = view->Event(i);
      EXPECT_EQ(ev.seq, trace.events[index].seq);
      EXPECT_EQ(ev.kind, trace.events[index].kind);
      EXPECT_EQ(ev.offset, trace.events[index].offset);
    }
  }
  EXPECT_EQ(index, trace.events.size());
}

// -- Seek ---------------------------------------------------------------------

TEST(TraceV3FileTest, SeekMatchesScan) {
  const Trace trace = MakeTrace(8000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_seek.bin", 512, /*with_payloads=*/false);
  const uint64_t last_seq = trace.events.back().seq;
  const uint64_t targets[] = {0, 1, 513 * 2, last_seq / 2, last_seq / 2 + 1,
                              last_seq, last_seq + 100};
  for (const uint64_t target : targets) {
    // Reference: full scan, drop events below the target.
    std::vector<PmEvent> expected;
    for (const PmEvent& ev : trace.events) {
      if (ev.seq >= target) {
        expected.push_back(ev);
      }
    }
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_TRUE(reader.SeekToSeq(target)) << "target " << target;
    std::vector<PmEvent> got;
    std::vector<PmEvent> batch;
    while (reader.NextChunk(&batch, 333)) {
      got.insert(got.end(), batch.begin(), batch.end());
    }
    ExpectSameEvents(got, expected);
  }
}

TEST(TraceV3FileTest, SeekReturnsFalseOnFlatFiles) {
  const Trace trace = MakeTrace(100, /*payloads=*/false);
  const std::string path = ::testing::TempDir() + "/v1_noseek.bin";
  {
    TraceFileSink sink(path);
    for (const PmEvent& ev : trace.events) {
      sink.OnEvent(ev);
    }
    sink.Close();
  }
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.SeekToSeq(10));
}

// -- Corruption tolerance -----------------------------------------------------

TEST(TraceV3FileTest, CorruptBlockIsSkipped) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_corrupt.bin", 256, /*with_payloads=*/false);
  uint64_t victim_offset = 0;
  uint32_t victim_events = 0;
  {
    TraceFileReader probe(path);
    ASSERT_TRUE(probe.ok());
    ASSERT_GT(probe.block_index().size(), 4u);
    const TraceBlockIndexEntry& victim = probe.block_index()[3];
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
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::vector<PmEvent> got;
  std::vector<PmEvent> batch;
  while (reader.NextChunk(&batch, 512)) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
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
}

TEST(TraceV3FileTest, TornTrailerRebuildsIndex) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_torn.bin", 256, /*with_payloads=*/false);
  size_t full_blocks = 0;
  {
    TraceFileReader probe(path);
    ASSERT_TRUE(probe.ok());
    full_blocks = probe.block_index().size();
  }
  // Chop the 16-byte trailer: the index can no longer be located directly
  // and the reader must rebuild it by scanning frame headers.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = in.tellg();
    in.close();
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(size) - 16), 0);
  }
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.index_rebuilt());
  EXPECT_EQ(reader.block_index().size(), full_blocks);
  std::vector<PmEvent> got;
  std::vector<PmEvent> batch;
  while (reader.NextChunk(&batch, 512)) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  ExpectSameEvents(got, trace.events);
}

TEST(TraceV3FileTest, TornTailBlockIsDropped) {
  const Trace trace = MakeTrace(4000, /*payloads=*/false);
  const std::string path =
      WriteV3File(trace, "v3_torn_tail.bin", 256, /*with_payloads=*/false);
  uint64_t last_offset = 0;
  uint32_t last_events = 0;
  size_t blocks = 0;
  {
    TraceFileReader probe(path);
    ASSERT_TRUE(probe.ok());
    blocks = probe.block_index().size();
    last_offset = probe.block_index().back().file_offset;
    last_events = probe.block_index().back().events;
  }
  // Cut mid-way through the last frame (and everything after it): the
  // reader loses the index AND the final block, keeps the prefix.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(last_offset) + 40), 0);
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.index_rebuilt());
  EXPECT_EQ(reader.block_index().size(), blocks - 1);
  std::vector<PmEvent> got;
  std::vector<PmEvent> batch;
  while (reader.NextChunk(&batch, 512)) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(got.size(), trace.events.size() - last_events);
}

// -- PayloadStore bounds check ------------------------------------------------

TEST(PayloadStoreTest, OutOfBoundsSliceYieldsEmptySpan) {
  PayloadStore store;
  const uint8_t bytes[4] = {1, 2, 3, 4};
  store.Record(0, bytes, sizeof(bytes));
  EXPECT_EQ(store.For(0, 4).size(), 4u);
  // A corrupt trace can claim a size larger than the arena holds; the
  // slice must not read past the arena's end.
  EXPECT_TRUE(store.For(0, 4096).empty());
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
  const std::string flat_path = ::testing::TempDir() + "/v3_vs_flat_b.bin";
  {
    TraceFileSink sink(flat_path);
    for (const PmEvent& ev : trace.events) {
      sink.OnEvent(ev);
    }
    sink.Close();
  }
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
      ASSERT_EQ(view.HasPayload(i), trace.payloads.Has(index));
    }
  }
  EXPECT_EQ(index, trace.events.size());
}

// The strict readers (TraceStream::Parse, TraceIo::Read) refuse a stream
// that lost blocks or claims more events than its bytes hold, instead of
// returning a shorter trace or allocating from the claimed count.
TEST(TraceStreamTest, StrictReadersRejectLostBlocksAndOversizedCounts) {
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
  for (const auto& [name, bytes] :
       {std::pair<const char*, const std::vector<uint8_t>&>{"cut", cut},
        {"flipped magic", flipped},
        {"oversized count", oversized}}) {
    SCOPED_TRACE(name);
    TraceStream stream;
    std::string error;
    EXPECT_FALSE(TraceStream::Parse(bytes, 0, &stream, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(stream.blocks(), 0u);  // untouched
    std::stringstream in(std::string(bytes.begin(), bytes.end()));
    std::vector<PmEvent> events;
    error.clear();
    EXPECT_FALSE(TraceIo::Read(in, &events, nullptr, &error));
    EXPECT_FALSE(error.empty());
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
    trace.payloads.Record(trace.events.size(),
                          reinterpret_cast<const uint8_t*>(&value),
                          sizeof(value));
    trace.events.push_back(ev);
  };
  auto add_fence = [&](uint64_t seq) {
    PmEvent ev;
    ev.kind = EventKind::kSfence;
    ev.seq = seq;
    trace.events.push_back(ev);
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
