// Unit and property tests for the persistency model and the emulated pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "src/instrument/deterministic_random.h"
#include "src/instrument/trace.h"
#include "src/pmem/image_digest.h"
#include "src/pmem/persistency_model.h"
#include "src/pmem/pm_pool.h"
#include "src/pmem/pool_medium.h"
#include "src/pmem/replay_cursor.h"

namespace mumak {
namespace {

TEST(PersistencyModel, StoreIsVisibleButNotDurable) {
  PersistencyModel model(4096);
  const uint64_t value = 0xdeadbeef;
  model.Store(128, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(&value), 8));
  EXPECT_EQ(model.LoadU64(128), value);
  EXPECT_EQ(model.PowerFailImage()[128], 0);
  auto graceful = model.GracefulImage();
  uint64_t read = 0;
  std::memcpy(&read, graceful.data() + 128, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, ClwbAlonePersistsNothing) {
  PersistencyModel model(4096);
  const uint64_t value = 7;
  model.Store(0, std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(&value), 8));
  model.Clwb(0);
  // Still only in the WPQ.
  EXPECT_EQ(model.PowerFailImage()[0], 0);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data(), 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, ClflushIsImmediatelyDurable) {
  PersistencyModel model(4096);
  const uint64_t value = 9;
  model.Store(64, std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(&value), 8));
  model.Clflush(64);
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 64, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, FlushSnapshotsLineContentAtFlushTime) {
  PersistencyModel model(4096);
  uint64_t v1 = 1, v2 = 2;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&v1), 8});
  model.Clwb(0);
  // Overwrite after the flush but before the fence: the fence commits the
  // snapshot, not the newer value.
  model.Store(0, {reinterpret_cast<const uint8_t*>(&v2), 8});
  model.Fence();
  uint64_t durable_read = 0;
  auto durable = model.PowerFailImage();
  std::memcpy(&durable_read, durable.data(), 8);
  EXPECT_EQ(durable_read, v1);
  // The newer value is still the visible one.
  EXPECT_EQ(model.LoadU64(0), v2);
}

TEST(PersistencyModel, NtStoreRequiresFence) {
  PersistencyModel model(4096);
  uint64_t value = 0x42;
  model.NtStore(8, {reinterpret_cast<const uint8_t*>(&value), 8});
  EXPECT_EQ(model.LoadU64(8), value);  // visible
  EXPECT_EQ(model.PowerFailImage()[8], 0);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 8, 8);
  EXPECT_EQ(read, value);
}

TEST(PersistencyModel, RmwHasFenceSemantics) {
  PersistencyModel model(4096);
  uint64_t value = 5;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&value), 8});
  model.Clwb(0);
  // The RMW's implicit fence commits the pending flush.
  model.RmwAdd(512, 1);
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data(), 8);
  EXPECT_EQ(read, value);
  EXPECT_EQ(model.LoadU64(512), 1u);
}

TEST(PersistencyModel, RmwCas) {
  PersistencyModel model(4096);
  EXPECT_TRUE(model.RmwCas(0, 0, 77));
  EXPECT_FALSE(model.RmwCas(0, 0, 88));
  EXPECT_EQ(model.LoadU64(0), 77u);
}

TEST(PersistencyModel, StoreSpanningCacheLines) {
  PersistencyModel model(4096);
  std::vector<uint8_t> data(200, 0xab);
  model.Store(40, data);
  std::vector<uint8_t> out(200, 0);
  model.Load(40, out);
  EXPECT_EQ(out, data);
  EXPECT_GE(model.dirty_line_count(), 4u);
}

TEST(PersistencyModel, PowerFailImageWithSelectedLines) {
  PersistencyModel model(4096);
  uint64_t a = 1, b = 2;
  model.Store(0, {reinterpret_cast<const uint8_t*>(&a), 8});
  model.Store(64, {reinterpret_cast<const uint8_t*>(&b), 8});
  const uint64_t lines[] = {1};  // only the second line survives
  auto image = model.PowerFailImageWithLines(lines);
  uint64_t r0 = 0, r1 = 0;
  std::memcpy(&r0, image.data(), 8);
  std::memcpy(&r1, image.data() + 64, 8);
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, b);
}

TEST(PersistencyModel, EightByteFailureAtomicityGranularity) {
  // Aligned 8-byte stores either fully survive or fully vanish in any
  // crash image: check that a committed granule is byte-exact.
  PersistencyModel model(4096);
  uint64_t value = 0x1122334455667788ull;
  model.Store(16, {reinterpret_cast<const uint8_t*>(&value), 8});
  model.Clwb(16);
  model.Fence();
  auto durable = model.PowerFailImage();
  uint64_t read = 0;
  std::memcpy(&read, durable.data() + 16, 8);
  EXPECT_EQ(read, value);
}

// Property test: for random operation sequences, (1) the durable image is
// always a subset of the graceful image in the sense that every line is
// either the durable content or a newer visible content; (2) after a fence,
// everything flushed before the fence is durable.
class ModelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelPropertyTest, FlushedThenFencedIsDurable) {
  DeterministicRandom rng(GetParam());
  PersistencyModel model(64 * 1024);
  // Reference: byte values that must be durable after each fence.
  std::map<uint64_t, std::vector<uint8_t>> flushed_lines;  // line -> content
  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    if (action < 6) {
      const uint64_t offset = rng.NextBelow(64 * 1024 - 16);
      uint64_t value = rng.Next();
      model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 8) {
      const uint64_t offset = rng.NextBelow(64 * 1024);
      // Snapshot the line's visible content: that is what must become
      // durable at the next fence.
      std::vector<uint8_t> content(kCacheLineSize);
      model.Load(LineBase(offset), content);
      model.Clwb(offset);
      flushed_lines[LineIndex(offset)] = std::move(content);
    } else if (action < 9) {
      model.Fence();
      auto durable = model.PowerFailImage();
      for (const auto& [line, content] : flushed_lines) {
        const uint8_t* at = durable.data() + line * kCacheLineSize;
        ASSERT_TRUE(std::equal(content.begin(), content.end(), at))
            << "line " << line << " not durable after fence";
      }
      flushed_lines.clear();
    } else {
      const uint64_t offset = rng.NextBelow(64 * 1024);
      model.Clflush(offset);
      flushed_lines.erase(LineIndex(offset));
      // clflush must be durable immediately.
      auto durable = model.PowerFailImage();
      std::vector<uint8_t> visible(kCacheLineSize);
      model.Load(LineBase(offset), visible);
      const uint8_t* at = durable.data() + LineBase(offset);
      ASSERT_TRUE(std::equal(visible.begin(), visible.end(), at));
    }
  }
}

TEST_P(ModelPropertyTest, GracefulImageMatchesVisibleState) {
  DeterministicRandom rng(GetParam() ^ 0x5555);
  PersistencyModel model(16 * 1024);
  for (int step = 0; step < 1000; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    const uint64_t offset = rng.NextBelow(16 * 1024 - 16);
    if (action < 6) {
      uint64_t value = rng.Next();
      model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 7) {
      uint64_t value = rng.Next();
      model.NtStore(offset & ~7ull, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 9) {
      model.Clwb(offset);
    } else {
      model.Fence();
    }
  }
  // The graceful image must equal the byte-wise visible state.
  auto graceful = model.GracefulImage();
  std::vector<uint8_t> visible(16 * 1024);
  model.Load(0, visible);
  EXPECT_EQ(graceful, visible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(PmPool, EventsArePublished) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  pool.WriteU64(0, 1);
  pool.Clwb(0);
  pool.Sfence();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kStore);
  EXPECT_EQ(trace.events()[1].kind, EventKind::kClwb);
  EXPECT_EQ(trace.events()[2].kind, EventKind::kSfence);
  EXPECT_EQ(trace.events()[0].seq, 0u);
  EXPECT_EQ(trace.events()[2].seq, 2u);
}

TEST(PmPool, DisabledHubSuppressesEvents) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  {
    ScopedInstrumentationOff off(pool.hub());
    pool.WriteU64(0, 1);
    pool.PersistRange(0, 8);
  }
  EXPECT_EQ(trace.size(), 0u);
  pool.WriteU64(8, 2);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(PmPool, PersistRangeFlushesEveryLine) {
  PmPool pool(4096);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  std::vector<uint8_t> data(130, 1);
  pool.Write(60, data.data(), data.size());  // spans 4 lines (60..190)
  pool.PersistRange(60, data.size());
  uint64_t clwbs = 0, fences = 0;
  for (const PmEvent& ev : trace.events()) {
    clwbs += ev.kind == EventKind::kClwb ? 1 : 0;
    fences += ev.kind == EventKind::kSfence ? 1 : 0;
  }
  EXPECT_EQ(clwbs, 3u);  // lines 0,1,2 hold bytes 60..189
  EXPECT_EQ(fences, 1u);
  // Durable after the fence.
  auto durable = pool.PowerFailImage();
  EXPECT_EQ(durable[60], 1);
  EXPECT_EQ(durable[189], 1);
}

TEST(PmPool, SaveAndLoadRoundTripsDurableStateOnly) {
  PmPool pool(4096);
  pool.WriteU64(0, 111);
  pool.PersistRange(0, 8);
  pool.WriteU64(8, 222);  // not persisted
  const std::string path = ::testing::TempDir() + "/pool.img";
  ASSERT_TRUE(pool.SaveToFile(path));
  PmPool loaded(1);
  ASSERT_TRUE(PmPool::LoadFromFile(path, &loaded));
  EXPECT_EQ(loaded.ReadU64(0), 111u);
  EXPECT_EQ(loaded.ReadU64(8), 0u);
}

TEST(PmPool, FromImageStartsWithEmptyVolatileState) {
  PmPool pool(4096);
  pool.WriteU64(0, 5);
  auto image = pool.GracefulImage();
  PmPool recovered = PmPool::FromImage(std::move(image));
  EXPECT_EQ(recovered.ReadU64(0), 5u);
  EXPECT_EQ(recovered.model().dirty_line_count(), 0u);
  EXPECT_EQ(recovered.model().wpq_line_count(), 0u);
}

// A recovery check builds one model over the lane's medium and the oracle
// run takes microseconds, so a model must not allocate its cache and WPQ
// tables until something lands in them: loads and fences allocate nothing.
TEST(PersistencyModel, ModelOverAMediumAllocatesNoTableBeforeItsFirstStore) {
  PoolMedium medium(8192);
  const uint64_t value = 0x5eed;
  medium.Write(64, &value, sizeof(value));
  PersistencyModel model = PersistencyModel::FromMedium(&medium);
  EXPECT_EQ(model.table_capacity(), 0u);
  EXPECT_EQ(model.LoadU64(64), value);
  model.Fence();
  EXPECT_FALSE(model.IsLineDirty(1));
  EXPECT_TRUE(model.DirtyLines().empty());
  EXPECT_EQ(model.table_capacity(), 0u);
  const uint64_t next = value + 1;
  model.Store(64, {reinterpret_cast<const uint8_t*>(&next), sizeof(next)});
  EXPECT_GT(model.table_capacity(), 0u);
  EXPECT_EQ(model.LoadU64(64), next);
}

// -- PoolMedium ---------------------------------------------------------------

// The medium's two invariants: every byte outside the footprint is zero, and
// the footprint digest equals the full-image reference digest.
void ExpectFootprintInvariants(const PoolMedium& medium) {
  std::vector<bool> written((medium.size() + kMediumPageSize - 1) /
                            kMediumPageSize);
  for (const uint32_t page : medium.pages()) {
    written[page] = true;
  }
  for (size_t at = 0; at < medium.size(); ++at) {
    if (!written[at / kMediumPageSize]) {
      ASSERT_EQ(medium.data()[at], 0) << "unmarked write at " << at;
    }
  }
  EXPECT_EQ(medium.Digest(),
            ComputeContentDigest(medium.data(), medium.size()));
}

// Random writes, Clear and CopyFrom on two media, mirrored on contiguous
// reference buffers. The sizes cover whole pages, a partial last page and a
// partial last line.
class PoolMediumProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(PoolMediumProperty, FootprintOperationsMatchContiguousBytes) {
  const size_t size = GetParam();
  DeterministicRandom rng(size);
  PoolMedium media[2] = {PoolMedium(size), PoolMedium(size)};
  std::vector<uint8_t> refs[2] = {std::vector<uint8_t>(size, 0),
                                  std::vector<uint8_t>(size, 0)};
  for (int step = 0; step < 300; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    const int which = static_cast<int>(rng.NextBelow(2));
    PoolMedium& medium = media[which];
    std::vector<uint8_t>& ref = refs[which];
    if (action < 6) {
      const size_t len = 1 + rng.NextBelow(200);
      const size_t offset = rng.NextBelow(size - len + 1);
      std::vector<uint8_t> bytes(len);
      for (uint8_t& byte : bytes) {
        // A third of the bytes are zero: zero writes still mark pages.
        byte = rng.NextBelow(3) == 0 ? 0 : static_cast<uint8_t>(rng.Next());
      }
      medium.Write(offset, bytes.data(), len);
      std::memcpy(ref.data() + offset, bytes.data(), len);
    } else if (action < 7) {
      medium.Clear();
      std::fill(ref.begin(), ref.end(), 0);
      EXPECT_TRUE(medium.pages().empty());
    } else {
      medium.CopyFrom(media[1 - which]);
      ref = refs[1 - which];
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(media[i] == refs[i]) << "step " << step;
      ExpectFootprintInvariants(media[i]);
    }
    ASSERT_EQ(media[0] == media[1], refs[0] == refs[1]);
  }
  // A scanned load and a copy land on the same bytes and digest.
  const PoolMedium loaded = PoolMedium::FromBytes(refs[0]);
  EXPECT_TRUE(loaded == media[0]);
  ExpectFootprintInvariants(loaded);
  const PoolMedium copy(media[1]);
  EXPECT_TRUE(copy == refs[1]);
  EXPECT_EQ(copy.Digest(), media[1].Digest());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolMediumProperty,
                         ::testing::Values(3 * 4096, 4160, 4096 + 40));

// The literals are the full-image reference digests of two fixed 16 MiB
// images. Footprint digests must reproduce them bit for bit. Digests are
// relative to the all-zero pool, so the zero image's is {0,0}; each
// literal equals the absolute digest earlier builds wrote (the *Absolute
// literals) XOR the absolute digest of the zero pool, the same constant
// for every image of this size, so digest equality is unchanged.
TEST(PoolMedium, DigestsMatchPinnedLiterals) {
  constexpr size_t kPool = 16u << 20;
  constexpr char kZeroPoolAbsolute[] = "bed61695608cb7173428a9e39b47c454";
  constexpr char kPatternAbsolute[] = "3e21cad750b0baf891f7be57070e046e";
  constexpr char kZeroPool[] = "00000000000000000000000000000000";
  constexpr char kPattern[] = "80f7dc42303c0defa5df17b49c49c03a";
  const auto parse = [](const char* hex) {
    ImageDigest digest;
    EXPECT_TRUE(ImageDigest::FromHex(hex, &digest)) << hex;
    return digest;
  };
  const ImageDigest zero_absolute = parse(kZeroPoolAbsolute);
  for (const auto& [relative, absolute] :
       {std::pair{kZeroPool, kZeroPoolAbsolute},
        std::pair{kPattern, kPatternAbsolute}}) {
    const ImageDigest moved = parse(absolute);
    EXPECT_EQ(parse(relative),
              (ImageDigest{moved.lo ^ zero_absolute.lo,
                           moved.hi ^ zero_absolute.hi}))
        << relative;
  }

  std::vector<uint8_t> image(kPool, 0);
  PoolMedium medium(kPool);
  EXPECT_EQ(ComputeContentDigest(image.data(), kPool).Hex(), kZeroPool);
  EXPECT_EQ(medium.Digest().Hex(), kZeroPool);
  EXPECT_EQ(medium.Digest(), ImageDigest{});
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t offset = (i * 40503u * 64 + (i % 7) * 8) % (kPool - 8);
    const uint64_t value = DigestMix64(i + 1);
    std::memcpy(image.data() + offset, &value, sizeof(value));
    medium.Write(offset, &value, sizeof(value));
  }
  const uint64_t tail = 0x0123456789abcdefull;
  std::memcpy(image.data() + kPool - 8, &tail, sizeof(tail));
  medium.Write(kPool - 8, &tail, sizeof(tail));
  EXPECT_EQ(ComputeContentDigest(image.data(), kPool).Hex(), kPattern);
  EXPECT_EQ(medium.Digest().Hex(), kPattern);
}

// A fresh replay cursor's image is the zero pool, and so is its digest;
// stores that zero their lines again bring it back there.
TEST(PoolMedium, FreshCursorDigestsToZero) {
  constexpr size_t kPool = 16u << 20;
  const uint64_t values[] = {0x1234, 0x5678, 0, 0};
  TraceStreamWriter writer(/*with_payloads=*/true);
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    PmEvent event;
    event.kind = EventKind::kStore;
    event.seq = seq;
    event.offset = (seq % 2) * 4096;  // two lines, written twice each
    event.size = sizeof(uint64_t);
    event.payload = reinterpret_cast<const uint8_t*>(&values[seq - 1]);
    writer.OnEvent(event);
  }
  const TraceStream trace = writer.Finish();
  ReplayCursor cursor(trace, kPool, /*track_digest=*/true);
  EXPECT_EQ(cursor.Digest(), ImageDigest{});
  const PoolMedium& written = cursor.AdvanceTo(2);
  EXPECT_NE(cursor.Digest(), ImageDigest{});
  EXPECT_EQ(cursor.Digest(), written.Digest());
  cursor.AdvanceTo(4);
  EXPECT_EQ(cursor.Digest(), ImageDigest{});
  EXPECT_EQ(cursor.image().Digest(), ImageDigest{});
}

// GracefulImageInto() writes exactly GracefulImage() into a medium that
// held a stale image with a disjoint footprint (a lane medium after a prior
// check), digest included, and leaves the model as it was: a paused
// execution carries on from the same state.
TEST_P(ModelPropertyTest, GracefulImageIntoWritesTheGracefulImage) {
  DeterministicRandom rng(GetParam() ^ 0xaaaa);
  constexpr size_t kSize = 32 * 1024;
  constexpr size_t kModelBytes = kSize / 2;  // the model's pages
  PoolMedium out(kSize);
  for (int i = 0; i < 64; ++i) {  // the stale image: upper pages only
    const uint64_t stale = rng.Next() | 1;
    out.Write(kModelBytes + rng.NextBelow(kModelBytes - 8), &stale,
              sizeof(stale));
  }
  PersistencyModel model(kSize);
  for (int step = 0; step < 1000; ++step) {
    const int action = static_cast<int>(rng.NextBelow(10));
    const uint64_t offset = rng.NextBelow(kModelBytes - 16);
    uint64_t value = rng.Next();
    if (action < 6) {
      model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 7) {
      model.NtStore(offset & ~7ull,
                    {reinterpret_cast<const uint8_t*>(&value), 8});
    } else if (action < 9) {
      model.Clwb(offset);
    } else {
      model.Fence();
    }
  }
  ASSERT_GT(model.dirty_line_count() + model.wpq_line_count(), 0u);
  const std::vector<uint8_t> graceful = model.GracefulImage();
  const std::vector<uint8_t> durable(model.durable_bytes().begin(),
                                     model.durable_bytes().end());
  const size_t dirty = model.dirty_line_count();
  const size_t pending = model.wpq_line_count();
  model.GracefulImageInto(&out);
  EXPECT_TRUE(out == graceful);
  EXPECT_EQ(out.Digest(),
            ComputeContentDigest(graceful.data(), graceful.size()));
  ExpectFootprintInvariants(out);
  EXPECT_EQ(model.GracefulImage(), graceful);
  EXPECT_TRUE(std::equal(durable.begin(), durable.end(),
                         model.durable_bytes().begin(),
                         model.durable_bytes().end()));
  EXPECT_EQ(model.dirty_line_count(), dirty);
  EXPECT_EQ(model.wpq_line_count(), pending);
}

}  // namespace
}  // namespace mumak
