// Content-addressed verdict deduplication (src/core/verdict_cache.h).
// Three layers under test:
//   1. the property that matters — dedup on vs off produces identical
//      unique-bug reports across targets, strategies and worker counts;
//   2. the cache object itself — hit/miss/collision semantics, including
//      the --verify-dedup byte-compare guard against digest collisions;
//   3. persistence — round-trip through the MJN1 cache file, stale trace
//      fingerprints, unversioned (pre-zero-relative digest) headers,
//      foreign magics and MJN2 rejected, a CRC-failed record
//      skipped and a torn tail cut, each with a warning, keeping the
//      intact records (the campaign journal's record reader).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/core/verdict_cache.h"
#include "src/observability/flat_json.h"
#include "src/observability/journal.h"
#include "src/pmem/image_digest.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

TargetFactory Factory(const std::string& name, const TargetOptions& options) {
  return [name, options]() -> TargetPtr { return CreateTarget(name, options); };
}

Report RunCampaign(const std::string& target, const TargetOptions& options,
                   const WorkloadSpec& spec, InjectionStrategy strategy,
                   uint32_t workers, bool image_dedup,
                   FaultInjectionStats* stats,
                   const std::string& cache_path = "") {
  FaultInjectionOptions fi;
  fi.strategy = strategy;
  fi.workers = workers;
  fi.image_dedup = image_dedup;
  fi.verdict_cache_path = cache_path;
  FaultInjectionEngine engine(Factory(target, options), spec, fi);
  FailurePointTree tree = engine.Profile();
  return engine.InjectAll(&tree, stats);
}

void ExpectSameFindings(const Report& a, const Report& b) {
  ASSERT_EQ(a.findings().size(), b.findings().size());
  for (size_t i = 0; i < a.findings().size(); ++i) {
    EXPECT_EQ(a.findings()[i].detail, b.findings()[i].detail);
    EXPECT_EQ(a.findings()[i].location, b.findings()[i].location);
    EXPECT_EQ(a.findings()[i].seq, b.findings()[i].seq);
    EXPECT_EQ(a.findings()[i].kind, b.findings()[i].kind);
  }
}

// -- 1. The dedup property across real campaigns -----------------------------

// Dedup on vs off: byte-identical reports. In a fresh run the first
// occurrence of each unique oracle outcome is always a cache miss (a hit
// implies an earlier identical image whose finding already won report
// dedup), so no finding ever carries dedup_of and the rendered reports
// match byte for byte.
TEST(DedupProperty, OnVsOffIdenticalReports) {
  const struct {
    const char* target;
    const char* bug;
  } cases[] = {
      {"btree", "btree.split_unlogged"},
      {"hashmap_tx", "hashmap_tx.prepend_unlogged"},
      {"fast_fair", "ff.c1_sibling_link_first"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.target);
    TargetOptions options;
    options.pmdk_version = PmdkVersion::k16;
    options.bugs = {c.bug};
    WorkloadSpec spec;
    spec.operations = 300;
    spec.key_space = 50;

    for (const InjectionStrategy strategy :
         {InjectionStrategy::kReExecute, InjectionStrategy::kReplay}) {
      SCOPED_TRACE(strategy == InjectionStrategy::kReplay ? "replay"
                                                          : "reexec");
      FaultInjectionStats with_stats, without_stats;
      const Report with = RunCampaign(c.target, options, spec, strategy, 1,
                                      /*image_dedup=*/true, &with_stats);
      const Report without = RunCampaign(c.target, options, spec, strategy,
                                         1, /*image_dedup=*/false,
                                         &without_stats);
      EXPECT_GT(with.BugCount(), 0u) << "bug " << c.bug << " not triggered";
      EXPECT_EQ(with_stats.injections, without_stats.injections);
      ExpectSameFindings(with, without);
      // Byte identity, not just field identity: dedup_of must be elided.
      EXPECT_EQ(with.Render(), without.Render());
      EXPECT_EQ(with.RenderJson(), without.RenderJson());
      for (const Finding& f : with.findings()) {
        EXPECT_TRUE(f.dedup_of.empty());
      }
      // Accounting: every injection was either a fresh oracle run or a
      // cache hit; dedup-off runs count neither.
      EXPECT_EQ(with_stats.distinct_images + with_stats.dedup_hits,
                with_stats.injections);
      EXPECT_GT(with_stats.dedup_hits, 0u)
          << "flush/fence-adjacent failure points should share images";
      EXPECT_EQ(without_stats.distinct_images, 0u);
      EXPECT_EQ(without_stats.dedup_hits, 0u);
    }
  }
}

// The same property under parallel replay (the producer/consumer path) and
// the unique-bug set under --verify-dedup (which must change nothing on
// collision-free campaigns).
TEST(DedupProperty, ParallelAndVerifyModesPreserveUniqueBugs) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  FaultInjectionStats off_stats;
  const Report off = RunCampaign("btree", options, spec,
                                 InjectionStrategy::kReplay, 4,
                                 /*image_dedup=*/false, &off_stats);

  FaultInjectionStats on_stats;
  const Report on = RunCampaign("btree", options, spec,
                                InjectionStrategy::kReplay, 4,
                                /*image_dedup=*/true, &on_stats);

  FaultInjectionOptions verify_fi;
  verify_fi.strategy = InjectionStrategy::kReplay;
  verify_fi.workers = 4;
  verify_fi.verify_dedup = true;
  FaultInjectionEngine verify_engine(Factory("btree", options), spec,
                                     verify_fi);
  FailurePointTree verify_tree = verify_engine.Profile();
  FaultInjectionStats verify_stats;
  const Report verified = verify_engine.InjectAll(&verify_tree,
                                                  &verify_stats);

  auto unique_bugs = [](const Report& report) {
    std::vector<std::string> bugs;
    for (const Finding& f : report.findings()) {
      bugs.push_back(f.detail);
    }
    std::sort(bugs.begin(), bugs.end());
    return bugs;
  };
  EXPECT_GT(off.BugCount(), 0u);
  EXPECT_EQ(unique_bugs(off), unique_bugs(on));
  EXPECT_EQ(unique_bugs(off), unique_bugs(verified));
  // Honest digests collide never in practice; verify mode must agree.
  EXPECT_EQ(verify_stats.dedup_collisions, 0u);
  EXPECT_GT(verify_stats.dedup_hits, 0u);
}

// -- 2. The cache object -----------------------------------------------------

// Lookups from a failure point after every sample entry's seq.
constexpr uint64_t kLaterPoint = ~uint64_t{0};

JournalVerdict SampleVerdict(const std::string& detail, uint64_t seq) {
  JournalVerdict verdict;
  verdict.seq = seq;
  verdict.status = "unrecoverable";
  verdict.detail = detail;
  return verdict;
}

TEST(VerdictCacheTest, MissInsertHit) {
  VerdictCache cache;
  const std::vector<uint8_t> image(256, 0xab);
  const ImageDigest digest = ComputeContentDigest(image.data(), image.size());

  JournalVerdict out;
  EXPECT_EQ(cache.Lookup(digest, kLaterPoint, image.data(), image.size(),
                         &out),
            VerdictCache::Outcome::kMiss);
  cache.Insert(digest, SampleVerdict("lost keys", 42), image.data(),
               image.size());
  EXPECT_EQ(cache.Lookup(digest, kLaterPoint, image.data(), image.size(),
                         &out),
            VerdictCache::Outcome::kHit);
  EXPECT_EQ(out.detail, "lost keys");
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.status, "unrecoverable");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserted(), 1u);
  // First insert wins: a duplicate insert does not replace the entry.
  cache.Insert(digest, SampleVerdict("other", 99), image.data(), image.size());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserted(), 1u);
  cache.Lookup(digest, kLaterPoint, image.data(), image.size(), &out);
  EXPECT_EQ(out.seq, 42u);
}

// The trust rule: an entry inserted this run is honoured only at a later
// point; a loaded one at any point.
TEST(VerdictCacheTest, InsertedEntriesHonourOnlyLaterPoints) {
  const std::vector<uint8_t> image(64, 0x11);
  const ImageDigest digest = ComputeContentDigest(image.data(), image.size());
  VerdictCache cache;
  cache.Insert(digest, SampleVerdict("d", 50), nullptr, 0);
  JournalVerdict out;
  EXPECT_EQ(cache.Lookup(digest, 49, nullptr, 0, &out),
            VerdictCache::Outcome::kLater);
  EXPECT_EQ(cache.Lookup(digest, 50, nullptr, 0, &out),
            VerdictCache::Outcome::kLater);
  EXPECT_EQ(cache.Lookup(digest, 51, nullptr, 0, &out),
            VerdictCache::Outcome::kHit);

  VerdictCache loaded;
  loaded.Preload(digest, SampleVerdict("d", 50));
  EXPECT_EQ(loaded.Lookup(digest, 1, nullptr, 0, &out),
            VerdictCache::Outcome::kHit);
  EXPECT_EQ(loaded.loaded(), 1u);
  EXPECT_EQ(loaded.inserted(), 0u);
  ASSERT_EQ(loaded.LoadedEntries().size(), 1u);
  EXPECT_EQ(loaded.LoadedEntries()[0].first, digest);
}

// A synthetic 128-bit collision: two different images filed under the same
// digest. Verify mode must detect the byte mismatch and run the oracle
// instead of attributing the wrong verdict; non-verify mode (documented
// trade-off) trusts the digest.
TEST(VerdictCacheTest, VerifyModeCatchesSyntheticCollision) {
  const std::vector<uint8_t> image_a(512, 0x01);
  std::vector<uint8_t> image_b(512, 0x01);
  image_b[300] = 0x02;  // same size, different bytes
  const ImageDigest digest =
      ComputeContentDigest(image_a.data(), image_a.size());
  ASSERT_NE(digest, ComputeContentDigest(image_b.data(), image_b.size()));

  VerdictCache verify(true);
  JournalVerdict out;
  EXPECT_EQ(verify.Lookup(digest, kLaterPoint, image_a.data(),
                          image_a.size(), &out),
            VerdictCache::Outcome::kMiss);
  verify.Insert(digest, SampleVerdict("verdict A", 1), image_a.data(),
                image_a.size());
  // Honest hit: same digest, same bytes.
  EXPECT_EQ(verify.Lookup(digest, kLaterPoint, image_a.data(),
                          image_a.size(), &out),
            VerdictCache::Outcome::kHit);
  // Forged collision: same digest, different bytes -> collision, not hit.
  EXPECT_EQ(verify.Lookup(digest, kLaterPoint, image_b.data(),
                          image_b.size(), &out),
            VerdictCache::Outcome::kCollision);
  // Different size with equal digest is also a collision.
  EXPECT_EQ(verify.Lookup(digest, kLaterPoint, image_a.data(),
                          image_a.size() - 64, &out),
            VerdictCache::Outcome::kCollision);
  EXPECT_EQ(verify.collisions(), 2u);

  // Non-verify mode cannot tell: the digest is the identity.
  VerdictCache trusting(false);
  trusting.Insert(digest, SampleVerdict("verdict A", 1), nullptr, 0);
  EXPECT_EQ(trusting.Lookup(digest, kLaterPoint, image_b.data(),
                            image_b.size(), &out),
            VerdictCache::Outcome::kHit);
}

// -- 3. Persistence ----------------------------------------------------------

constexpr uint64_t kFingerprint = 0x1122334455667788ull;

std::string CachePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

ImageDigest SampleDigest(int i) {
  std::vector<uint8_t> image(128, static_cast<uint8_t>(i + 1));
  return ComputeContentDigest(image.data(), image.size());
}

// VerdictCache owns a mutex (non-copyable), so helpers populate in place.
// Entry 1 is the one unrecoverable verdict; entry 2 carries every optional
// field.
void Populate(VerdictCache* cache) {
  for (int i = 0; i < 3; ++i) {
    JournalVerdict verdict =
        SampleVerdict("detail " + std::to_string(i), 10 + i);
    verdict.status = i == 1 ? "unrecoverable" : "ok";
    if (i == 2) {
      verdict.status = "crashed";
      verdict.timed_out = true;
      verdict.wall_us = 1234;
      verdict.signal_name = "SIGSEGV";
    }
    cache->Insert(SampleDigest(i), verdict, nullptr, 0);
  }
}

void SavePopulated(const std::string& path) {
  VerdictCache cache;
  Populate(&cache);
  std::string error;
  ASSERT_TRUE(cache.Save(path, kFingerprint, &error)) << error;
}

// Offset and length of the MJN1 record whose payload contains `needle`.
std::pair<size_t, size_t> RecordHolding(const std::vector<uint8_t>& bytes,
                                        const std::string& needle) {
  size_t pos = 4;  // after the magic
  while (pos + 8 <= bytes.size()) {
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + pos, sizeof(length));
    const std::string payload(bytes.begin() + pos + 8,
                              bytes.begin() + pos + 8 + length);
    if (payload.find(needle) != std::string::npos) {
      return {pos, 8 + length};
    }
    pos += 8 + length;
  }
  ADD_FAILURE() << "no record holds " << needle;
  return {0, 0};
}

TEST(VerdictCachePersistence, RoundTrip) {
  const std::string path = CachePath("roundtrip.mvc");
  std::remove(path.c_str());
  SavePopulated(path);

  VerdictCache loaded;
  std::string warning;
  ASSERT_TRUE(loaded.Load(path, kFingerprint, &warning));
  EXPECT_TRUE(warning.empty()) << warning;
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.loaded(), 3u);
  EXPECT_EQ(loaded.inserted(), 0u);

  // Every entry survives with all fields intact, and is honoured at any
  // point (a loaded entry).
  std::vector<uint8_t> image(128, 3);
  JournalVerdict out;
  ASSERT_EQ(loaded.Lookup(ComputeContentDigest(image.data(), image.size()),
                          1, image.data(), image.size(), &out),
            VerdictCache::Outcome::kHit);
  EXPECT_EQ(out.detail, "detail 2");
  EXPECT_EQ(out.seq, 12u);
  EXPECT_EQ(out.status, "crashed");
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.wall_us, 1234u);
  EXPECT_EQ(out.signal_name, "SIGSEGV");
}

TEST(VerdictCachePersistence, MissingFileIsAColdCacheNotAnError) {
  VerdictCache cache;
  std::string warning;
  EXPECT_TRUE(cache.Load(CachePath("does_not_exist.mvc"), kFingerprint,
                         &warning));
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCachePersistence, StaleFingerprintRejected) {
  const std::string path = CachePath("stale.mvc");
  SavePopulated(path);

  VerdictCache cache;
  std::string warning;
  // The trace changed (different workload, seed, target...): every cached
  // verdict is suspect, so the whole file is rejected.
  EXPECT_FALSE(cache.Load(path, kFingerprint + 1, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.loaded(), 0u);
}

TEST(VerdictCachePersistence, GarbageAndWrongMagicRejected) {
  const std::string path = CachePath("garbage.mvc");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a verdict cache";
  }
  VerdictCache cache;
  std::string warning;
  EXPECT_FALSE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);
}

// MJN2 means the framing changed: the file is refused, not half-read.
TEST(VerdictCachePersistence, Mjn2Refused) {
  const std::string path = CachePath("future.mvc");
  SavePopulated(path);
  std::vector<uint8_t> bytes = ReadBytes(path);
  bytes[3] = '2';
  WriteBytes(path, bytes);
  VerdictCache cache;
  std::string warning;
  EXPECT_FALSE(cache.Load(path, kFingerprint, &warning));
  EXPECT_NE(warning.find("MJN2"), std::string::npos) << warning;
  EXPECT_EQ(cache.size(), 0u);
}

// A cache an older build wrote (MVC1: magic, version 1, fingerprint,
// count, then one fixed-layout entry with no checksum) starts cold with a
// warning; the campaign's Save then overwrites it.
TEST(VerdictCachePersistence, OlderBuildsFileStartsCold) {
  const std::string path = CachePath("older_build.mvc");
  std::vector<uint8_t> bytes;
  auto put = [&bytes](uint64_t value, size_t width) {
    for (size_t i = 0; i < width; ++i) {
      bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  put(0x3143564du, 4);  // "MVC1"
  put(1, 4);
  put(kFingerprint, 8);
  put(1, 8);
  put(1, 8);   // digest lo
  put(2, 8);   // digest hi
  put(1, 4);   // status: unrecoverable
  put(0, 4);   // flags
  put(0, 8);   // wall
  put(7, 8);   // first seq
  put(0, 4);   // detail length
  put(0, 4);   // signal length
  WriteBytes(path, bytes);
  VerdictCache cache;
  std::string warning;
  EXPECT_FALSE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);
}

// An MJN1 cache written before digests became zero-relative: its header
// has no version, and its digests name no image this build computes, so
// it starts cold through the stale-file warning instead of loading
// entries no lookup can hit.
TEST(VerdictCachePersistence, PreZeroRelativeDigestFileStartsCold) {
  const std::string path = CachePath("absolute_digests.mvc");
  std::string bytes(kJournalMagic, sizeof(kJournalMagic));
  bytes += FrameJournalRecord(JsonObject()
                                  .Str("type", "verdict_cache")
                                  .Hex64("fingerprint", kFingerprint)
                                  .Finish());
  bytes += FrameJournalRecord(
      VerdictCache::CacheRecord(SampleDigest(0), SampleVerdict("old", 10)));
  WriteBytes(path, std::vector<uint8_t>(bytes.begin(), bytes.end()));
  VerdictCache cache;
  std::string warning;
  EXPECT_FALSE(cache.Load(path, kFingerprint, &warning));
  EXPECT_NE(warning.find("stale"), std::string::npos) << warning;
  EXPECT_NE(warning.find("starting cold"), std::string::npos) << warning;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.loaded(), 0u);
}

TEST(VerdictCachePersistence, TornTailKeepsTheIntactPrefix) {
  const std::string path = CachePath("truncated.mvc");
  SavePopulated(path);

  // Chop the file mid-way through the last record.
  std::vector<uint8_t> bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 30u);
  bytes.resize(bytes.size() - 10);
  WriteBytes(path, bytes);

  VerdictCache cache;
  std::string warning;
  EXPECT_TRUE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  // The intact prefix survives; the torn record does not.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.loaded(), cache.size());
}

TEST(VerdictCachePersistence, OversizedRecordLengthStopsParsing) {
  const std::string path = CachePath("oversized.mvc");
  SavePopulated(path);
  std::vector<uint8_t> bytes = ReadBytes(path);
  // The first entry's record length (the record after the fingerprint
  // record) past the record cap: parsing stops there, nothing is sized
  // from it.
  uint32_t fingerprint_record = 0;
  std::memcpy(&fingerprint_record, bytes.data() + 4, sizeof(uint32_t));
  const uint32_t huge = 0x7fffffff;
  std::memcpy(bytes.data() + 4 + 8 + fingerprint_record, &huge, sizeof(huge));
  WriteBytes(path, bytes);
  VerdictCache cache;
  std::string warning;
  EXPECT_TRUE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);  // first entry was corrupt: empty prefix
  EXPECT_EQ(cache.loaded(), cache.size());
}

// One flipped byte inside the unrecoverable entry's record: its CRC fails,
// so Load warns, skips that record and keeps the other two. The entry is
// never read back, let alone as "ok".
TEST(VerdictCachePersistence, FlippedByteSkipsOnlyThatEntry) {
  const std::string path = CachePath("flipped.mvc");
  SavePopulated(path);
  const std::vector<uint8_t> saved = ReadBytes(path);
  const auto [at, length] = RecordHolding(saved, "\"unrecoverable\"");
  ASSERT_GT(length, 8u);
  // Every byte of the record's payload, and its length and CRC fields.
  for (size_t offset = 0; offset < length; ++offset) {
    std::vector<uint8_t> bytes = saved;
    bytes[at + offset] ^= 0x01;
    WriteBytes(path, bytes);
    VerdictCache cache;
    std::string warning;
    EXPECT_TRUE(cache.Load(path, kFingerprint, &warning)) << offset;
    EXPECT_FALSE(warning.empty()) << offset;
    JournalVerdict out;
    EXPECT_NE(cache.Lookup(SampleDigest(1), kLaterPoint, nullptr, 0, &out),
              VerdictCache::Outcome::kHit)
        << "flip at " << offset;
    for (const auto& [digest, verdict] : cache.LoadedEntries()) {
      EXPECT_NE(verdict.status, "unrecoverable") << offset;
    }
    if (offset >= 8) {  // a payload flip costs exactly that record
      EXPECT_EQ(cache.size(), 2u) << offset;
      EXPECT_NE(warning.find("CRC mismatch"), std::string::npos) << warning;
    }
  }
}

// -- Cross-run end-to-end ----------------------------------------------------

// Second campaign over an unchanged target: every verdict comes from the
// persistent cache (no oracle runs), findings identical modulo dedup_of
// provenance.
TEST(VerdictCachePersistence, WarmRunSkipsEveryOracleInvocation) {
  const std::string path = CachePath("warm_e2e.mvc");
  std::remove(path.c_str());
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  FaultInjectionStats cold, warm;
  const Report first = RunCampaign("btree", options, spec,
                                   InjectionStrategy::kReplay, 1,
                                   /*image_dedup=*/true, &cold, path);
  EXPECT_GT(first.BugCount(), 0u);
  EXPECT_EQ(cold.cache_loaded, 0u);
  EXPECT_GT(cold.cache_saved, 0u);
  EXPECT_EQ(cold.cache_saved, cold.distinct_images);

  const Report second = RunCampaign("btree", options, spec,
                                    InjectionStrategy::kReplay, 1,
                                    /*image_dedup=*/true, &warm, path);
  EXPECT_EQ(warm.cache_loaded, cold.cache_saved);
  // Unchanged trace: zero fresh oracle runs, every verdict attributed.
  EXPECT_EQ(warm.distinct_images, 0u);
  EXPECT_EQ(warm.dedup_hits, warm.injections);
  EXPECT_EQ(warm.injections, cold.injections);

  // Same findings; warm-run findings carry cross-run provenance.
  ExpectSameFindings(first, second);
  for (const Finding& f : first.findings()) {
    EXPECT_TRUE(f.dedup_of.empty());
  }
  for (const Finding& f : second.findings()) {
    EXPECT_FALSE(f.dedup_of.empty());
    EXPECT_NE(f.dedup_of.find("image "), std::string::npos);
  }

  // A changed workload invalidates the fingerprint: the stale cache is
  // rejected (with a warning) and the campaign runs cold again.
  WorkloadSpec changed = spec;
  changed.seed = spec.seed + 1;
  FaultInjectionStats invalidated;
  RunCampaign("btree", options, changed, InjectionStrategy::kReplay, 1,
              /*image_dedup=*/true, &invalidated, path);
  EXPECT_EQ(invalidated.cache_loaded, 0u);
  EXPECT_GT(invalidated.distinct_images, 0u);
}

// A warm campaign over a cache file with one flipped byte inside an
// unrecoverable entry's record: it warns, runs the oracle again for the
// first check of that entry's image (later twins hit the fresh entry), and
// reports the cold run's findings.
TEST(VerdictCachePersistence, FlippedEntryRerunsItsChecks) {
  const std::string path = CachePath("flipped_e2e.mvc");
  std::remove(path.c_str());
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 250;
  spec.key_space = 40;

  FaultInjectionStats cold;
  const Report first = RunCampaign("btree", options, spec,
                                   InjectionStrategy::kReplay, 1,
                                   /*image_dedup=*/true, &cold, path);
  ASSERT_GT(first.BugCount(), 0u);
  std::vector<uint8_t> bytes = ReadBytes(path);
  const auto [at, length] = RecordHolding(bytes, "\"unrecoverable\"");
  ASSERT_GT(length, 8u);
  bytes[at + 8 + length / 2] ^= 0x01;
  WriteBytes(path, bytes);

  FaultInjectionStats warm;
  testing::internal::CaptureStderr();
  const Report second = RunCampaign("btree", options, spec,
                                    InjectionStrategy::kReplay, 1,
                                    /*image_dedup=*/true, &warm, path);
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_NE(stderr_text.find("CRC mismatch"), std::string::npos)
      << stderr_text;
  EXPECT_EQ(warm.cache_loaded, cold.cache_saved - 1);
  EXPECT_EQ(warm.distinct_images, 1u);
  EXPECT_EQ(warm.dedup_hits, warm.injections - 1);
  EXPECT_EQ(warm.cache_saved, cold.cache_saved);
  ExpectSameFindings(first, second);
}

}  // namespace
}  // namespace mumak
