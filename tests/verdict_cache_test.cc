// Content-addressed verdict deduplication (src/core/verdict_cache.h).
// Three layers under test:
//   1. the property that matters — dedup on vs off produces identical
//      unique-bug reports across targets, strategies and worker counts;
//   2. the cache object itself — hit/miss/collision semantics, including
//      the --verify-dedup byte-compare guard against digest collisions;
//   3. persistence — round-trip through the versioned binary file, stale
//      trace fingerprints rejected, truncated or corrupt files degraded to
//      a warning plus the cleanly parsed prefix (like the campaign journal
//      reader).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/core/verdict_cache.h"
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

VerdictCacheEntry SampleEntry(const std::string& detail, uint64_t seq) {
  VerdictCacheEntry entry;
  entry.status = static_cast<uint32_t>(RecoveryStatus::kUnrecoverable);
  entry.timed_out = false;
  entry.recovery_wall_us = 0;
  entry.first_seq = seq;
  entry.detail = detail;
  entry.signal_name = "";
  return entry;
}

TEST(VerdictCacheTest, MissInsertHit) {
  VerdictCache cache;
  const std::vector<uint8_t> image(256, 0xab);
  const ImageDigest digest = ComputeContentDigest(image.data(), image.size());

  VerdictCacheEntry out;
  EXPECT_EQ(cache.Lookup(digest, image.data(), image.size(), &out),
            VerdictCache::Outcome::kMiss);
  cache.Insert(digest, SampleEntry("lost keys", 42), image.data(),
               image.size());
  EXPECT_EQ(cache.Lookup(digest, image.data(), image.size(), &out),
            VerdictCache::Outcome::kHit);
  EXPECT_EQ(out.detail, "lost keys");
  EXPECT_EQ(out.first_seq, 42u);
  EXPECT_EQ(out.status,
            static_cast<uint32_t>(RecoveryStatus::kUnrecoverable));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // First insert wins: a duplicate insert does not replace the entry.
  cache.Insert(digest, SampleEntry("other", 99), image.data(), image.size());
  EXPECT_EQ(cache.size(), 1u);
  cache.Lookup(digest, image.data(), image.size(), &out);
  EXPECT_EQ(out.first_seq, 42u);
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
  VerdictCacheEntry out;
  EXPECT_EQ(verify.Lookup(digest, image_a.data(), image_a.size(), &out),
            VerdictCache::Outcome::kMiss);
  verify.Insert(digest, SampleEntry("verdict A", 1), image_a.data(),
                image_a.size());
  // Honest hit: same digest, same bytes.
  EXPECT_EQ(verify.Lookup(digest, image_a.data(), image_a.size(), &out),
            VerdictCache::Outcome::kHit);
  // Forged collision: same digest, different bytes -> collision, not hit.
  EXPECT_EQ(verify.Lookup(digest, image_b.data(), image_b.size(), &out),
            VerdictCache::Outcome::kCollision);
  // Different size with equal digest is also a collision.
  EXPECT_EQ(verify.Lookup(digest, image_a.data(), image_a.size() - 64, &out),
            VerdictCache::Outcome::kCollision);
  EXPECT_EQ(verify.collisions(), 2u);

  // Non-verify mode cannot tell: the digest is the identity.
  VerdictCache trusting(false);
  trusting.Insert(digest, SampleEntry("verdict A", 1), nullptr, 0);
  EXPECT_EQ(trusting.Lookup(digest, image_b.data(), image_b.size(), &out),
            VerdictCache::Outcome::kHit);
}

TEST(VerdictCacheTest, HitEntriesNeverLeakVerifyImages) {
  const std::vector<uint8_t> image(128, 0x7f);
  const ImageDigest digest = ComputeContentDigest(image.data(), image.size());
  VerdictCache cache(true);
  cache.Insert(digest, SampleEntry("d", 3), image.data(), image.size());
  VerdictCacheEntry out;
  ASSERT_EQ(cache.Lookup(digest, image.data(), image.size(), &out),
            VerdictCache::Outcome::kHit);
  EXPECT_TRUE(out.image.empty());
}

// -- 3. Persistence ----------------------------------------------------------

constexpr uint64_t kFingerprint = 0x1122334455667788ull;

std::string CachePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// VerdictCache owns a mutex (non-copyable), so helpers populate in place.
void Populate(VerdictCache* cache) {
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> image(128, static_cast<uint8_t>(i + 1));
    const ImageDigest digest =
        ComputeContentDigest(image.data(), image.size());
    VerdictCacheEntry entry =
        SampleEntry("detail " + std::to_string(i), 10 + i);
    if (i == 2) {
      entry.status = static_cast<uint32_t>(RecoveryStatus::kCrashed);
      entry.timed_out = true;
      entry.recovery_wall_us = 1234;
      entry.signal_name = "SIGSEGV";
    }
    cache->Insert(digest, entry, nullptr, 0);
  }
}

void SavePopulated(const std::string& path) {
  VerdictCache cache;
  Populate(&cache);
  std::string error;
  ASSERT_TRUE(cache.Save(path, kFingerprint, &error)) << error;
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

  // Every entry survives with all fields intact.
  std::vector<uint8_t> image(128, 3);
  VerdictCacheEntry out;
  ASSERT_EQ(loaded.Lookup(ComputeContentDigest(image.data(), image.size()),
                          image.data(), image.size(), &out),
            VerdictCache::Outcome::kHit);
  EXPECT_EQ(out.detail, "detail 2");
  EXPECT_EQ(out.first_seq, 12u);
  EXPECT_EQ(out.status, static_cast<uint32_t>(RecoveryStatus::kCrashed));
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.recovery_wall_us, 1234u);
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

TEST(VerdictCachePersistence, FutureVersionRejected) {
  const std::string path = CachePath("future.mvc");
  SavePopulated(path);
  {
    // Patch the version field (bytes 4..8) to an unknown value.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const uint32_t future = 999;
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  VerdictCache cache;
  std::string warning;
  EXPECT_FALSE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCachePersistence, TruncatedFileKeepsParsedPrefix) {
  const std::string path = CachePath("truncated.mvc");
  SavePopulated(path);

  // Chop the file mid-way through the last entry.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 30u);
  bytes.resize(bytes.size() - 10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  VerdictCache cache;
  std::string warning;
  EXPECT_TRUE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  // The cleanly parsed prefix survives; the mangled tail does not.
  EXPECT_GT(cache.size(), 0u);
  EXPECT_LT(cache.size(), 3u);
  EXPECT_EQ(cache.loaded(), cache.size());
}

TEST(VerdictCachePersistence, OversizedStringLengthStopsParsing) {
  const std::string path = CachePath("oversized.mvc");
  SavePopulated(path);
  {
    // Corrupt the first entry's detail_len (offset: 24-byte header +
    // 16 digest + 4 status + 4 flags + 8 wall + 8 seq = 64) to a value
    // past kMaxStringBytes — must not allocate gigabytes.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    const uint32_t huge = 0x7fffffff;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  VerdictCache cache;
  std::string warning;
  EXPECT_TRUE(cache.Load(path, kFingerprint, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(cache.size(), 0u);  // first entry was corrupt: empty prefix
  EXPECT_EQ(cache.loaded(), cache.size());
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

}  // namespace
}  // namespace mumak
