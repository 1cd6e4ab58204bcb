// Campaign flight recorder (src/observability/journal.h). Layers under
// test:
//   1. framing — record round-trips through the MJN1 file format, CRC
//      verification, and the version gate (MJN2 must be refused);
//   2. corruption tolerance — a torn or CRC-corrupt final record stops the
//      replay with a warning (anytime semantics), a corrupt middle record
//      is skipped by its length prefix and the rest still decodes;
//   3. reconstruction — a partial journal yields the same report prefix
//      the engine produced (first-wins dedup by detail);
//   4. resume — a budget-interrupted campaign resumed from its journal
//      produces a byte-identical report to an uninterrupted run, across
//      targets and both injection strategies;
//   5. the OpenMetrics exposition of MetricsSnapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/instrument/trace_v3.h"
#include "src/observability/flat_json.h"
#include "src/observability/journal.h"
#include "src/observability/metrics.h"
#include "src/targets/target.h"

namespace mumak {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Offsets of each record's frame start, walked by the length prefixes.
std::vector<size_t> RecordOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> offsets;
  size_t at = 4;  // past the magic
  while (at + 8 <= bytes.size()) {
    offsets.push_back(at);
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, sizeof(len));
    at += 8 + len;
  }
  return offsets;
}

// A small journal with one of every record type, closed cleanly.
std::string WriteSampleJournal(const std::string& name) {
  const std::string path = TempPath(name);
  std::string error;
  auto journal = CampaignJournal::Create(path, &error);
  EXPECT_NE(journal, nullptr) << error;
  journal->WriteHeader({{"target", "btree"}, {"ops", "100"}});
  journal->WriteProfile(0x1234abcd5678ef00ull, 42, 999);
  journal->WritePhase("inject", true);
  journal->WriteDispatch(7, 0);
  JournalVerdict ok;
  ok.seq = 7;
  ok.status = "ok";
  ok.wall_us = 10;
  journal->WriteVerdict(ok);
  journal->WriteDispatch(9, 1);
  JournalVerdict bad;
  bad.seq = 9;
  bad.status = "unrecoverable";
  bad.detail = "value lost for key 3";
  bad.location = "store pm+0x40 <- put(3)";
  bad.signal_name = "SIGSEGV";
  bad.wall_us = 123;
  bad.worker = 1;
  journal->WriteVerdict(bad);
  Finding finding;
  finding.source = FindingSource::kTraceAnalysis;
  finding.kind = FindingKind::kUnflushedStore;
  finding.detail = "store never flushed";
  finding.location = "pc:0x10 <- put";
  finding.pm_offset = 0x80;
  finding.seq = 55;
  journal->WriteFinding(finding);
  journal->WritePhase("inject", false);
  journal->WriteFooter(1, 2, 3.5, false);
  journal->Close();
  return path;
}

// -- 1. Framing --------------------------------------------------------------

TEST(JournalCrc, MatchesReferenceVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // The slicing-by-8 loop against the bytewise definition, at every tail
  // length and from every alignment: journals written with the bytewise
  // CRC still verify.
  auto bytewise = [](const uint8_t* data, size_t size) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  std::vector<uint8_t> bytes(300);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; offset + size <= bytes.size(); size += 13) {
      EXPECT_EQ(Crc32(bytes.data() + offset, size),
                bytewise(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

// The verdict codec journal records and fleet frames share writes the
// same bytes it always did, field order and elision included.
TEST(JournalFormat, VerdictFieldsKeepTheirBytes) {
  JournalVerdict bad;
  bad.seq = 9;
  bad.status = "unrecoverable";
  bad.detail = "value lost for key 3";
  bad.location = "store pm+0x40 <- put(3)";
  bad.signal_name = "SIGSEGV";
  bad.wall_us = 123;
  bad.worker = 1;
  JsonObject journal_record;
  journal_record.Str("type", "verdict").U64("t_us", 5);
  WriteVerdictFields(bad, /*with_worker=*/true, &journal_record);
  EXPECT_EQ(journal_record.Finish(),
            "{\"type\": \"verdict\", \"t_us\": 5, \"seq\": 9, "
            "\"worker\": 1, \"status\": \"unrecoverable\", \"detail\": "
            "\"value lost for key 3\", \"location\": \"store pm+0x40 <- "
            "put(3)\", \"signal\": \"SIGSEGV\", \"wall_us\": 123}");

  JournalVerdict hit;
  hit.seq = 11;
  hit.status = "ok";
  hit.timed_out = true;
  hit.dedup_of = "seq 4";
  hit.from_cache = true;
  JsonObject frame;
  frame.Str("type", "verdict").U64("index", 2);
  WriteVerdictFields(hit, /*with_worker=*/false, &frame);
  const std::string frame_json = frame.Finish();
  EXPECT_EQ(frame_json,
            "{\"type\": \"verdict\", \"index\": 2, \"seq\": 11, "
            "\"status\": \"ok\", \"detail\": \"\", \"location\": \"\", "
            "\"timed_out\": true, \"dedup_of\": \"seq 4\", "
            "\"from_cache\": true}");
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(frame_json).Parse(&parsed));
  const JournalVerdict back = ReadVerdictFields(parsed);
  EXPECT_EQ(back.seq, hit.seq);
  EXPECT_EQ(back.status, hit.status);
  EXPECT_EQ(back.timed_out, hit.timed_out);
  EXPECT_EQ(back.wall_us, 0u);
  EXPECT_EQ(back.dedup_of, hit.dedup_of);
  EXPECT_EQ(back.from_cache, hit.from_cache);
  EXPECT_EQ(back.worker, 0u);
}

TEST(JournalFormat, RoundTripsEveryRecordType) {
  const std::string path = WriteSampleJournal("roundtrip.mjn");
  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(replay.warnings.empty());

  ASSERT_TRUE(replay.has_header);
  EXPECT_EQ(replay.header.at("target"), "btree");
  EXPECT_EQ(replay.header.at("ops"), "100");

  ASSERT_TRUE(replay.has_profile);
  EXPECT_EQ(replay.fingerprint, 0x1234abcd5678ef00ull);
  EXPECT_EQ(replay.failure_points, 42u);
  EXPECT_EQ(replay.pm_events, 999u);

  EXPECT_EQ(replay.dispatches, 2u);
  ASSERT_EQ(replay.verdicts.size(), 2u);
  EXPECT_EQ(replay.verdicts[0].seq, 7u);
  EXPECT_EQ(replay.verdicts[0].status, "ok");
  EXPECT_EQ(replay.verdicts[1].seq, 9u);
  EXPECT_EQ(replay.verdicts[1].status, "unrecoverable");
  EXPECT_EQ(replay.verdicts[1].detail, "value lost for key 3");
  EXPECT_EQ(replay.verdicts[1].location, "store pm+0x40 <- put(3)");
  EXPECT_EQ(replay.verdicts[1].signal_name, "SIGSEGV");
  EXPECT_EQ(replay.verdicts[1].wall_us, 123u);
  EXPECT_EQ(replay.verdicts[1].worker, 1u);

  ASSERT_EQ(replay.trace_findings.size(), 1u);
  EXPECT_EQ(replay.trace_findings[0].kind, FindingKind::kUnflushedStore);
  EXPECT_EQ(replay.trace_findings[0].detail, "store never flushed");
  EXPECT_EQ(replay.trace_findings[0].pm_offset, 0x80u);
  EXPECT_EQ(replay.trace_findings[0].seq, 55u);

  ASSERT_EQ(replay.phases.size(), 2u);
  EXPECT_EQ(replay.phases[0], "inject:begin");
  EXPECT_EQ(replay.phases[1], "inject:end");

  ASSERT_TRUE(replay.has_footer);
  EXPECT_FALSE(replay.interrupted);
  EXPECT_EQ(replay.footer_bugs, 1u);
  EXPECT_EQ(replay.footer_warnings, 2u);
  EXPECT_NEAR(replay.footer_elapsed_s, 3.5, 1e-9);
  std::remove(path.c_str());
}

TEST(JournalFormat, RefusesFutureVersion) {
  const std::string path = TempPath("mjn2.mjn");
  std::vector<uint8_t> bytes = {'M', 'J', 'N', '2', 0, 0, 0, 0};
  WriteFileBytes(path, bytes);
  const JournalReplay replay = ReplayJournal(path);
  EXPECT_FALSE(replay.ok);
  EXPECT_NE(replay.error.find("version"), std::string::npos)
      << replay.error;
  std::remove(path.c_str());
}

TEST(JournalFormat, RefusesForeignAndMissingFiles) {
  const std::string path = TempPath("foreign.mjn");
  WriteFileBytes(path, {'P', 'K', 0x03, 0x04, 1, 2, 3, 4});
  EXPECT_FALSE(ReplayJournal(path).ok);
  std::remove(path.c_str());

  EXPECT_FALSE(ReplayJournal(TempPath("does_not_exist.mjn")).ok);

  const std::string empty = TempPath("empty.mjn");
  WriteFileBytes(empty, {});
  EXPECT_FALSE(ReplayJournal(empty).ok);
  std::remove(empty.c_str());
}

TEST(JournalFormat, MagicOnlyJournalIsValidAndEmpty) {
  const std::string path = TempPath("magic_only.mjn");
  WriteFileBytes(path, {'M', 'J', 'N', '1'});
  const JournalReplay replay = ReplayJournal(path);
  EXPECT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(replay.verdicts.empty());
  EXPECT_FALSE(replay.has_header);
  EXPECT_EQ(replay.valid_bytes, 4u);
  std::remove(path.c_str());
}

// -- 2. Corruption tolerance -------------------------------------------------

TEST(JournalCorruption, TornFinalRecordStopsWithWarning) {
  const std::string path = WriteSampleJournal("torn.mjn");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  const std::vector<size_t> offsets = RecordOffsets(bytes);
  ASSERT_GE(offsets.size(), 3u);
  // Cut mid-way through the last record's payload.
  bytes.resize(offsets.back() + 10);
  WriteFileBytes(path, bytes);

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_FALSE(replay.warnings.empty());
  EXPECT_FALSE(replay.has_footer);  // the footer was the torn record
  EXPECT_EQ(replay.valid_bytes, offsets.back());
  // Everything before the tear decoded.
  EXPECT_EQ(replay.verdicts.size(), 2u);
  std::remove(path.c_str());
}

TEST(JournalCorruption, CorruptMiddleRecordIsSkipped) {
  const std::string path = WriteSampleJournal("corrupt_mid.mjn");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  const std::vector<size_t> offsets = RecordOffsets(bytes);
  ASSERT_GE(offsets.size(), 4u);
  // Flip one payload byte of the second record (the profile record): its
  // CRC no longer matches, but the length prefix still brackets it, so
  // the replay skips exactly that record and keeps going.
  bytes[offsets[1] + 8 + 12] ^= 0xff;
  WriteFileBytes(path, bytes);

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_EQ(replay.warnings.size(), 1u);
  EXPECT_NE(replay.warnings[0].find("CRC mismatch"), std::string::npos)
      << replay.warnings[0];
  EXPECT_FALSE(replay.has_profile);       // the skipped record
  EXPECT_TRUE(replay.has_header);         // before it
  EXPECT_EQ(replay.verdicts.size(), 2u);  // after it
  EXPECT_TRUE(replay.has_footer);
  std::remove(path.c_str());
}

TEST(JournalCorruption, CorruptFinalRecordStopsWithWarning) {
  const std::string path = WriteSampleJournal("corrupt_last.mjn");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  const std::vector<size_t> offsets = RecordOffsets(bytes);
  bytes[offsets.back() + 8 + 2] ^= 0xff;
  WriteFileBytes(path, bytes);

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_FALSE(replay.warnings.empty());
  EXPECT_FALSE(replay.has_footer);
  EXPECT_EQ(replay.valid_bytes, offsets.back());
  std::remove(path.c_str());
}

TEST(JournalCorruption, ImplausibleLengthTreatedAsTornTail) {
  const std::string path = WriteSampleJournal("bad_len.mjn");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  const std::vector<size_t> offsets = RecordOffsets(bytes);
  const uint32_t huge = 0x7fffffff;
  std::memcpy(bytes.data() + offsets.back(), &huge, sizeof(huge));
  WriteFileBytes(path, bytes);

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_FALSE(replay.warnings.empty());
  EXPECT_EQ(replay.valid_bytes, offsets.back());
  std::remove(path.c_str());
}

// -- 3. Reconstruction -------------------------------------------------------

TEST(JournalReconstruct, DedupesByDetailFirstWins) {
  const std::string path = TempPath("reconstruct.mjn");
  std::string error;
  auto journal = CampaignJournal::Create(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  JournalVerdict v;
  v.seq = 1;
  v.status = "unrecoverable";
  v.detail = "value lost for key 3";
  v.location = "first location";
  journal->WriteVerdict(v);
  v.seq = 2;
  v.status = "ok";  // ok verdicts never become findings
  journal->WriteVerdict(v);
  v.seq = 3;
  v.status = "unrecoverable";
  v.detail = "value lost for key 3";  // duplicate detail: dropped
  v.location = "second location";
  journal->WriteVerdict(v);
  v.seq = 4;
  v.status = "crashed";
  v.detail = "recovery terminated by SIGSEGV";
  v.signal_name = "SIGSEGV";
  journal->WriteVerdict(v);
  journal->Close();

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok);
  const Report report = replay.ReconstructReport();
  ASSERT_EQ(report.findings().size(), 2u);
  EXPECT_EQ(report.findings()[0].kind, FindingKind::kRecoveryUnrecoverable);
  EXPECT_EQ(report.findings()[0].location, "first location");
  EXPECT_EQ(report.findings()[1].kind, FindingKind::kRecoveryCrash);
  EXPECT_EQ(report.findings()[1].signal_name, "SIGSEGV");
  std::remove(path.c_str());
}

TEST(JournalMetrics, SampledSnapshotsAppearInReplay) {
  const std::string path = TempPath("metrics.mjn");
  std::string error;
  auto journal = CampaignJournal::Create(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  MetricsRegistry registry;
  registry.GetCounter("inject.attempted")->Increment();
  journal->AttachMetrics(&registry, /*interval_ms=*/60000);
  journal->SampleMetricsNow();
  journal->Close();

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_GE(replay.metrics_samples, 1u);
  EXPECT_NE(replay.last_metrics_json.find("inject.attempted"),
            std::string::npos)
      << replay.last_metrics_json;
  std::remove(path.c_str());
}

// -- 4. Resume ---------------------------------------------------------------

TargetFactory Factory(const std::string& name,
                      const TargetOptions& options) {
  return [name, options]() -> TargetPtr {
    return CreateTarget(name, options);
  };
}

// A campaign cancelled mid-injection, then resumed from its journal, must
// produce a byte-identical report to an uninterrupted run, at one worker
// and at four (where the interrupted generation's verdicts need not be a
// seq prefix). The same process runs both, so even the resolved code
// locations match exactly.
TEST(JournalResume, InterruptedThenResumedMatchesUninterrupted) {
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
      // Reference: uninterrupted.
      FaultInjectionOptions reference_options;
      reference_options.strategy = strategy;
      FaultInjectionEngine reference(Factory(c.target, options), spec,
                                     reference_options);
      FailurePointTree reference_tree = reference.Profile();
      FaultInjectionStats reference_stats;
      const Report uninterrupted =
          reference.InjectAll(&reference_tree, &reference_stats);
      ASSERT_GT(uninterrupted.BugCount(), 0u)
          << "bug " << c.bug << " not triggered";

      for (const uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        // First generation: journaled, stopped partway by the check cap.
        const std::string path =
            TempPath(std::string("resume_") + c.target +
                     (strategy == InjectionStrategy::kReplay ? "_replay"
                                                             : "_reexec") +
                     "_w" + std::to_string(workers) + ".mjn");
        std::string error;
        {
          auto journal = CampaignJournal::Create(path, &error);
          ASSERT_NE(journal, nullptr) << error;
          FaultInjectionOptions first;
          first.strategy = strategy;
          first.workers = workers;
          first.journal = journal.get();
          first.budget_checks = 7;  // stop partway through injection
          FaultInjectionEngine engine(Factory(c.target, options), spec,
                                      first);
          FailurePointTree tree = engine.Profile();
          FaultInjectionStats stats;
          engine.InjectAll(&tree, &stats);
          journal->Close();
        }

        // Second generation: resume from the journal.
        const JournalReplay replay = ReplayJournal(path);
        ASSERT_TRUE(replay.ok) << replay.error;
        auto journal =
            CampaignJournal::OpenForResume(path, replay.valid_bytes, &error);
        ASSERT_NE(journal, nullptr) << error;
        journal->WriteResumeMarker(replay.verdicts.size());
        FaultInjectionOptions second;
        second.strategy = strategy;
        second.workers = workers;
        second.journal = journal.get();
        second.resume = &replay;
        FaultInjectionEngine engine(Factory(c.target, options), spec,
                                    second);
        FailurePointTree tree = engine.Profile();
        FaultInjectionStats stats;
        const Report resumed = engine.InjectAll(&tree, &stats);
        journal->Close();

        EXPECT_EQ(stats.resumed, replay.verdicts.size());
        EXPECT_EQ(resumed.Render(), uninterrupted.Render());
        EXPECT_EQ(resumed.RenderJson(), uninterrupted.RenderJson());

        // The resumed journal decodes as one campaign with a resume marker
        // and a full verdict set.
        const JournalReplay final_replay = ReplayJournal(path);
        ASSERT_TRUE(final_replay.ok) << final_replay.error;
        EXPECT_EQ(final_replay.resume_generations, 1u);
        EXPECT_EQ(final_replay.verdicts.size(), final_replay.failure_points);
        std::remove(path.c_str());
      }
    }
  }
}

// A journal recorded against different persistent behaviour (another
// workload) must be ignored with a full re-run, not trusted.
TEST(JournalResume, StaleFingerprintFallsBackToFullCampaign) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 200;
  spec.key_space = 40;

  const std::string path = TempPath("stale.mjn");
  std::string error;
  {
    auto journal = CampaignJournal::Create(path, &error);
    ASSERT_NE(journal, nullptr) << error;
    FaultInjectionOptions first;
    first.journal = journal.get();
    FaultInjectionEngine engine(Factory("btree", options), spec, first);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    journal->Close();
  }

  const JournalReplay replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok);
  ASSERT_FALSE(replay.verdicts.empty());

  // A doctored fingerprint simulates a journal from a different trace:
  // none of its verdicts may be trusted.
  JournalReplay doctored = replay;
  doctored.fingerprint ^= 0xdeadbeefull;
  FaultInjectionOptions second;
  second.resume = &doctored;
  FaultInjectionEngine fresh(Factory("btree", options), spec, second);
  FailurePointTree fresh_tree = fresh.Profile();
  FaultInjectionStats fresh_stats;
  fresh.InjectAll(&fresh_tree, &fresh_stats);
  EXPECT_EQ(fresh_stats.resumed, 0u);
  EXPECT_EQ(fresh_stats.injections, replay.verdicts.size());
  std::remove(path.c_str());

  // And the genuine replay is honoured: everything already verdicted is
  // skipped.
  FaultInjectionOptions third;
  third.resume = &replay;
  FaultInjectionEngine resumed(Factory("btree", options), spec, third);
  FailurePointTree resumed_tree = resumed.Profile();
  FaultInjectionStats resumed_stats;
  resumed.InjectAll(&resumed_tree, &resumed_stats);
  EXPECT_EQ(resumed_stats.resumed, replay.verdicts.size());
  EXPECT_EQ(resumed_stats.injections, 0u);
}

// --resume-journal composes with a warm --verdict-cache: a resumed
// campaign whose cache already holds a verdict for every distinct crash
// image performs ZERO oracle invocations — the journal supplies the
// already-verdicted points, the cache supplies the rest. Cache-hit
// findings carry dedup_of provenance the fresh reference lacks, so this
// asserts equal bug sets, not byte-identity.
TEST(JournalResume, ResumeComposesWithWarmVerdictCache) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  options.bugs = {"btree.split_unlogged"};
  WorkloadSpec spec;
  spec.operations = 300;
  spec.key_space = 50;

  // Reference: uninterrupted, cacheless.
  FaultInjectionOptions reference_options;
  FaultInjectionEngine reference(Factory("btree", options), spec,
                                 reference_options);
  FailurePointTree reference_tree = reference.Profile();
  FaultInjectionStats reference_stats;
  const Report uninterrupted =
      reference.InjectAll(&reference_tree, &reference_stats);
  ASSERT_GT(uninterrupted.BugCount(), 0u);

  // Fully warm the persistent cache with a complete run.
  const std::string cache_path = TempPath("warm_resume.mvc");
  std::remove(cache_path.c_str());
  {
    FaultInjectionOptions warming;
    warming.verdict_cache_path = cache_path;
    FaultInjectionEngine engine(Factory("btree", options), spec, warming);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    ASSERT_GT(stats.cache_saved, 0u);
  }

  // Interrupted journaled generation.
  const std::string journal_path = TempPath("warm_resume.mjn");
  std::string error;
  {
    auto journal = CampaignJournal::Create(journal_path, &error);
    ASSERT_NE(journal, nullptr) << error;
    FaultInjectionOptions first;
    first.journal = journal.get();
    first.budget_checks = 7;
    FaultInjectionEngine engine(Factory("btree", options), spec, first);
    FailurePointTree tree = engine.Profile();
    FaultInjectionStats stats;
    engine.InjectAll(&tree, &stats);
    journal->Close();
  }

  // Resume over the warm cache: every remaining point's image verdict is
  // already cached, so no oracle runs and no fresh image is inserted.
  const JournalReplay replay = ReplayJournal(journal_path);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_FALSE(replay.verdicts.empty());
  FaultInjectionOptions second;
  second.resume = &replay;
  second.verdict_cache_path = cache_path;
  FaultInjectionEngine engine(Factory("btree", options), spec, second);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  const Report resumed = engine.InjectAll(&tree, &stats);

  EXPECT_EQ(stats.resumed, replay.verdicts.size());
  EXPECT_GT(stats.injections, 0u);
  EXPECT_EQ(stats.distinct_images, 0u);  // zero fresh oracle verdicts
  EXPECT_EQ(stats.dedup_hits, stats.injections);
  EXPECT_GT(stats.cache_loaded, 0u);

  // Same bugs found (details are oracle output, identical either way).
  std::multiset<std::string> expected;
  for (const Finding& f : uninterrupted.findings()) {
    expected.insert(f.detail);
  }
  std::multiset<std::string> actual;
  for (const Finding& f : resumed.findings()) {
    actual.insert(f.detail);
  }
  EXPECT_EQ(actual, expected);
  std::remove(cache_path.c_str());
  std::remove(journal_path.c_str());
}

// The cooperative cancel flag stops the campaign at a check boundary.
TEST(JournalResume, CancelFlagStopsInjection) {
  TargetOptions options;
  options.pmdk_version = PmdkVersion::k16;
  WorkloadSpec spec;
  spec.operations = 200;
  spec.key_space = 40;

  std::atomic<bool> cancel{true};  // pre-cancelled: nothing should run
  FaultInjectionOptions fi;
  fi.cancel = &cancel;
  FaultInjectionEngine engine(Factory("btree", options), spec, fi);
  FailurePointTree tree = engine.Profile();
  FaultInjectionStats stats;
  engine.InjectAll(&tree, &stats);
  EXPECT_EQ(stats.injections, 0u);
  EXPECT_TRUE(stats.budget_exhausted);
}

// -- 5. OpenMetrics ----------------------------------------------------------

TEST(OpenMetrics, RendersCountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("inject.attempted")->Increment(3);
  registry.GetGauge("tree.bytes")->Set(4096);
  Histogram* h = registry.GetHistogram("run_us");
  h->Observe(1);
  h->Observe(3);
  h->Observe(1000);
  const std::string text = registry.Snapshot().RenderOpenMetrics();

  EXPECT_NE(text.find("# TYPE mumak_inject_attempted counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mumak_inject_attempted_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mumak_tree_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("mumak_tree_bytes 4096\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mumak_run_us histogram\n"), std::string::npos);
  // Cumulative buckets and the +Inf catch-all.
  EXPECT_NE(text.find("mumak_run_us_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mumak_run_us_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mumak_run_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mumak_run_us_sum 1004\n"), std::string::npos);
  EXPECT_NE(text.find("mumak_run_us_count 3\n"), std::string::npos);
  // The exposition terminator.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// The journal keeps metrics snapshots in their JSON form;
// `mumak-inspect --from-journal --metrics-format openmetrics` re-renders
// them through MetricsJsonToOpenMetrics, which must agree byte for byte
// with rendering the live registry directly.
TEST(OpenMetrics, JsonSnapshotConversionMatchesDirectRender) {
  MetricsRegistry registry;
  registry.GetCounter("inject.attempted")->Increment(7);
  registry.GetCounter("recovery.ok")->Increment(5);
  registry.GetGauge("fpt.failure_points")->Set(120);
  Histogram* h = registry.GetHistogram("inject.run_us");
  h->Observe(0);
  h->Observe(2);
  h->Observe(500);
  h->Observe(~uint64_t{0});  // lands in the catch-all bucket

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(MetricsJsonToOpenMetrics(snapshot.RenderJson()),
            snapshot.RenderOpenMetrics());

  EXPECT_TRUE(MetricsJsonToOpenMetrics("not json").empty());
  EXPECT_TRUE(MetricsJsonToOpenMetrics("").empty());
}

}  // namespace
}  // namespace mumak
