// campaign_probe: runs one Mumak campaign of a benchmark workload in this
// process and prints one JSON line with its metrics, counts and report
// (pc:0x... frames stripped). run.py drives it, one fresh process per
// campaign.
//
//   campaign_probe describe
//   campaign_probe campaign  --workload <name> --seed <n>
//   campaign_probe traced    --workload <name> --seed <n>
//   campaign_probe reference --workload <name> --seed <n>
//
// `campaign` runs Mumak::Analyze(), the CLI's path, behind a forwarding
// Target decorator; `traced` makes Analyze()'s public calls itself with
// spans around each (traced_campaign.h); `reference` runs the serial
// re-execution loop for the workload's spec.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "probes.h"
#include "src/core/coverage.h"
#include "src/observability/flat_json.h"
#include "src/targets/bug_registry.h"
#include "traced_campaign.h"
#include "workloads.h"

namespace campaign_bench {
namespace {

#ifndef CAMPAIGN_BENCH_BUILD_TYPE
#define CAMPAIGN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CAMPAIGN_BENCH_COMPILER
#define CAMPAIGN_BENCH_COMPILER "unknown"
#endif

// Fault-injection findings carry raw return addresses, which differ per
// process under ASLR.
std::string StripPcFrames(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t at = 0;
  while (at < text.size()) {
    if (text.compare(at, 5, "pc:0x") == 0) {
      size_t end = at + 5;
      while (end < text.size() && std::isxdigit(
                                      static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      out += "pc:<aslr>";
      at = end;
      continue;
    }
    out += text[at++];
  }
  return out;
}

std::string Num(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string Quoted(const std::string& text) {
  return "\"" + mumak::JsonEscape(text) + "\"";
}

// Seeded bugs the report must detect: every enabled one that is within
// Mumak's guarantees.
std::string UndetectedBugs(const mumak::Report& report) {
  const std::vector<std::string>& enabled = SeededBugs();
  std::string out = "[";
  for (const mumak::SeededBug& bug : mumak::AllSeededBugs()) {
    if (std::find(enabled.begin(), enabled.end(), bug.id) != enabled.end() &&
        !bug.beyond_program_order && !mumak::DetectedBy(bug, report)) {
      out += (out.size() > 1 ? ", " : "") + Quoted(bug.id);
    }
  }
  return out + "]";
}

// Fields every mode prints: what the correctness check compares.
std::string OutcomeFields(const BenchWorkload& workload, uint64_t seed,
                          const mumak::Report& report,
                          const mumak::FaultInjectionStats& stats,
                          uint64_t events) {
  std::ostringstream os;
  os << "\"workload\": " << Quoted(workload.name) << ", \"seed\": " << seed
     << ", \"failure_points\": " << stats.failure_points
     << ", \"checks\": " << stats.injections << ", \"events\": " << events
     << ", \"findings\": " << report.findings().size()
     << ", \"undetected\": " << UndetectedBugs(report)
     << ", \"report\": " << Quoted(StripPcFrames(report.Render()));
  return os.str();
}

std::string SpoolPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/campaign_probe_" +
         std::to_string(::getpid()) + ".bin";
}

int Describe() {
  std::string bugs = "[";
  for (const std::string& bug : SeededBugs()) {
    bugs += (bugs.size() > 1 ? ", " : "") + Quoted(bug);
  }
  bugs += "]";
  std::printf("{\"build_type\": %s, \"compiler\": %s, \"target\": %s, "
              "\"bugs\": %s, \"workloads\": [",
              Quoted(CAMPAIGN_BENCH_BUILD_TYPE).c_str(),
              Quoted(CAMPAIGN_BENCH_COMPILER).c_str(), Quoted(kTarget).c_str(),
              bugs.c_str());
  bool first = true;
  for (const BenchWorkload& w : AllWorkloads()) {
    std::printf("%s{\"name\": %s, \"operations\": %llu, \"strategy\": %s, "
                "\"fleet_workers\": %u}",
                first ? "" : ", ", Quoted(w.name).c_str(),
                static_cast<unsigned long long>(w.operations),
                w.strategy == mumak::InjectionStrategy::kReplay
                    ? "\"replay\""
                    : "\"reexec\"",
                w.fleet_workers);
    first = false;
  }
  std::printf("]}\n");
  return 0;
}

int Campaign(const BenchWorkload& workload, uint64_t seed) {
  SharedProbe probe;
  mumak::Mumak mumak(WrapFactory(MakeTargetFactory(), probe.state(),
                                 /*traced=*/false),
                     MakeSpec(workload, seed), MakeCampaignOptions(workload));
  const Usage self_before = ReadUsage(RUSAGE_SELF);
  const Usage children_before = ReadUsage(RUSAGE_CHILDREN);
  const int64_t start = MonoNs();
  const mumak::MumakResult result = mumak.Analyze();
  const int64_t end = MonoNs();
  const Usage self_after = ReadUsage(RUSAGE_SELF);
  const Usage children_after = ReadUsage(RUSAGE_CHILDREN);
  const int64_t first_recover = probe.state()->first_recover_ns.load();
  if (first_recover == std::numeric_limits<int64_t>::max()) {
    throw std::runtime_error("the campaign never ran the recovery oracle");
  }
  const double cpu_s = (self_after.cpu_s() - self_before.cpu_s()) +
                       (children_after.cpu_s() - children_before.cpu_s());
  std::printf(
      "{\"mode\": \"campaign\", %s, \"metrics\": {\"campaign_s\": %s, "
      "\"setup_s\": %s, \"cpu_s\": %s, \"peak_rss_mb\": %s}}\n",
      OutcomeFields(workload, seed, result.report, result.fault_injection,
                    result.trace.events)
          .c_str(),
      Num(static_cast<double>(end - start) * 1e-9).c_str(),
      Num(static_cast<double>(first_recover - start) * 1e-9).c_str(),
      Num(cpu_s).c_str(), Num(self_after.max_rss_mb).c_str());
  return 0;
}

int Traced(const BenchWorkload& workload, uint64_t seed) {
  const TracedOutcome out = RunTracedCampaign(workload, seed, SpoolPath());
  std::ostringstream layers;
  for (const auto& [name, value] : out.layers) {
    layers << (layers.tellp() > 0 ? ", " : "") << Quoted(name) << ": "
           << Num(value);
  }
  std::ostringstream spans;
  for (const Span& span : out.spans) {
    spans << (spans.tellp() > 0 ? ", " : "") << "{\"id\": " << span.id
          << ", \"parent\": " << span.parent
          << ", \"name\": " << Quoted(span.name)
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns
          << ", \"self_s\": " << Num(out.self_s.at(span.id))
          << ", \"pid\": " << span.pid << ", \"tid\": " << span.tid;
    if (span.aggregate) {
      spans << ", \"aggregate\": true";
    }
    for (const auto& [key, value] : span.args) {
      spans << ", " << Quoted(key) << ": " << Num(value);
    }
    spans << "}";
  }
  std::printf(
      "{\"mode\": \"traced\", %s, \"metrics\": {\"campaign_s\": %s, "
      "\"setup_s\": %s}, \"layers\": {%s}, \"spans\": [%s]}\n",
      OutcomeFields(workload, seed, out.report, out.stats, out.events)
          .c_str(),
      Num(out.campaign_s).c_str(), Num(out.setup_s).c_str(),
      layers.str().c_str(), spans.str().c_str());
  return 0;
}

int Reference(const BenchWorkload& workload, uint64_t seed) {
  mumak::Mumak mumak(MakeTargetFactory(), MakeSpec(workload, seed),
                     MakeReferenceOptions());
  const mumak::MumakResult result = mumak.Analyze();
  std::printf("{\"mode\": \"reference\", %s}\n",
              OutcomeFields(workload, seed, result.report,
                            result.fault_injection, result.trace.events)
                  .c_str());
  return 0;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s describe\n"
               "       %s campaign|traced|reference --workload <name> "
               "--seed <n>\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return PrintUsage(argv[0]);
  }
  const std::string mode = argv[1];
  if (mode == "describe") {
    return Describe();
  }
  std::string workload_name;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::stoull(argv[i + 1]);
      have_seed = true;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (workload_name.empty() || !have_seed || argc % 2 != 0) {
    return PrintUsage(argv[0]);
  }
  const BenchWorkload& workload = FindWorkload(workload_name);
  if (mode == "campaign") {
    return Campaign(workload, seed);
  }
  if (mode == "traced") {
    return Traced(workload, seed);
  }
  if (mode == "reference") {
    return Reference(workload, seed);
  }
  return PrintUsage(argv[0]);
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  try {
    return campaign_bench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campaign_probe: %s\n", error.what());
    return 1;
  }
}
