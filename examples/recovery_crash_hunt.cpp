// The recovery sandbox (docs/sandbox.md): Mumak's consistency oracle is
// the target's own recovery procedure, so recovery code that SIGSEGVs or
// hangs on a legal power-failure image is exactly the bug class the tool
// must *report* — yet in-process it would kill or wedge the campaign.
// This example seeds two such hazards in the btree's recovery path and
// runs the campaign under the fork-server sandbox: the wild dereference
// becomes a recovery-crash finding with the signal as evidence, and the
// infinite spin becomes a recovery-timeout finding at the deadline.

#include <cstdio>

#include "src/core/mumak.h"
#include "src/targets/target.h"

namespace {

mumak::MumakResult Analyze(const mumak::TargetOptions& options,
                           uint32_t timeout_ms) {
  mumak::WorkloadSpec workload;
  workload.operations = 150;
  mumak::MumakOptions mumak_options;
  mumak_options.trace_analysis = false;  // isolate the oracle findings
  // The fork-server pool: long-lived sandbox workers that receive each
  // crash image's footprint over a socket, recycled every checks_per_fork
  // checks. checks_per_fork = 1 (a fresh process per check) would find the
  // same bugs at a higher per-check cost.
  mumak_options.sandbox.policy = mumak::SandboxPolicy::kForkServer;
  mumak_options.sandbox.timeout_ms = timeout_ms;
  mumak::Mumak mumak(
      [options] { return mumak::CreateTarget("btree", options); }, workload,
      mumak_options);
  return mumak.Analyze();
}

void Show(const mumak::MumakResult& result) {
  for (const mumak::Finding& finding : result.report.findings()) {
    std::printf("  [%s] %s\n", mumak::FindingKindName(finding.kind).data(),
                finding.detail.c_str());
    if (!finding.signal_name.empty()) {
      std::printf("         signal: %s\n", finding.signal_name.c_str());
    }
    if (finding.timed_out) {
      std::printf("         killed at the deadline after %.0f ms\n",
                  finding.recovery_wall_us / 1000.0);
    }
  }
}

}  // namespace

int main() {
  using namespace mumak;

  std::printf("== hazard #1: recovery dereferences a torn pointer ==\n");
  std::printf("(in-process this SIGSEGV would kill the whole campaign;\n"
              " sandboxed it is a finding)\n\n");
  {
    TargetOptions options;
    options.bugs.insert("btree.recovery_wild_deref");
    const MumakResult result = Analyze(options, /*timeout_ms=*/2000);
    Show(result);
  }

  std::printf("\n== hazard #2: recovery spins on a corrupted image ==\n");
  std::printf("(in-process this hang would wedge the tool forever;\n"
              " the parent-enforced deadline turns it into a finding)\n\n");
  {
    TargetOptions options;
    options.bugs.insert("btree.recovery_spin");
    const MumakResult result = Analyze(options, /*timeout_ms=*/200);
    Show(result);
  }

  std::printf("\n== healthy recovery under the same sandbox ==\n\n");
  {
    TargetOptions options;  // no hazard seeded
    const MumakResult result = Analyze(options, /*timeout_ms=*/2000);
    std::printf("  findings: %llu (sandbox overhead, no false positives)\n",
                static_cast<unsigned long long>(result.report.BugCount()));
  }
  return 0;
}
