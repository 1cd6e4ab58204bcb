// Micro-benchmarks (google-benchmark) for the substrate hot paths: the
// persistency model, the failure point tree, and the single-pass trace
// analyzer. These bound the instrumentation overhead Mumak adds per PM
// access.

#include <benchmark/benchmark.h>

#include "src/core/failure_point_tree.h"
#include "src/analysis/trace_analysis.h"
#include "src/instrument/deterministic_random.h"
#include "src/instrument/trace.h"
#include "src/pmem/pm_pool.h"

namespace mumak {
namespace {

void BM_ModelStore(benchmark::State& state) {
  PersistencyModel model(1 << 20);
  uint64_t value = 42;
  uint64_t offset = 0;
  for (auto _ : state) {
    model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    offset = (offset + 64) & ((1 << 20) - 64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelStore);

void BM_ModelPersist(benchmark::State& state) {
  PersistencyModel model(1 << 20);
  uint64_t value = 42;
  uint64_t offset = 0;
  for (auto _ : state) {
    model.Store(offset, {reinterpret_cast<const uint8_t*>(&value), 8});
    model.Clwb(offset);
    model.Fence();
    offset = (offset + 64) & ((1 << 20) - 64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPersist);

void BM_GracefulImage(benchmark::State& state) {
  PersistencyModel model(1 << 20);
  DeterministicRandom rng(7);
  uint64_t value = 1;
  for (int i = 0; i < 256; ++i) {
    model.Store(rng.NextBelow((1 << 20) - 8),
                {reinterpret_cast<const uint8_t*>(&value), 8});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.GracefulImage());
  }
}
BENCHMARK(BM_GracefulImage);

void BM_PoolEventPublish(benchmark::State& state) {
  PmPool pool(1 << 20);
  TraceCollector trace;
  pool.hub().AddSink(&trace);
  uint64_t offset = 0;
  for (auto _ : state) {
    pool.WriteU64(offset, 1);
    offset = (offset + 64) & ((1 << 20) - 64);
    if (trace.size() > (1u << 20)) {
      trace.Clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolEventPublish);

void BM_FailurePointTreeInsert(benchmark::State& state) {
  FailurePointTree tree;
  DeterministicRandom rng(3);
  std::vector<FrameId> stack(6);
  for (auto _ : state) {
    for (FrameId& frame : stack) {
      frame = static_cast<FrameId>(rng.NextBelow(64));
    }
    benchmark::DoNotOptimize(tree.Insert(stack));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailurePointTreeInsert);

void BM_FailurePointTreeFind(benchmark::State& state) {
  FailurePointTree tree;
  DeterministicRandom rng(3);
  std::vector<std::vector<FrameId>> stacks;
  for (int i = 0; i < 1024; ++i) {
    std::vector<FrameId> stack(6);
    for (FrameId& frame : stack) {
      frame = static_cast<FrameId>(rng.NextBelow(64));
    }
    tree.Insert(stack);
    stacks.push_back(std::move(stack));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(stacks[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailurePointTreeFind);

void BM_TraceAnalyzer(benchmark::State& state) {
  // A realistic store/flush/fence mix.
  std::vector<PmEvent> trace;
  DeterministicRandom rng(11);
  for (uint64_t seq = 0; seq < 30000; seq += 3) {
    const uint64_t offset = rng.NextBelow((1 << 20) - 64) & ~7ull;
    PmEvent store{EventKind::kStore, offset, 8, 1, seq};
    PmEvent flush{EventKind::kClwb, LineBase(offset), 64, 2, seq + 1};
    PmEvent fence{EventKind::kSfence, 0, 0, 3, seq + 2};
    trace.push_back(store);
    trace.push_back(flush);
    trace.push_back(fence);
  }
  for (auto _ : state) {
    TraceAnalyzer analyzer;
    TraceStats stats;
    benchmark::DoNotOptimize(analyzer.Analyze(trace, &stats));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_TraceAnalyzer);

}  // namespace
}  // namespace mumak

BENCHMARK_MAIN();
