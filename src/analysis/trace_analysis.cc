#include "src/analysis/trace_analysis.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/analysis/sharded_analyzer.h"
#include "src/instrument/trace.h"

namespace mumak {
namespace {

// Block-parallel analysis of a v3 stream. The expensive part of reading a
// compressed columnar trace is decompress+decode, and blocks are
// independent — so `jobs` workers decode blocks straight out of the
// stream's bytes while the calling thread dispatches them. Events still
// reach the sharded dispatcher in exact trace order (blocks are consumed
// by block number), which is what keeps the merged report byte-identical
// to a serial pass. A stream is validated when made, so a block that fails
// to decode is corruption: the analysis throws.
void AnalyzeBlocksParallel(const TraceStream& stream, ShardedAnalysis* impl,
                           uint32_t jobs) {
  struct Decoded {
    std::unique_ptr<TraceBlockDecoder> decoder;
    std::string error;  // empty when the block decoded
  };

  std::mutex mutex;
  std::condition_variable claim_cv;  // workers: the window has room
  std::condition_variable done_cv;   // consumer: a block finished decoding
  std::map<size_t, Decoded> done;
  std::vector<std::unique_ptr<TraceBlockDecoder>> decoder_pool;
  const size_t blocks = stream.blocks();
  size_t next_claim = 0;    // next block a worker decodes
  size_t next_consume = 0;  // next block fed to the dispatcher
  bool stop = false;

  // Bound on blocks in flight (decoding + decoded-but-unconsumed) so fast
  // workers cannot balloon memory ahead of a slow consumer.
  const size_t window = static_cast<size_t>(jobs) * 2;

  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (uint32_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        size_t b = 0;
        std::unique_ptr<TraceBlockDecoder> decoder;
        {
          std::unique_lock<std::mutex> lock(mutex);
          claim_cv.wait(lock, [&] {
            return stop || next_claim == blocks ||
                   next_claim - next_consume < window;
          });
          if (stop || next_claim == blocks) {
            return;
          }
          b = next_claim++;
          if (!decoder_pool.empty()) {
            decoder = std::move(decoder_pool.back());
            decoder_pool.pop_back();
          }
        }
        if (decoder == nullptr) {
          decoder = std::make_unique<TraceBlockDecoder>();
        }
        std::string error;
        try {
          stream.DecodeBlock(b, decoder.get());
        } catch (const std::exception& e) {
          error = e.what();
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          done.emplace(b, Decoded{std::move(decoder), std::move(error)});
        }
        done_cv.notify_all();
      }
    });
  }

  std::string failure;
  while (next_consume < blocks) {
    Decoded block;
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return done.count(next_consume) != 0; });
      auto it = done.find(next_consume);
      block = std::move(it->second);
      done.erase(it);
    }
    if (!block.error.empty()) {
      failure = std::move(block.error);
      std::lock_guard<std::mutex> lock(mutex);  // workers drain and exit
      stop = true;
      break;
    }
    const TraceBlockView& view = block.decoder->view();
    for (size_t i = 0; i < view.count; ++i) {
      impl->OnEvent(view.Event(i));
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      decoder_pool.push_back(std::move(block.decoder));
      ++next_consume;
    }
    claim_cv.notify_all();
  }
  claim_cv.notify_all();
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (!failure.empty()) {
    throw std::runtime_error(failure);
  }
}

}  // namespace

TraceAnalyzer::TraceAnalyzer(TraceAnalysisOptions options) {
  jobs_ = options.jobs;
  impl_ = std::make_unique<ShardedAnalysis>(std::move(options));
}

TraceAnalyzer::~TraceAnalyzer() = default;

void TraceAnalyzer::OnEvent(const PmEvent& event) { impl_->OnEvent(event); }

Report TraceAnalyzer::Finish(TraceStats* stats) {
  return impl_->Finish(stats);
}

Report TraceAnalyzer::Analyze(const std::vector<PmEvent>& trace,
                              TraceStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  for (const PmEvent& event : trace) {
    OnEvent(event);
  }
  return FinishTimed(start, stats);
}

Report TraceAnalyzer::AnalyzeFile(const std::string& path,
                                  TraceStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  LoadedTrace trace;
  std::string error;
  if (!LoadTraceFile(path, &trace, &error)) {
    std::fprintf(stderr, "mumak: %s\n", error.c_str());
    trace = LoadedTrace{};  // analyses as an empty trace
  }
  for (const std::string& warning : trace.warnings) {
    std::fprintf(stderr, "mumak: %s\n", warning.c_str());
  }
  Report report = AnalyzeStream(trace.stream, stats);
  if (stats != nullptr) {
    stats->elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  }
  return report;
}

Report TraceAnalyzer::AnalyzeStream(const TraceStream& stream,
                                    TraceStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  if (jobs_ > 1 && stream.blocks() > 1) {
    AnalyzeBlocksParallel(stream, impl_.get(), jobs_);
  } else {
    TraceBlockDecoder decoder;
    for (size_t b = 0; b < stream.blocks(); ++b) {
      const TraceBlockView& view = stream.DecodeBlock(b, &decoder);
      for (size_t i = 0; i < view.count; ++i) {
        OnEvent(view.Event(i));
      }
    }
  }
  return FinishTimed(start, stats);
}

Report TraceAnalyzer::FinishTimed(
    std::chrono::steady_clock::time_point start, TraceStats* stats) {
  Report report = Finish(stats);
  if (stats != nullptr) {
    stats->elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  }
  return report;
}

}  // namespace mumak
