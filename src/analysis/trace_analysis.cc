#include "src/analysis/trace_analysis.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/analysis/sharded_analyzer.h"
#include "src/instrument/trace.h"

namespace mumak {
namespace {

// Fills the next frame's header and encoded bytes; false at the end.
using FrameSource =
    std::function<bool(TraceBlockHeader*, std::vector<uint8_t>*)>;

// Block-parallel offline analysis of a v3 trace. The expensive part of
// reading a compressed columnar trace is decompress+decode, and blocks are
// independent — so `jobs` workers decode concurrently while the calling
// thread only copies frames in and dispatches in order. Events still reach
// the sharded dispatcher in exact trace order (blocks are consumed by
// block number), which is what keeps the merged report byte-identical to a
// serial pass. A block that fails to decode is skipped with a warning when
// `skip_corrupt` (an archived file); otherwise the analysis throws.
void AnalyzeV3BlockParallel(const FrameSource& next_frame, bool skip_corrupt,
                            ShardedAnalysis* impl, uint32_t jobs) {
  struct Frame {
    size_t no = 0;
    TraceBlockHeader header;
    std::vector<uint8_t> encoded;
  };
  struct Decoded {
    std::unique_ptr<TraceBlockDecoder> decoder;
    std::string error;  // empty when the block decoded
  };

  std::mutex mutex;
  std::condition_variable work_cv;   // workers: a frame awaits decoding
  std::condition_variable done_cv;   // consumer: a block finished decoding
  std::deque<Frame> work;
  std::map<size_t, Decoded> done;
  std::vector<std::unique_ptr<TraceBlockDecoder>> decoder_pool;
  // Decoded frames' byte buffers, handed back to the reader, so steady
  // state allocates no frame either.
  std::vector<std::vector<uint8_t>> frame_pool;
  bool no_more_frames = false;

  // Bound on blocks in flight (queued + decoding + decoded-but-unconsumed)
  // so a fast reader cannot balloon memory ahead of a slow consumer.
  const size_t window = static_cast<size_t>(jobs) * 2;

  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (uint32_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        Frame frame;
        std::unique_ptr<TraceBlockDecoder> decoder;
        {
          std::unique_lock<std::mutex> lock(mutex);
          work_cv.wait(lock, [&] { return !work.empty() || no_more_frames; });
          if (work.empty()) {
            return;
          }
          frame = std::move(work.front());
          work.pop_front();
          if (!decoder_pool.empty()) {
            decoder = std::move(decoder_pool.back());
            decoder_pool.pop_back();
          }
        }
        if (decoder == nullptr) {
          decoder = std::make_unique<TraceBlockDecoder>();
        }
        std::string block_error;  // stays empty when the block decodes
        decoder->Decode(frame.header, frame.encoded.data(), &block_error);
        {
          std::lock_guard<std::mutex> lock(mutex);
          frame_pool.push_back(std::move(frame.encoded));
          done.emplace(frame.no,
                       Decoded{std::move(decoder), std::move(block_error)});
        }
        done_cv.notify_all();
      }
    });
  }

  std::string failure;      // a non-skippable decode failure
  size_t next_read = 0;     // next block number handed to a worker
  size_t next_consume = 0;  // next block number fed to the dispatcher
  for (;;) {
    // Keep the window full: fetch raw frames (cheap) and hand them to the
    // decode workers.
    while (!no_more_frames && next_read - next_consume < window) {
      Frame frame;
      frame.no = next_read;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!frame_pool.empty()) {
          frame.encoded = std::move(frame_pool.back());
          frame_pool.pop_back();
        }
      }
      if (!next_frame(&frame.header, &frame.encoded)) {
        std::lock_guard<std::mutex> lock(mutex);
        no_more_frames = true;
        work_cv.notify_all();
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        work.push_back(std::move(frame));
        ++next_read;
      }
      work_cv.notify_one();
    }
    if (next_consume == next_read && no_more_frames) {
      break;
    }
    Decoded block;
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return done.count(next_consume) != 0; });
      auto it = done.find(next_consume);
      block = std::move(it->second);
      done.erase(it);
    }
    if (block.error.empty()) {
      const TraceBlockView& view = block.decoder->view();
      for (size_t i = 0; i < view.count; ++i) {
        impl->OnEvent(view.Event(i));
      }
    } else if (skip_corrupt) {
      std::fprintf(stderr, "mumak: trace block %zu skipped (%s)\n",
                   next_consume, block.error.c_str());
    } else {
      failure = "trace block " + std::to_string(next_consume) +
                " failed to decode: " + block.error;
      std::lock_guard<std::mutex> lock(mutex);  // workers drain and exit
      no_more_frames = true;
      work_cv.notify_all();
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      decoder_pool.push_back(std::move(block.decoder));
    }
    ++next_consume;
  }
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
  // Stream in bounded batches: analysis memory stays proportional to the
  // tracked line set, never the trace length.
  TraceFileReader reader(path);
  if (reader.version() == kTraceVersionV3 && jobs_ > 1 &&
      reader.block_index().size() > 1) {
    AnalyzeV3BlockParallel(
        [&reader](TraceBlockHeader* header, std::vector<uint8_t>* encoded) {
          return reader.NextRawBlock(header, encoded);
        },
        /*skip_corrupt=*/true, impl_.get(), jobs_);
  } else {
    std::vector<PmEvent> batch;
    while (reader.NextChunk(&batch, 4096)) {
      for (const PmEvent& event : batch) {
        OnEvent(event);
      }
    }
  }
  return FinishTimed(start, stats);
}

Report TraceAnalyzer::AnalyzeStream(const TraceStream& stream,
                                    TraceStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  if (jobs_ > 1 && stream.blocks() > 1) {
    size_t next = 0;
    AnalyzeV3BlockParallel(
        [&stream, &next](TraceBlockHeader* header,
                         std::vector<uint8_t>* encoded) {
          if (next == stream.blocks()) {
            return false;
          }
          const uint8_t* at =
              stream.bytes().data() + stream.block(next++).file_offset;
          std::memcpy(header, at, sizeof(*header));
          at += sizeof(*header);
          encoded->assign(at, at + header->encoded_len);
          return true;
        },
        /*skip_corrupt=*/false, impl_.get(), jobs_);
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
