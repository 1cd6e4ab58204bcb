// Bounded single-producer/single-consumer ring: the channel between the
// trace-analysis dispatcher and one shard worker. Lock-free with cached
// peer indices (each side re-reads the other's atomic only when its cached
// copy says the ring looks full/empty), so the steady-state cost per item
// is one store on each side. An idle consumer can sleep (WaitForItems);
// the producer's next publish wakes it.

#ifndef MUMAK_SRC_ANALYSIS_SPSC_QUEUE_H_
#define MUMAK_SRC_ANALYSIS_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace mumak {

template <typename T>
class SpscQueue {
 public:
  // `capacity` must be a power of two.
  explicit SpscQueue(size_t capacity)
      : buffer_(capacity), mask_(capacity - 1) {}

  // Producer only: appends `n` items (n <= capacity) with a single
  // publish, amortising its cost across the batch, and wakes a sleeping
  // consumer. Spins (yielding) while the ring is full — the natural
  // backpressure that keeps a fast producer from outrunning the shards.
  void PushBatch(const T* items, size_t n) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    while (tail + n - cached_head_ > mask_ + 1) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail + n - cached_head_ > mask_ + 1) {
        std::this_thread::yield();
      }
    }
    for (size_t i = 0; i < n; ++i) {
      buffer_[(tail + i) & mask_] = items[i];
    }
    // Sequentially consistent with WaitForItems' two accesses: either the
    // consumer sees this tail or this load sees it asleep.
    tail_.store(tail + n, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst) != 0) {
      sleeping_.store(0, std::memory_order_release);
      sleeping_.notify_one();
    }
  }

  // Consumer only: pops up to `max` items into `out`; 0 means empty.
  size_t PopBatch(T* out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) {
        return 0;
      }
    }
    size_t n = static_cast<size_t>(cached_tail_ - head);
    if (n > max) {
      n = max;
    }
    for (size_t i = 0; i < n; ++i) {
      out[i] = buffer_[(head + i) & mask_];
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  // Consumer only: sleeps until the producer publishes past what PopBatch
  // last saw; returns at once if it already has. Costs the producer a
  // wake-up, so call it only after a spell of empty polls.
  void WaitForItems() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    sleeping_.store(1, std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_seq_cst) == head) {
      sleeping_.wait(1, std::memory_order_acquire);
    }
    sleeping_.store(0, std::memory_order_relaxed);
  }

  size_t capacity() const { return buffer_.size(); }
  size_t FootprintBytes() const { return buffer_.capacity() * sizeof(T); }

 private:
  std::vector<T> buffer_;
  const uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer index
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer index
  alignas(64) uint64_t cached_head_ = 0;       // producer-side cache
  alignas(64) uint64_t cached_tail_ = 0;       // consumer-side cache
  alignas(64) std::atomic<uint32_t> sleeping_{0};  // consumer is waiting
};

}  // namespace mumak

#endif  // MUMAK_SRC_ANALYSIS_SPSC_QUEUE_H_
