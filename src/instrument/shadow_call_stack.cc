#include "src/instrument/shadow_call_stack.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <new>
#include <sstream>
#include <utility>

namespace mumak {
namespace {

std::atomic<uint64_t> next_registry_generation{1};

// A MUMAK_FRAME site as a per-thread cache holds it: its return address
// and its function name literal (two functions inlined into one caller
// share a return address), filed under CallSiteKey of the two and checked
// on every hit.
struct CachedCallSite {
  const void* call_site = nullptr;
  const char* function = nullptr;
  FrameId id = kInvalidFrame;
};

uint64_t CallSiteKey(const void* call_site, const char* function) {
  const uint64_t name = reinterpret_cast<uintptr_t>(function);
  return reinterpret_cast<uintptr_t>(call_site) ^ (name << 32 | name >> 32);
}

// One thread's memo of a registry's pointer-keyed lookups. It serves one
// registry generation at a time and starts over when another registry is
// asked: in practice only the global registry sits on the hot paths.
struct ThreadFrameCache {
  uint64_t generation = 0;
  FlatTable<FrameId> addresses;
  FlatTable<CachedCallSite> call_sites;
};

ThreadFrameCache& FrameCacheFor(uint64_t generation) {
  static thread_local ThreadFrameCache cache;
  if (cache.generation != generation) {
    cache.generation = generation;
    cache.addresses.Clear();
    cache.call_sites.Clear();
  }
  return cache;
}

}  // namespace

FrameRegistry::FrameRegistry() : generation_(next_registry_generation++) {}

FrameId FrameRegistry::Intern(std::string_view function, std::string_view file,
                              int line, const void* call_site) {
  std::unique_lock lock(mutex_);
  return InternLocked(function, file, line, call_site);
}

FrameId FrameRegistry::InternLocked(std::string_view function,
                                    std::string_view file, int line,
                                    const void* call_site) {
  std::string key;
  key.reserve(function.size() + file.size() + 32);
  key.append(function);
  key.push_back('@');
  key.append(file);
  key.push_back(':');
  key.append(std::to_string(line));
  if (call_site != nullptr) {
    key.push_back('<');
    key.append(std::to_string(reinterpret_cast<uintptr_t>(call_site)));
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    return it->second;
  }
  FrameId id = static_cast<FrameId>(frames_.size());
  frames_.push_back(Frame{std::string(function), std::string(file), line});
  index_.emplace(std::move(key), id);
  return id;
}

FrameId FrameRegistry::InternAddress(const void* address) {
  const uint64_t key = reinterpret_cast<uintptr_t>(address);
  FlatTable<FrameId>& cache = FrameCacheFor(generation_).addresses;
  if (const FrameId* cached = cache.Find(key)) {
    return *cached;
  }
  FrameId id = kInvalidFrame;
  {
    std::unique_lock lock(mutex_);
    const auto [known, fresh] = addresses_.TryEmplace(key);
    if (fresh) {
      char name[32];
      std::snprintf(name, sizeof(name), "pc:%p", address);
      *known = InternLocked(name, "", 0, nullptr);
    }
    id = *known;
  }
  cache[key] = id;
  return id;
}

FrameId FrameRegistry::InternCallSite(const void* call_site,
                                      std::string_view function,
                                      std::string_view file, int line) {
  if (call_site == nullptr) {
    return Intern(function, file, line);
  }
  // The function name literal's address is stable (string literals).
  const uint64_t key = CallSiteKey(call_site, function.data());
  FlatTable<CachedCallSite>& cache = FrameCacheFor(generation_).call_sites;
  if (const CachedCallSite* cached = cache.Find(key)) {
    if (cached->call_site == call_site &&
        cached->function == function.data()) {
      return cached->id;
    }
    return Intern(function, file, line, call_site);  // another pair's key
  }
  const FrameId id = Intern(function, file, line, call_site);
  cache[key] = {call_site, function.data(), id};
  return id;
}

std::string FrameRegistry::Describe(FrameId id) const {
  std::shared_lock lock(mutex_);
  if (id >= frames_.size()) {
    return "<unknown frame>";
  }
  const Frame& f = frames_[id];
  if (f.file.empty()) {
    return f.function;  // raw instruction-address frame
  }
  // Strip directories from the path for readable reports.
  std::string_view file = f.file;
  size_t slash = file.find_last_of('/');
  if (slash != std::string_view::npos) {
    file = file.substr(slash + 1);
  }
  std::ostringstream os;
  os << f.function << " at " << file << ":" << f.line;
  return os.str();
}

std::string_view FrameRegistry::FunctionName(FrameId id) const {
  std::shared_lock lock(mutex_);
  if (id >= frames_.size()) {
    return "<unknown>";
  }
  return frames_[id].function;
}

FrameRegistry& FrameRegistry::Global() {
  static FrameRegistry registry;
  // A child forked while another thread holds the lock (say, a lane
  // describing a finding's stack) would block forever at its first intern:
  // hold the lock across every fork, and give the child a fresh one (the
  // held one cannot be unlocked there; its owner thread is gone).
  static const int guarded = pthread_atfork(
      [] { registry.mutex_.lock(); }, [] { registry.mutex_.unlock(); },
      [] { new (&registry.mutex_) std::shared_mutex(); });
  (void)guarded;
  return registry;
}

std::string DescribeStack(std::span<const FrameId> frames) {
  std::ostringstream os;
  for (size_t i = frames.size(); i-- > 0;) {
    os << FrameRegistry::Global().Describe(frames[i]);
    if (i != 0) {
      os << " <- ";
    }
  }
  return os.str();
}

void ShadowCallStack::Push(FrameId id) {
  frames_.push_back(id);
  const auto [child, created] =
      children_.TryEmplace((uint64_t{id_} << 32) | id);
  if (created) {
    *child = static_cast<StackId>(nodes_.size());
    nodes_.push_back({id, id_});
  }
  id_ = *child;
}

std::vector<FrameId> ShadowCallStack::FramesOf(StackId id) const {
  std::vector<FrameId> frames;
  for (; id != kEmptyStack; id = nodes_[id].parent) {
    frames.push_back(nodes_[id].frame);
  }
  std::reverse(frames.begin(), frames.end());
  return frames;
}

ShadowCallStack& ShadowCallStack::Current() {
  static thread_local ShadowCallStack stack;
  return stack;
}

void StackTable::Freeze(const ShadowCallStack& stack) {
  seqs_.shrink_to_fit();
  ids_.shrink_to_fit();
  for (const ShadowCallStack::StackId id : ids_) {
    if (!frames_.contains(id)) {
      frames_.emplace(id, stack.FramesOf(id));
    }
  }
}

std::string StackTable::Describe(uint64_t seq) const {
  const auto after = std::upper_bound(seqs_.begin(), seqs_.end(), seq);
  if (after == seqs_.begin()) {
    return "";
  }
  return DescribeStack(frames_.at(ids_[after - seqs_.begin() - 1]));
}

size_t StackTable::FootprintBytes() const {
  size_t bytes = seqs_.capacity() * sizeof(uint64_t) +
                 ids_.capacity() * sizeof(ShadowCallStack::StackId);
  for (const auto& entry : frames_) {
    bytes += sizeof(entry) + entry.second.capacity() * sizeof(FrameId);
  }
  return bytes;
}

ScopedFrame::ScopedFrame(std::string_view function, std::string_view file,
                         int line, const void* call_site) {
  const FrameId id =
      FrameRegistry::Global().InternCallSite(call_site, function, file, line);
  ShadowCallStack::Current().Push(id);
}

ScopedFrame::~ScopedFrame() { ShadowCallStack::Current().Pop(); }

}  // namespace mumak
