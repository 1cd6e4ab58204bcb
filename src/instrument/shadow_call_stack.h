// Shadow call stack: the substitute for Pin's PIN_Backtrace. Target programs
// mark functions with MUMAK_FRAME(); the resulting stack of interned frame
// ids is what the failure point tree is keyed on (§4.1, Figure 2).

#ifndef MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_
#define MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/instrument/flat_table.h"

namespace mumak {

using FrameId = uint32_t;

inline constexpr FrameId kInvalidFrame = 0xffffffffu;

// Interns (function, file, line) call sites into dense FrameIds. The paper
// uses raw instruction addresses (with ASLR disabled to keep them stable
// across runs); interned site ids give the same stability guarantee.
class FrameRegistry {
 public:
  FrameRegistry();

  FrameRegistry(const FrameRegistry&) = delete;
  FrameRegistry& operator=(const FrameRegistry&) = delete;

  // Returns a stable id for the call site; registering the same site twice
  // returns the same id. `call_site` is the code address the function
  // returns to, distinguishing the different places a function is called
  // from (the same precision as the instruction-address stacks Pin
  // collects; 0 when unknown).
  FrameId Intern(std::string_view function, std::string_view file, int line,
                 const void* call_site = nullptr);

  // Interns a raw code address (used for persistency-instruction sites,
  // mirroring the instruction addresses Pin reports) as the frame
  // "pc:<address>". Stable within a process. This runs on every PM event:
  // a hit in the calling thread's pointer-keyed cache takes no lock, and a
  // miss looks the address up by pointer before it builds the name.
  FrameId InternAddress(const void* address);

  // Interns a (function, file, line) frame keyed by its call site address
  // and function name literal — return addresses are unique program-wide
  // except where functions are inlined into one caller, so the pair
  // identifies the frame. Fast path for MUMAK_FRAME, cached per thread
  // like InternAddress.
  FrameId InternCallSite(const void* call_site, std::string_view function,
                         std::string_view file, int line);

  // Human readable "function at file:line" for bug reports.
  std::string Describe(FrameId id) const;

  std::string_view FunctionName(FrameId id) const;

  size_t size() const { return frames_.size(); }

  // Process-wide registry used by MUMAK_FRAME.
  static FrameRegistry& Global();

 private:
  struct Frame {
    std::string function;
    std::string file;
    int line = 0;
  };

  // Interning is thread-safe: parallel fault-injection workers intern
  // frames and sites concurrently. Reads take a shared lock, interning an
  // exclusive one; the pointer-keyed hot paths consult a per-thread cache
  // first, tagged with this registry's generation (unique per registry
  // ever constructed, so a registry built where a freed one lived never
  // sees its ids).
  mutable std::shared_mutex mutex_;
  std::vector<Frame> frames_;
  std::unordered_map<std::string, FrameId> index_;
  FlatTable<FrameId> addresses_;  // InternAddress's ids, by address
  const uint64_t generation_;

  // Intern's body; the caller holds mutex_ exclusively.
  FrameId InternLocked(std::string_view function, std::string_view file,
                       int line, const void* call_site);
};

// Renders a stack given outermost frame first as "inner <- ... <- outer"
// using the global registry.
std::string DescribeStack(std::span<const FrameId> frames);

// The shadow stack itself, tracked as a position in an interned trie of
// call paths: Push moves to a child node (created the first time) and Pop
// to the parent, so id() names the current stack at O(1) per call and an
// id always determines its frames. Ids are per stack; 0 is the empty
// stack. Single-threaded by design: Mumak's fault injection requires
// deterministic executions, and like the paper we drive targets with a
// deterministic single-threaded workload (each thread has its own stack).
class ShadowCallStack {
 public:
  using StackId = uint32_t;
  static constexpr StackId kEmptyStack = 0;

  ShadowCallStack() : nodes_{{kInvalidFrame, kEmptyStack}} {}

  void Push(FrameId id);
  void Pop() {
    if (!frames_.empty()) {
      frames_.pop_back();
      id_ = nodes_[id_].parent;
    }
  }

  StackId id() const { return id_; }
  std::span<const FrameId> frames() const { return frames_; }
  // The frames of any id this stack has been at, outermost first.
  std::vector<FrameId> FramesOf(StackId id) const;
  size_t depth() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }
  void Clear() {
    frames_.clear();
    id_ = kEmptyStack;
  }

  // Renders the current stack ("a <- b <- c") using the global registry.
  std::string Describe() const { return DescribeStack(frames_); }

  // Stack for the current thread of execution.
  static ShadowCallStack& Current();

 private:
  struct Node {
    FrameId frame;
    StackId parent;
  };

  std::vector<FrameId> frames_;
  StackId id_ = kEmptyStack;
  // The trie: nodes by id, and the child of each (parent id, frame) pair.
  // Grows only with distinct call paths.
  std::vector<Node> nodes_;
  FlatTable<StackId> children_;  // keyed by parent id << 32 | frame
};

// The shadow stack of every instruction counter of one execution: the
// stack id at each event where it changed, plus the frames of every id
// recorded. Profiling fills it, so a trace-analysis finding's call stack
// is a lookup instead of a backtrace re-execution (the paper's §5 keeps
// traces to instruction counters and re-executes for backtraces).
class StackTable {
 public:
  // Appends `id` at `seq` unless it equals the last appended id. Seqs must
  // rise.
  void Record(uint64_t seq, ShadowCallStack::StackId id) {
    if (ids_.empty() || ids_.back() != id) {
      seqs_.push_back(seq);
      ids_.push_back(id);
    }
  }
  // Copies in the frames of every recorded id from the stack they came
  // from, so Describe works on any thread.
  void Freeze(const ShadowCallStack& stack);

  // The stack live at `seq` (see DescribeStack); "" when empty.
  std::string Describe(uint64_t seq) const;

  size_t entries() const { return seqs_.size(); }
  size_t distinct_stacks() const { return frames_.size(); }
  size_t FootprintBytes() const;

 private:
  std::vector<uint64_t> seqs_;
  std::vector<ShadowCallStack::StackId> ids_;
  std::unordered_map<ShadowCallStack::StackId, std::vector<FrameId>> frames_;
};

// RAII frame marker. Usage inside target code:
//   void Insert(...) { MUMAK_FRAME(); ... }
class ScopedFrame {
 public:
  ScopedFrame(std::string_view function, std::string_view file, int line,
              const void* call_site = nullptr);
  ~ScopedFrame();

  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;
};

}  // namespace mumak

// __builtin_return_address(0), evaluated in the function body, is the code
// address the function returns to — i.e. the call site, which makes two
// invocations of the same function from different places distinct failure
// point path elements (the paper gets this from raw instruction addresses).
#define MUMAK_FRAME()                                             \
  ::mumak::ScopedFrame mumak_frame_marker_(__func__, __FILE__, __LINE__, \
                                           __builtin_return_address(0))

#endif  // MUMAK_SRC_INSTRUMENT_SHADOW_CALL_STACK_H_
