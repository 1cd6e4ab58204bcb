// Tests for the instrumentation layer: event stream semantics, shadow call
// stack, frame registry, the flat hash table behind the per-event lookups,
// trace serialisation and deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/instrument/deterministic_random.h"
#include "src/instrument/event_hub.h"
#include "src/instrument/flat_table.h"
#include "src/instrument/shadow_call_stack.h"
#include "src/instrument/trace.h"
#include "src/workload/workload.h"

namespace mumak {
namespace {

TEST(EventKindTest, Classification) {
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kClwb));
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kSfence));
  EXPECT_TRUE(IsPersistencyInstruction(EventKind::kRmw));
  EXPECT_FALSE(IsPersistencyInstruction(EventKind::kStore));
  EXPECT_FALSE(IsPersistencyInstruction(EventKind::kLoad));

  EXPECT_TRUE(IsFence(EventKind::kMfence));
  EXPECT_FALSE(IsFence(EventKind::kClflushOpt));
  EXPECT_TRUE(IsFlush(EventKind::kClflush));
  EXPECT_FALSE(IsFlush(EventKind::kSfence));
  EXPECT_TRUE(IsStore(EventKind::kNtStore));
}

TEST(EventHubTest, SinksReceiveInOrder) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    uint64_t last_seq = 0;
    void OnEvent(const PmEvent& ev) override {
      ++events;
      last_seq = ev.seq;
    }
  } a, b;
  hub.AddSink(&a);
  hub.AddSink(&b);
  PmEvent ev;
  ev.seq = hub.next_seq();
  hub.Publish(ev);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(b.events, 1);
  hub.RemoveSink(&a);
  ev.seq = hub.next_seq();
  hub.Publish(ev);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(b.events, 2);
  EXPECT_EQ(b.last_seq, 1u);
}

TEST(EventHubTest, ScopedSinkDetaches) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } sink;
  {
    ScopedSink attach(hub, &sink);
    hub.Publish(PmEvent{});
  }
  hub.Publish(PmEvent{});
  EXPECT_EQ(sink.events, 1);
}

TEST(EventHubTest, SinkMayRemoveItselfDuringDispatch) {
  // A one-shot sink detaching from inside OnEvent must not derail the
  // dispatch loop: every other sink still sees the event, and the next
  // Publish no longer reaches the detached sink.
  EventHub hub;
  struct OneShot : EventSink {
    EventHub* hub = nullptr;
    int events = 0;
    void OnEvent(const PmEvent&) override {
      ++events;
      hub->RemoveSink(this);
    }
  } one_shot;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } before, after;
  one_shot.hub = &hub;
  hub.AddSink(&before);
  hub.AddSink(&one_shot);
  hub.AddSink(&after);
  hub.Publish(PmEvent{});
  EXPECT_EQ(before.events, 1);
  EXPECT_EQ(one_shot.events, 1);
  EXPECT_EQ(after.events, 1);  // removal at index <= current must not skip
  hub.Publish(PmEvent{});
  EXPECT_EQ(one_shot.events, 1);
  EXPECT_EQ(before.events, 2);
  EXPECT_EQ(after.events, 2);
}

TEST(EventHubTest, SinkMayRemoveAnEarlierSinkDuringDispatch) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } victim, tail;
  struct Remover : EventSink {
    EventHub* hub = nullptr;
    EventSink* target = nullptr;
    void OnEvent(const PmEvent&) override { hub->RemoveSink(target); }
  } remover;
  remover.hub = &hub;
  remover.target = &victim;
  hub.AddSink(&victim);
  hub.AddSink(&remover);
  hub.AddSink(&tail);
  hub.Publish(PmEvent{});
  // The victim saw this event (it preceded the remover); the tail must not
  // have been skipped by the mid-dispatch removal.
  EXPECT_EQ(victim.events, 1);
  EXPECT_EQ(tail.events, 1);
  hub.Publish(PmEvent{});
  EXPECT_EQ(victim.events, 1);
  EXPECT_EQ(tail.events, 2);
}

TEST(EventHubTest, SinkMayAddASinkDuringDispatch) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } late;
  struct Adder : EventSink {
    EventHub* hub = nullptr;
    EventSink* to_add = nullptr;
    bool added = false;
    void OnEvent(const PmEvent&) override {
      if (!added) {
        hub->AddSink(to_add);
        added = true;
      }
    }
  } adder;
  adder.hub = &hub;
  adder.to_add = &late;
  hub.AddSink(&adder);
  hub.Publish(PmEvent{});
  hub.Publish(PmEvent{});
  // Whether `late` saw the event it was added during is unspecified; it
  // must see every later one and the hub must stay consistent.
  EXPECT_GE(late.events, 1);
  hub.RemoveSink(&late);
  hub.Publish(PmEvent{});
  EXPECT_LE(late.events, 2);
}

TEST(EventHubTest, ClearDuringDispatchStopsFutureDelivery) {
  EventHub hub;
  struct Clearer : EventSink {
    EventHub* hub = nullptr;
    void OnEvent(const PmEvent&) override { hub->Clear(); }
  } clearer;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } tail;
  clearer.hub = &hub;
  hub.AddSink(&clearer);
  hub.AddSink(&tail);
  hub.Publish(PmEvent{});
  const int seen = tail.events;  // delivery during the clearing publish is
                                 // unspecified, but must not crash
  hub.Publish(PmEvent{});
  EXPECT_EQ(tail.events, seen);  // nothing after the clear
}

TEST(EventHubTest, DisableSuppressesPublish) {
  EventHub hub;
  struct Counter : EventSink {
    int events = 0;
    void OnEvent(const PmEvent&) override { ++events; }
  } sink;
  hub.AddSink(&sink);
  {
    ScopedInstrumentationOff off(hub);
    hub.Publish(PmEvent{});
    EXPECT_FALSE(hub.enabled());
  }
  EXPECT_TRUE(hub.enabled());
  hub.Publish(PmEvent{});
  EXPECT_EQ(sink.events, 1);
}

TEST(FrameRegistryTest, InterningIsStable) {
  FrameRegistry registry;
  const FrameId a = registry.Intern("Insert", "tree.cc", 10);
  const FrameId b = registry.Intern("Insert", "tree.cc", 10);
  const FrameId c = registry.Intern("Insert", "tree.cc", 11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.Describe(a), "Insert at tree.cc:10");
  EXPECT_EQ(registry.FunctionName(a), "Insert");
}

TEST(FrameRegistryTest, CallSitesDistinguishInvocations) {
  // The same function marked from two call sites must intern differently —
  // the precision the failure point tree depends on.
  FrameRegistry registry;
  int x = 0;
  const FrameId a = registry.Intern("F", "f.cc", 1, &x);
  const FrameId b = registry.Intern("F", "f.cc", 1, &x + 1);
  EXPECT_NE(a, b);
}

TEST(FrameRegistryTest, ConcurrentInterningIsConsistent) {
  // Parallel fault-injection workers intern frames and call sites
  // concurrently; identical inputs must resolve to one id no matter which
  // thread got there first.
  constexpr int kThreads = 8;
  constexpr int kNames = 32;
  std::vector<std::vector<FrameId>> ids(kThreads,
                                        std::vector<FrameId>(kNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int n = 0; n < kNames; ++n) {
        ids[t][n] = FrameRegistry::Global().Intern(
            "concurrent_fn_" + std::to_string(n), "c.cc", n);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  // Describe resolves every id while other threads are still interning
  // fresh names (shared/exclusive interleaving).
  std::thread churn([] {
    for (int n = 0; n < 256; ++n) {
      FrameRegistry::Global().Intern("churn_fn_" + std::to_string(n),
                                     "churn.cc", n);
    }
  });
  for (int n = 0; n < kNames; ++n) {
    EXPECT_NE(FrameRegistry::Global().Describe(ids[0][n]).find(
                  "concurrent_fn_"),
              std::string::npos);
  }
  churn.join();
}

TEST(FrameRegistryTest, ConcurrentAddressInterningIsConsistent) {
  constexpr int kThreads = 8;
  static int dummy[16];  // stable addresses to intern
  std::vector<std::vector<FrameId>> ids(kThreads, std::vector<FrameId>(16));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int n = 0; n < 16; ++n) {
        ids[t][n] = FrameRegistry::Global().InternAddress(&dummy[n]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
}

TEST(FrameRegistryTest, ConcurrentCallSiteInterningIsConsistent) {
  // MUMAK_FRAME interns through a per-thread cache; every thread must still
  // get one id per (call site, function), and the id must name the frame.
  constexpr int kThreads = 8;
  constexpr int kSites = 64;
  static char code[kSites];  // stand-in return addresses
  std::vector<std::vector<FrameId>> ids(kThreads,
                                        std::vector<FrameId>(2 * kSites));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int n = 0; n < kSites; ++n) {
        ids[t][2 * n] = FrameRegistry::Global().InternCallSite(
            &code[n], "cached_outer", "cs.cc", n);
        ids[t][2 * n + 1] = FrameRegistry::Global().InternCallSite(
            &code[n], "cached_inner", "cs.cc", n);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  for (int n = 0; n < kSites; ++n) {
    // Two functions inlined at one return address stay distinct frames.
    EXPECT_NE(ids[0][2 * n], ids[0][2 * n + 1]);
    EXPECT_EQ(FrameRegistry::Global().Describe(ids[0][2 * n]),
              "cached_outer at cs.cc:" + std::to_string(n));
  }
}

TEST(FrameRegistryTest, RegistryInFreedStorageDoesNotInheritCachedIds) {
  // The per-thread caches key on the registry's generation, not its
  // address: a registry built where a destroyed one lived starts empty.
  alignas(FrameRegistry) unsigned char storage[sizeof(FrameRegistry)];
  static int site;
  static char call_site;
  FrameRegistry* first = new (storage) FrameRegistry();
  first->Intern("padding", "p.cc", 1);
  EXPECT_EQ(first->InternAddress(&site), 1u);
  EXPECT_EQ(first->InternCallSite(&call_site, "Fn", "f.cc", 3), 2u);
  first->~FrameRegistry();
  FrameRegistry* second = new (storage) FrameRegistry();
  EXPECT_EQ(second->InternCallSite(&call_site, "Fn", "f.cc", 3), 0u);
  EXPECT_EQ(second->InternAddress(&site), 1u);
  EXPECT_EQ(second->Describe(0), "Fn at f.cc:3");
  EXPECT_EQ(second->size(), 2u);
  second->~FrameRegistry();
}

TEST(FrameRegistryTest, ColdThreadCachesInternToTheSameIds) {
  // A fresh registry has a generation no thread's cache has seen, so both
  // threads start cold: every address misses into the registry's pointer
  // index and every call site into its string index, racing each other.
  FrameRegistry registry;
  constexpr int kSites = 48;
  static char code[kSites];
  std::vector<FrameId> ids[2];
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([t, &registry, &ids] {
      for (int round = 0; round < 2; ++round) {  // the second one hits
        for (int n = 0; n < kSites; ++n) {
          const int site = t == 0 ? n : kSites - 1 - n;  // opposite orders
          ids[t].push_back(registry.InternAddress(&code[site]));
          ids[t].push_back(
              registry.InternCallSite(&code[site], "cold_outer", "c.cc", 1));
          ids[t].push_back(
              registry.InternCallSite(&code[site], "cold_inner", "c.cc", 2));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Thread 1 walked the sites backwards: line its ids up with thread 0's.
  for (int round = 0; round < 2; ++round) {
    for (int n = 0; n < kSites; ++n) {
      for (int k = 0; k < 3; ++k) {
        const size_t mine = (round * kSites + n) * 3 + k;
        const size_t theirs = (round * kSites + kSites - 1 - n) * 3 + k;
        ASSERT_EQ(ids[0][mine], ids[1][theirs]) << "site " << n << " #" << k;
      }
    }
  }
  EXPECT_EQ(registry.size(), 3u * kSites);
  char name[32];
  std::snprintf(name, sizeof(name), "pc:%p", static_cast<void*>(&code[0]));
  EXPECT_EQ(registry.Describe(ids[0][0]), name);
  // The address frame is the one its name interns to.
  EXPECT_EQ(registry.Intern(name, "", 0), ids[0][0]);
}

// -- FlatTable --------------------------------------------------------------

// The table's contents equal the reference map's, both ways.
void ExpectSameContents(const FlatTable<uint64_t>& table,
                        const std::unordered_map<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(table.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const uint64_t* found = table.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    ASSERT_EQ(*found, value) << "key " << key;
  }
  size_t visited = 0;
  for (const auto& [key, value] : table) {
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key;
    ASSERT_EQ(value, it->second) << "key " << key;
    ++visited;
  }
  ASSERT_EQ(visited, ref.size());
}

// Seeded random insert/find/erase/clear sequences, mirrored on
// std::unordered_map and compared after every step. A small key space
// makes long probe runs and repeated hits; the table grows mid-sequence.
TEST(FlatTableTest, MatchesUnorderedMapUnderRandomOperations) {
  for (const uint64_t key_space :
       {uint64_t{24}, uint64_t{300}, ~uint64_t{0}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("key space " + std::to_string(key_space) + ", seed " +
                   std::to_string(seed));
      DeterministicRandom rng(seed * 7919 + key_space);
      FlatTable<uint64_t> table;
      std::unordered_map<uint64_t, uint64_t> ref;
      std::vector<uint64_t> keys;  // every key inserted so far
      size_t grown = 0;
      for (int step = 0; step < 3000; ++step) {
        const uint64_t action = rng.NextBelow(100);
        // Mostly keys seen before, so finds and erases hit.
        const uint64_t key = !keys.empty() && rng.NextBelow(2) == 0
                                 ? keys[rng.NextBelow(keys.size())]
                                 : rng.Next() % key_space;
        const size_t capacity = table.capacity();
        if (action < 50) {
          const uint64_t value = rng.Next();
          const auto [slot, inserted] = table.TryEmplace(key);
          ASSERT_EQ(inserted, !ref.contains(key));
          if (inserted) {
            ASSERT_EQ(*slot, 0u);  // value-initialized
            keys.push_back(key);
          }
          *slot = value;
          ref[key] = value;
        } else if (action < 70) {
          ASSERT_EQ(table.Contains(key), ref.contains(key));
        } else if (action < 99) {
          ASSERT_EQ(table.Erase(key), ref.erase(key) == 1);
        } else {
          table.Clear();
          ref.clear();
          ASSERT_EQ(table.capacity(), capacity);  // storage kept
        }
        grown += table.capacity() > capacity ? 1 : 0;
        ExpectSameContents(table, ref);
      }
      EXPECT_GT(grown, 0u);
    }
  }
}

// A probe run that wraps from the last index slot to the first, with its
// first and last slots erased in turn: every other key must stay
// reachable through the backward shift.
TEST(FlatTableTest, EraseKeepsAWrappingRunReachable) {
  FlatTable<uint64_t> table;
  table.TryEmplace(0);  // allocates the first index
  table.Erase(0);
  const size_t slots = table.capacity();
  ASSERT_GT(slots, 0u);
  // Three keys homed on the last slot, two on the first: the run covers
  // slots (last, 0, 1, 2, 3).
  std::vector<uint64_t> homed_last, homed_first;
  for (uint64_t key = 1; homed_last.size() < 3 || homed_first.size() < 2;
       ++key) {
    const size_t home = table.HomeSlot(key);
    if (home == slots - 1 && homed_last.size() < 3) {
      homed_last.push_back(key);
    } else if (home == 0 && homed_first.size() < 2) {
      homed_first.push_back(key);
    }
  }
  const uint64_t order[] = {homed_last[0], homed_last[1], homed_last[2],
                            homed_first[0], homed_first[1]};
  const auto fill = [&](std::unordered_map<uint64_t, uint64_t>* ref) {
    table.Clear();
    ref->clear();
    for (const uint64_t key : order) {
      table[key] = key * 10;
      (*ref)[key] = key * 10;
    }
    ASSERT_EQ(table.capacity(), slots);  // no growth: the layout holds
  };
  std::unordered_map<uint64_t, uint64_t> ref;
  // The run's first slot (the last index slot), its last slot, and a
  // middle one past the wrap, each from a freshly filled run.
  for (const uint64_t victim : {order[0], order[4], order[1], order[3]}) {
    SCOPED_TRACE("erase " + std::to_string(victim));
    fill(&ref);
    ASSERT_TRUE(table.Erase(victim));
    ref.erase(victim);
    ExpectSameContents(table, ref);
    ASSERT_FALSE(table.Erase(victim));
  }
  // Emptying the run from the front one key at a time.
  fill(&ref);
  for (const uint64_t key : order) {
    ASSERT_TRUE(table.Erase(key));
    ref.erase(key);
    ExpectSameContents(table, ref);
  }
}

TEST(FlatTableTest, AllocatesNothingUntilTheFirstInsert) {
  FlatTable<uint64_t> table;
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_FALSE(table.Erase(7));
  table.Clear();
  EXPECT_EQ(table.capacity(), 0u);
  table[7] = 1;
  EXPECT_GT(table.capacity(), 0u);
}

TEST(ShadowCallStackTest, PushPopAndDescribe) {
  ShadowCallStack stack;
  const FrameId f = FrameRegistry::Global().Intern("Outer", "a.cc", 1);
  const FrameId g = FrameRegistry::Global().Intern("Inner", "a.cc", 9);
  stack.Push(f);
  stack.Push(g);
  EXPECT_EQ(stack.depth(), 2u);
  EXPECT_EQ(stack.frames()[0], f);
  stack.Pop();
  EXPECT_EQ(stack.depth(), 1u);
  stack.Clear();
  EXPECT_TRUE(stack.empty());
}

TEST(ShadowCallStackTest, IdDeterminesFrames) {
  ShadowCallStack stack;
  const FrameId a = FrameRegistry::Global().Intern("TrieA", "t.cc", 1);
  const FrameId b = FrameRegistry::Global().Intern("TrieB", "t.cc", 2);
  const FrameId c = FrameRegistry::Global().Intern("TrieC", "t.cc", 3);
  EXPECT_EQ(stack.id(), ShadowCallStack::kEmptyStack);
  stack.Push(a);
  stack.Push(b);
  const ShadowCallStack::StackId ab = stack.id();
  stack.Pop();
  stack.Push(c);
  const ShadowCallStack::StackId ac = stack.id();
  EXPECT_NE(ab, ac);
  stack.Pop();
  stack.Pop();
  stack.Push(a);
  stack.Push(b);
  EXPECT_EQ(stack.id(), ab);  // the same path returns to the same node
  stack.Clear();
  stack.Push(b);
  stack.Push(a);
  EXPECT_NE(stack.id(), ab);  // frame order is part of the path
  EXPECT_EQ(stack.FramesOf(ab), (std::vector<FrameId>{a, b}));
  EXPECT_EQ(stack.FramesOf(ac), (std::vector<FrameId>{a, c}));
}

TEST(ShadowCallStackTest, PopReturnsToTheParentId) {
  ShadowCallStack stack;
  stack.Push(1);
  const ShadowCallStack::StackId one = stack.id();
  stack.Push(2);
  const ShadowCallStack::StackId two = stack.id();
  stack.Push(3);
  stack.Pop();
  EXPECT_EQ(stack.id(), two);
  stack.Pop();
  EXPECT_EQ(stack.id(), one);
  stack.Pop();
  EXPECT_EQ(stack.id(), ShadowCallStack::kEmptyStack);
  stack.Pop();  // popping the empty stack is a no-op
  EXPECT_EQ(stack.id(), ShadowCallStack::kEmptyStack);
  EXPECT_TRUE(stack.empty());
}

TEST(ShadowCallStackTest, FramesOfRoundTrips) {
  // A random walk of pushes and pops: at every step the current id's
  // frames are exactly the live frames.
  ShadowCallStack stack;
  DeterministicRandom rng(7);
  for (int step = 0; step < 4000; ++step) {
    if (!stack.empty() && rng.NextBelow(3) == 0) {
      stack.Pop();
    } else {
      stack.Push(static_cast<FrameId>(rng.NextBelow(5)));
    }
    const std::span<const FrameId> live = stack.frames();
    ASSERT_EQ(stack.FramesOf(stack.id()),
              std::vector<FrameId>(live.begin(), live.end()));
  }
}

TEST(ShadowCallStackTest, ClearGivesTheEmptyId) {
  ShadowCallStack stack;
  stack.Push(4);
  stack.Push(5);
  stack.Clear();
  EXPECT_EQ(stack.id(), ShadowCallStack::kEmptyStack);
  EXPECT_TRUE(stack.FramesOf(stack.id()).empty());
  stack.Push(4);
  EXPECT_EQ(stack.FramesOf(stack.id()), (std::vector<FrameId>{4}));
}

void ThrowThroughFrames(int depth) {
  MUMAK_FRAME();
  if (depth == 0) {
    throw std::runtime_error("injected crash");
  }
  ThrowThroughFrames(depth - 1);
}

TEST(ShadowCallStackTest, UnwindingThroughFramesRestoresTheId) {
  // A CrashSignal unwinds the target through its MUMAK_FRAMEs; the stack
  // must come back to the id it had before the call.
  MUMAK_FRAME();
  const ShadowCallStack& stack = ShadowCallStack::Current();
  const ShadowCallStack::StackId before = stack.id();
  const size_t depth = stack.depth();
  EXPECT_THROW(ThrowThroughFrames(3), std::runtime_error);
  EXPECT_EQ(stack.id(), before);
  EXPECT_EQ(stack.depth(), depth);
}

TEST(ShadowCallStackTest, ScopedFrameIsRaii) {
  const size_t depth_before = ShadowCallStack::Current().depth();
  {
    MUMAK_FRAME();
    EXPECT_EQ(ShadowCallStack::Current().depth(), depth_before + 1);
  }
  EXPECT_EQ(ShadowCallStack::Current().depth(), depth_before);
}

// -- Trace files through the loader ---------------------------------------------

// Writes `events` as a flat-row file (v1, or v2 when `payloads` is given:
// one entry per event, empty for none).
std::string WriteRows(const std::vector<PmEvent>& events,
                      const std::string& name,
                      const std::vector<std::vector<uint8_t>>* payloads =
                          nullptr) {
  const std::string path = ::testing::TempDir() + "/" + name;
  TraceSinkOptions options;
  options.with_payloads = payloads != nullptr;
  TraceFileSink sink(path, options);
  for (size_t i = 0; i < events.size(); ++i) {
    PmEvent ev = events[i];
    if (payloads != nullptr && !(*payloads)[i].empty()) {
      ev.payload = (*payloads)[i].data();
    }
    sink.OnEvent(ev);
  }
  sink.Close();
  return path;
}

// Every event of a loaded trace, with the bytes its store wrote.
struct Rows {
  std::vector<PmEvent> events;
  std::vector<std::vector<uint8_t>> payloads;
};

Rows Decode(const TraceStream& stream) {
  Rows rows;
  TraceBlockDecoder decoder;
  for (size_t b = 0; b < stream.blocks(); ++b) {
    const TraceBlockView& view = stream.DecodeBlock(b, &decoder);
    for (size_t i = 0; i < view.count; ++i) {
      rows.events.push_back(view.Event(i));
      rows.payloads.emplace_back();
      if (view.HasPayload(i)) {
        rows.payloads.back().assign(view.Payload(i),
                                    view.Payload(i) + view.sizes[i]);
      }
    }
  }
  return rows;
}

TEST(TraceLoadTest, RoundTrip) {
  std::vector<PmEvent> events;
  for (uint64_t i = 0; i < 100; ++i) {
    PmEvent ev;
    ev.kind = static_cast<EventKind>(i % 8);
    ev.offset = i * 64;
    ev.size = 8;
    ev.site = static_cast<uint32_t>(i);
    ev.seq = i;
    events.push_back(ev);
  }
  LoadedTrace trace;
  ASSERT_TRUE(LoadTraceFile(WriteRows(events, "rows.bin"), &trace, nullptr));
  const std::vector<PmEvent> loaded = Decode(trace.stream).events;
  ASSERT_EQ(loaded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, events[i].kind);
    EXPECT_EQ(loaded[i].offset, events[i].offset);
    EXPECT_EQ(loaded[i].size, events[i].size);
    EXPECT_EQ(loaded[i].site, events[i].site);
    EXPECT_EQ(loaded[i].seq, events[i].seq);
  }
}

TEST(TraceLoadTest, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a trace";
  LoadedTrace trace;
  EXPECT_FALSE(LoadTrace(buffer, &trace, nullptr));
}

TEST(TraceLoadTest, FileRoundTrip) {
  std::vector<PmEvent> events(3);
  events[1].seq = 7;
  events[2].seq = 8;  // seqs ascend in every recorded trace
  LoadedTrace trace;
  ASSERT_TRUE(LoadTraceFile(WriteRows(events, "trace.bin"), &trace, nullptr));
  const std::vector<PmEvent> loaded = Decode(trace.stream).events;
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[1].seq, 7u);
}

TEST(TraceFileTest, SinkAndReaderRoundTrip) {
  const std::string path = ::testing::TempDir() + "/spool.bin";
  {
    TraceFileSink sink(path, TraceSinkOptions{});
    ASSERT_TRUE(sink.ok());
    for (uint64_t i = 0; i < 10000; ++i) {
      PmEvent ev;
      ev.kind = EventKind::kStore;
      ev.offset = i * 8;
      ev.size = 8;
      ev.site = static_cast<uint32_t>(i & 0xff);
      ev.seq = i;
      sink.OnEvent(ev);
    }
    sink.Close();
    EXPECT_EQ(sink.count(), 10000u);
  }
  LoadedTrace trace;
  ASSERT_TRUE(LoadTraceFile(path, &trace, nullptr));
  EXPECT_EQ(trace.stream.events(), 10000u);
  uint64_t seen = 0;
  for (const PmEvent& ev : Decode(trace.stream).events) {
    EXPECT_EQ(ev.seq, seen);
    EXPECT_EQ(ev.offset, seen * 8);
    ++seen;
  }
  EXPECT_EQ(seen, 10000u);
}

TEST(TraceFileTest, SpooledFileLoads) {
  const std::string path = ::testing::TempDir() + "/spool2.bin";
  {
    TraceFileSink sink(path, TraceSinkOptions{});
    PmEvent ev;
    ev.seq = 5;
    sink.OnEvent(ev);
    sink.Close();
  }
  LoadedTrace trace;
  ASSERT_TRUE(LoadTraceFile(path, &trace, nullptr));
  const std::vector<PmEvent> events = Decode(trace.stream).events;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 5u);
}

TEST(TraceFileTest, ReaderRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream out(path);
    out << "junk";
  }
  LoadedTrace trace;
  std::string error;
  EXPECT_FALSE(LoadTraceFile(path, &trace, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

// -- Store payloads (trace format version 2) ---------------------------------

TEST(TraceLoadTest, PayloadRoundTrip) {
  std::vector<PmEvent> events;
  std::vector<std::vector<uint8_t>> stored;
  for (uint64_t i = 0; i < 50; ++i) {
    PmEvent ev;
    ev.seq = i;
    stored.emplace_back();
    if (i % 3 == 0) {
      ev.kind = EventKind::kStore;
      ev.offset = i * 8;
      ev.size = 8;
      for (size_t b = 0; b < 8; ++b) {
        stored.back().push_back(static_cast<uint8_t>(i + b));
      }
    } else {
      ev.kind = EventKind::kClwb;
      ev.offset = i * 8;
      ev.size = 64;
    }
    events.push_back(ev);
  }
  LoadedTrace trace;
  std::string error;
  ASSERT_TRUE(LoadTraceFile(WriteRows(events, "payload_rows.bin", &stored),
                            &trace, &error))
      << error;
  EXPECT_EQ(trace.version, 2u);
  const Rows loaded = Decode(trace.stream);
  ASSERT_EQ(loaded.events.size(), events.size());
  for (size_t i = 0; i < loaded.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].seq, events[i].seq);
    ASSERT_EQ(loaded.payloads[i].empty(), stored[i].empty()) << "event " << i;
    EXPECT_EQ(loaded.payloads[i], stored[i])
        << "payload bytes differ at event " << i;
  }
}

TEST(TraceLoadTest, LegacyTraceReadsWithEmptyPayloads) {
  std::vector<PmEvent> events(4);
  events[1].seq = 1;
  events[2].seq = 9;
  events[3].seq = 10;
  LoadedTrace trace;
  ASSERT_TRUE(LoadTraceFile(WriteRows(events, "legacy_rows.bin"), &trace,
                            nullptr));  // no payloads -> version 1
  EXPECT_EQ(trace.version, 1u);
  const Rows loaded = Decode(trace.stream);
  ASSERT_EQ(loaded.events.size(), 4u);
  EXPECT_EQ(loaded.events[2].seq, 9u);
  for (const std::vector<uint8_t>& payload : loaded.payloads) {
    EXPECT_TRUE(payload.empty());
  }
  EXPECT_FALSE(trace.stream.with_payloads());
}

TEST(TraceLoadTest, RejectsFutureVersion) {
  std::stringstream buffer;
  buffer.write("MUMAKTR1", 8);
  const uint32_t version = 99;
  buffer.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t count = 0;
  buffer.write(reinterpret_cast<const char*>(&count), sizeof(count));
  LoadedTrace trace;
  std::string error;
  EXPECT_FALSE(LoadTrace(buffer, &trace, &error));
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
}

// Re-encoded rows pass the same checks as v3 bytes, so a loaded flat file
// is a stream TraceStream::Parse accepts.
TEST(TraceLoadTest, RejectsRowsAStreamCouldNotHold) {
  std::vector<PmEvent> descending(2);
  descending[0].seq = 5;
  descending[1].seq = 4;
  LoadedTrace trace;
  std::string error;
  EXPECT_FALSE(LoadTraceFile(WriteRows(descending, "descending_rows.bin"),
                             &trace, &error));
  EXPECT_NE(error.find("seqs do not ascend"), std::string::npos) << error;
  std::vector<PmEvent> unknown(1);
  unknown[0].kind = static_cast<EventKind>(200);
  EXPECT_FALSE(LoadTraceFile(WriteRows(unknown, "unknown_kind_rows.bin"),
                             &trace, &error));
  EXPECT_NE(error.find("invalid event kind"), std::string::npos) << error;
}

TEST(TraceFileTest, PayloadSpoolRoundTrip) {
  const std::string path = ::testing::TempDir() + "/payload_spool.bin";
  {
    TraceFileSink sink(path, TraceSinkOptions{.format = 0,
                                              .with_payloads = true});
    ASSERT_TRUE(sink.ok());
    for (uint64_t i = 0; i < 1000; ++i) {
      PmEvent ev;
      ev.seq = i;
      if (i % 2 == 0) {
        ev.kind = EventKind::kStore;
        ev.offset = i * 4;
        ev.size = 4;
        uint8_t bytes[4] = {static_cast<uint8_t>(i), 2, 3, 4};
        ev.payload = bytes;
        sink.OnEvent(ev);
      } else {
        ev.kind = EventKind::kSfence;
        sink.OnEvent(ev);
      }
    }
    sink.Close();
    EXPECT_EQ(sink.count(), 1000u);
    EXPECT_EQ(sink.payload_bytes(), 500u * 4);
  }
  LoadedTrace trace;
  std::string error;
  ASSERT_TRUE(LoadTraceFile(path, &trace, &error)) << error;
  EXPECT_EQ(trace.version, 2u);
  EXPECT_TRUE(trace.stream.with_payloads());
  // The site-name footer must still be reachable past the variable-length
  // payload records.
  EXPECT_FALSE(trace.site_names.empty());
  const Rows rows = Decode(trace.stream);
  uint64_t payload_bytes = 0;
  for (size_t i = 0; i < rows.events.size(); ++i) {
    if (rows.events[i].kind == EventKind::kStore) {
      const std::vector<uint8_t>& bytes = rows.payloads[i];
      ASSERT_EQ(bytes.size(), 4u) << "event " << i;
      EXPECT_EQ(bytes[0], static_cast<uint8_t>(rows.events[i].seq));
      EXPECT_EQ(bytes[1], 2u);
    } else {
      EXPECT_TRUE(rows.payloads[i].empty());
    }
    payload_bytes += rows.payloads[i].size();
  }
  EXPECT_EQ(rows.events.size(), 1000u);
  EXPECT_EQ(payload_bytes, 500u * 4);
}

TEST(TraceFileTest, PayloadlessSpoolStaysVersionOne) {
  const std::string path = ::testing::TempDir() + "/legacy_spool.bin";
  {
    TraceFileSink sink(path, TraceSinkOptions{});
    PmEvent ev;
    ev.kind = EventKind::kStore;
    ev.size = 8;
    uint8_t bytes[8] = {};
    ev.payload = bytes;  // ignored: the sink was not asked for payloads
    sink.OnEvent(ev);
    sink.Close();
  }
  LoadedTrace trace;
  std::string error;
  ASSERT_TRUE(LoadTraceFile(path, &trace, &error)) << error;
  EXPECT_EQ(trace.version, 1u);
  EXPECT_FALSE(trace.stream.with_payloads());
  const Rows rows = Decode(trace.stream);
  ASSERT_EQ(rows.payloads.size(), 1u);
  EXPECT_TRUE(rows.payloads[0].empty());
}

TEST(TraceFileTest, ReaderRejectsFutureVersion) {
  const std::string path = ::testing::TempDir() + "/future.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("MUMAKTR1", 8);
    const uint32_t version = 7;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  LoadedTrace trace;
  std::string error;
  EXPECT_FALSE(LoadTraceFile(path, &trace, &error));
  EXPECT_NE(error.find("version 7"), std::string::npos) << error;
}

TEST(TraceStreamWriterTest, CopiesPayloadOutOfTheBorrowedBuffer) {
  TraceStreamWriter writer(/*with_payloads=*/true);
  uint8_t bytes[4] = {0xaa, 0xbb, 0xcc, 0xdd};
  PmEvent ev;
  ev.kind = EventKind::kStore;
  ev.offset = 16;
  ev.size = 4;
  ev.payload = bytes;
  writer.OnEvent(ev);
  // The borrowed buffer is only valid during dispatch; clobber it.
  bytes[0] = 0;
  bytes[1] = 0;
  const TraceStream stream = writer.Finish();
  ASSERT_EQ(stream.events(), 1u);
  ASSERT_EQ(stream.blocks(), 1u);
  TraceBlockDecoder decoder;
  const TraceBlockView& view = stream.DecodeBlock(0, &decoder);
  ASSERT_TRUE(view.HasPayload(0));
  EXPECT_EQ(view.Payload(0)[0], 0xaa);
  EXPECT_EQ(view.Payload(0)[1], 0xbb);
}

TEST(DeterministicRandomTest, SameSeedSameStream) {
  DeterministicRandom a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  DeterministicRandom c(100);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(DeterministicRandomTest, BoundsRespected) {
  DeterministicRandom rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// -- Workload generator ------------------------------------------------------

TEST(WorkloadTest, DeterministicAndPrefixStable) {
  WorkloadSpec spec;
  spec.operations = 500;
  spec.key_space = 100;
  const auto a = WorkloadGenerator::Generate(spec);
  const auto b = WorkloadGenerator::Generate(spec);
  ASSERT_EQ(a.size(), 500u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  // A longer workload with the same seed and key space extends the shorter.
  WorkloadSpec longer = spec;
  longer.operations = 1000;
  const auto c = WorkloadGenerator::Generate(longer);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, c[i].key);
  }
}

TEST(WorkloadTest, MixRoughlyHonoured) {
  WorkloadSpec spec;
  spec.operations = 30000;
  spec.put_pct = 60;
  spec.get_pct = 30;
  spec.delete_pct = 10;
  uint64_t puts = 0, gets = 0, dels = 0;
  for (const Op& op : WorkloadGenerator::Generate(spec)) {
    puts += op.kind == OpKind::kPut;
    gets += op.kind == OpKind::kGet;
    dels += op.kind == OpKind::kDelete;
    EXPECT_LT(op.key, spec.EffectiveKeySpace());
    EXPECT_NE(op.value, 0u);
  }
  EXPECT_NEAR(static_cast<double>(puts) / spec.operations, 0.60, 0.02);
  EXPECT_NEAR(static_cast<double>(gets) / spec.operations, 0.30, 0.02);
  EXPECT_NEAR(static_cast<double>(dels) / spec.operations, 0.10, 0.02);
}

TEST(WorkloadTest, ZipfianSkews) {
  WorkloadSpec spec;
  spec.operations = 20000;
  spec.key_space = 1000;
  spec.distribution = KeyDistribution::kZipfian;
  std::map<uint64_t, uint64_t> histogram;
  for (const Op& op : WorkloadGenerator::Generate(spec)) {
    EXPECT_LT(op.key, 1000u);
    ++histogram[op.key];
  }
  // The hottest key must be dramatically more frequent than uniform.
  uint64_t hottest = 0;
  for (const auto& [key, count] : histogram) {
    hottest = std::max(hottest, count);
  }
  EXPECT_GT(hottest, 20000u / 1000u * 10);
}

TEST(WorkloadTest, ResetReplays) {
  WorkloadSpec spec;
  spec.operations = 50;
  WorkloadGenerator gen(spec);
  std::vector<uint64_t> first;
  while (!gen.Done()) {
    first.push_back(gen.Next().key);
  }
  gen.Reset();
  for (uint64_t key : first) {
    EXPECT_EQ(gen.Next().key, key);
  }
}

}  // namespace
}  // namespace mumak
