#include "src/targets/fast_fair.h"

#include <vector>

#include "src/instrument/shadow_call_stack.h"
#include "src/targets/code_size.h"

namespace mumak {
namespace {

constexpr uint64_t kFfMagic = 0x5249414654534146ull;  // "FASTFAIR"-ish

constexpr uint64_t kHdrMagic = 0x00;
constexpr uint64_t kHdrRoot = 0x08;
constexpr uint64_t kHdrCount = 0x10;
constexpr uint64_t kHdrDirty = 0x18;
constexpr uint64_t kHdrHeapHead = 0x20;
constexpr uint64_t kHeaderBytes = 0x40;

constexpr uint64_t kNodeBytes = 256;
constexpr uint64_t kRecordsBase = 32;  // records start after the header

}  // namespace

uint64_t FastFairTarget::RecordOffset(uint64_t node, int index) const {
  return node + kRecordsBase + static_cast<uint64_t>(index) * sizeof(Record);
}

FastFairTarget::Record FastFairTarget::ReadRecord(PmPool& pool, uint64_t node,
                                                  int index) const {
  return pool.ReadObject<Record>(RecordOffset(node, index));
}

void FastFairTarget::WriteRecord(PmPool& pool, uint64_t node, int index,
                                 const Record& record) {
  // FAST store order: value first, then the key — the 8-byte key store
  // publishes the record atomically.
  pool.WriteU64(RecordOffset(node, index) + offsetof(Record, value),
                record.value);
  pool.WriteU64(RecordOffset(node, index) + offsetof(Record, key),
                record.key);
}

int FastFairTarget::RecordCount(PmPool& pool, uint64_t node) const {
  int n = 0;
  while (n < kRecords && ReadRecord(pool, node, n).key != 0) {
    ++n;
  }
  return n;
}

uint64_t FastFairTarget::AllocNode(PmPool& pool, bool leaf) {
  MUMAK_FRAME();
  RawHeap heap(&pool, kHdrHeapHead);
  const uint64_t node = heap.Alloc(kNodeBytes);
  pool.Memset(node, 0, kNodeBytes);
  NodeHeader header;
  header.is_leaf = leaf ? 1 : 0;
  pool.WriteObject(node, header);
  pool.PersistRange(node, kNodeBytes);
  return node;
}

void FastFairTarget::Setup(PmPool& pool) {
  MUMAK_FRAME();
  RawHeap heap(&pool, kHdrHeapHead);
  heap.Init(kHeaderBytes + 64);
  const uint64_t root = AllocNode(pool, /*leaf=*/true);
  pool.WriteU64(kHdrMagic, kFfMagic);
  pool.WriteU64(kHdrRoot, root);
  DirtyCounter counter(&pool, kHdrCount, kHdrDirty);
  counter.Init(/*persist=*/false);  // covered by the header persist below
  pool.PersistRange(0, kHeaderBytes);
}

uint64_t FastFairTarget::FindLeaf(PmPool& pool, uint64_t key,
                                  std::vector<uint64_t>* path) {
  MUMAK_FRAME();
  uint64_t node = pool.ReadU64(kHdrRoot);
  for (int depth = 0; depth < 64; ++depth) {
    NodeHeader header = pool.ReadObject<NodeHeader>(node);
    if (header.is_leaf != 0) {
      return node;
    }
    if (path != nullptr) {
      path->push_back(node);
    }
    uint64_t child = header.leftmost;
    for (int i = 0; i < kRecords; ++i) {
      Record record = ReadRecord(pool, node, i);
      if (record.key == 0 || record.key > key) {
        break;
      }
      child = record.value;
    }
    node = child;
  }
  throw PmdkError("fast_fair: descent too deep");
}

void FastFairTarget::InsertIntoNode(PmPool& pool, uint64_t node, uint64_t key,
                                    uint64_t value) {
  MUMAK_FRAME();
  const int n = RecordCount(pool, node);
  int pos = 0;
  while (pos < n && ReadRecord(pool, node, pos).key < key) {
    ++pos;
  }
  // FAST: shift records right one by one, value before key, so a reader
  // (or crash image) never sees a torn record.
  for (int j = n - 1; j >= pos; --j) {
    WriteRecord(pool, node, j + 1, ReadRecord(pool, node, j));
  }
  WriteRecord(pool, node, pos, Record{key, value});
  if (BugEnabled("ff.c2_shift_unflushed")) {
    // BUG ff.c2_shift_unflushed (durability): the shifted region is never
    // written back; only a fence is issued.
    pool.Sfence();
    return;
  }
  pool.PersistRange(RecordOffset(node, pos),
                    static_cast<uint64_t>(n - pos + 1) * sizeof(Record));
  if (BugEnabled("ff.p5_rf_shift_extra")) {
    // BUG ff.p5_rf_shift_extra (redundant flush): the shifted region is
    // flushed a second time.
    pool.Clwb(RecordOffset(node, pos));
    pool.Sfence();
  }
}

void FastFairTarget::RemoveFromNode(PmPool& pool, uint64_t node, int index) {
  MUMAK_FRAME();
  const int n = RecordCount(pool, node);
  for (int j = index; j < n - 1; ++j) {
    WriteRecord(pool, node, j, ReadRecord(pool, node, j + 1));
  }
  pool.WriteU64(RecordOffset(node, n - 1) + offsetof(Record, key), 0);
  if (BugEnabled("ff.c6_delete_unflushed")) {
    // BUG ff.c6_delete_unflushed (durability): the shifted-down region is
    // never written back.
  } else {
    pool.PersistRange(RecordOffset(node, index),
                      static_cast<uint64_t>(n - index) * sizeof(Record));
  }
  if (BugEnabled("ff.p8_rf_delete_double")) {
    // BUG ff.p8_rf_delete_double (redundant flush).
    pool.Clwb(RecordOffset(node, index));
    pool.Sfence();
  }
}

uint64_t FastFairTarget::SplitNode(PmPool& pool, uint64_t node,
                                   uint64_t* sibling_out) {
  MUMAK_FRAME();
  NodeHeader header = pool.ReadObject<NodeHeader>(node);
  const int n = RecordCount(pool, node);
  const int mid = n / 2;
  const bool leaf = header.is_leaf != 0;
  const uint64_t sibling = AllocNode(pool, leaf);

  uint64_t separator = 0;
  if (BugEnabled("ff.c1_sibling_link_first")) {
    // BUG ff.c1_sibling_link_first (ordering): the node is truncated and
    // the sibling linked before the sibling's records are written; a crash
    // in between loses the upper half of the node. A crash-free split ends
    // as the correct one does.
    std::vector<Record> moved;
    for (int i = leaf ? mid : mid + 1; i < n; ++i) {
      moved.push_back(ReadRecord(pool, node, i));
    }
    NodeHeader sibling_header = pool.ReadObject<NodeHeader>(sibling);
    sibling_header.sibling = header.sibling;
    if (!leaf) {
      sibling_header.leftmost = ReadRecord(pool, node, mid).value;
    }
    separator = ReadRecord(pool, node, mid).key;
    pool.WriteU64(RecordOffset(node, mid) + offsetof(Record, key), 0);
    pool.PersistRange(RecordOffset(node, mid), sizeof(Record));
    pool.WriteU64(node + offsetof(NodeHeader, sibling), sibling);
    pool.PersistRange(node + offsetof(NodeHeader, sibling),
                      sizeof(uint64_t));
    // (records written after the publish)
    int out = 0;
    for (const Record& record : moved) {
      WriteRecord(pool, sibling, out++, record);
    }
    pool.WriteObject(sibling, sibling_header);
    pool.PersistRange(sibling, kRecordsBase + static_cast<uint64_t>(out) *
                                                  sizeof(Record));
    // finish the truncation
    for (int i = mid + 1; i < n; ++i) {
      pool.WriteU64(RecordOffset(node, i) + offsetof(Record, key), 0);
    }
    pool.PersistRange(RecordOffset(node, mid),
                      static_cast<uint64_t>(n - mid) * sizeof(Record));
    *sibling_out = sibling;
    return separator;
  }

  // Correct FAIR order: populate and persist the sibling, link it with one
  // atomic store, then truncate the node. Every prefix of this sequence is
  // a consistent tree (the extra records in `node` are shadowed by the
  // sibling link until truncation).
  NodeHeader sibling_header = pool.ReadObject<NodeHeader>(sibling);
  sibling_header.sibling = header.sibling;
  int out = 0;
  if (leaf) {
    separator = ReadRecord(pool, node, mid).key;
    for (int i = mid; i < n; ++i) {
      WriteRecord(pool, sibling, out++, ReadRecord(pool, node, i));
    }
  } else {
    separator = ReadRecord(pool, node, mid).key;
    sibling_header.leftmost = ReadRecord(pool, node, mid).value;
    for (int i = mid + 1; i < n; ++i) {
      WriteRecord(pool, sibling, out++, ReadRecord(pool, node, i));
    }
  }
  pool.WriteObject(sibling, sibling_header);
  // Persist only the header and the records actually written; the rest of
  // the node was persisted (zeroed) by AllocNode.
  pool.PersistRange(sibling, kRecordsBase +
                                 static_cast<uint64_t>(out) * sizeof(Record));
  if (BugEnabled("ff.p6_rf_split_double")) {
    // BUG ff.p6_rf_split_double (redundant flush): the sibling is flushed
    // twice.
    pool.FlushRange(sibling, kNodeBytes);
    pool.Sfence();
  }

  if (BugEnabled("ff.c7_split_single_fence")) {
    // BUG ff.c7_split_single_fence (ordering beyond program order): the
    // sibling link is flushed with clflushopt together with the sibling's
    // last line under a single fence — the link may persist first.
    pool.WriteU64(node + offsetof(NodeHeader, sibling), sibling);
    pool.ClflushOpt(sibling);
    pool.ClflushOpt(node + offsetof(NodeHeader, sibling));
    pool.Sfence();
  } else {
    pool.WriteU64(node + offsetof(NodeHeader, sibling), sibling);
    pool.PersistRange(node + offsetof(NodeHeader, sibling),
                      sizeof(uint64_t));
  }

  for (int i = mid; i < n; ++i) {
    pool.WriteU64(RecordOffset(node, i) + offsetof(Record, key), 0);
  }
  pool.PersistRange(RecordOffset(node, mid),
                    static_cast<uint64_t>(n - mid) * sizeof(Record));
  *sibling_out = sibling;
  return separator;
}

void FastFairTarget::InsertRecursive(PmPool& pool, uint64_t key,
                                     uint64_t value) {
  MUMAK_FRAME();
  std::vector<uint64_t> path;
  uint64_t leaf = FindLeaf(pool, key, &path);

  // Update in place when the key exists.
  const int n = RecordCount(pool, leaf);
  for (int i = 0; i < n; ++i) {
    Record record = ReadRecord(pool, leaf, i);
    if (record.key == key) {
      pool.WriteU64(RecordOffset(leaf, i) + offsetof(Record, value), value);
      if (BugEnabled("ff.c5_update_unflushed")) {
        // BUG ff.c5_update_unflushed (durability): in-place updates are
        // never flushed.
      } else {
        pool.PersistRange(RecordOffset(leaf, i) + offsetof(Record, value),
                          sizeof(uint64_t));
      }
      if (BugEnabled("ff.p11_rfence_update")) {
        // BUG ff.p11_rfence_update (redundant fence).
        pool.Sfence();
      }
      return;
    }
  }

  DirtyCounter counter(&pool, kHdrCount, kHdrDirty);
  if (!BugEnabled("ff.c4_count_no_dirty")) {
    counter.BeginInsert();
  }
  // BUG ff.c4_count_no_dirty (ordering): without the marker, a crash
  // between the record publish and the counter update desynchronises them.

  uint64_t target = leaf;
  if (RecordCount(pool, target) == kRecords) {
    // Split up the tree as needed.
    uint64_t sibling = 0;
    uint64_t separator = SplitNode(pool, target, &sibling);
    if (key >= separator) {
      target = sibling;
    }
    // Bubble the separator upwards.
    uint64_t push_key = separator;
    uint64_t push_child = sibling;
    bool placed = false;
    for (size_t level = path.size(); level-- > 0 && !placed;) {
      uint64_t parent = path[level];
      if (RecordCount(pool, parent) < kRecords) {
        InsertIntoNode(pool, parent, push_key, push_child);
        placed = true;
        break;
      }
      uint64_t parent_sibling = 0;
      const uint64_t parent_separator =
          SplitNode(pool, parent, &parent_sibling);
      uint64_t insert_into = parent;
      if (push_key >= parent_separator) {
        insert_into = parent_sibling;
      }
      InsertIntoNode(pool, insert_into, push_key, push_child);
      push_key = parent_separator;
      push_child = parent_sibling;
    }
    if (!placed) {
      // The root itself split (or the tree had no internals): grow.
      const uint64_t old_root = pool.ReadU64(kHdrRoot);
      const uint64_t new_root = AllocNode(pool, /*leaf=*/false);
      if (BugEnabled("ff.c3_root_publish_first")) {
        // BUG ff.c3_root_publish_first (ordering): the new root is made
        // reachable before its contents are written; a crash in between
        // leaves the tree rooted at an empty internal node.
        pool.WriteU64(kHdrRoot, new_root);
        pool.PersistRange(kHdrRoot, sizeof(uint64_t));
        NodeHeader new_header = pool.ReadObject<NodeHeader>(new_root);
        new_header.leftmost = old_root;
        pool.WriteObject(new_root, new_header);
        WriteRecord(pool, new_root, 0, Record{push_key, push_child});
        pool.PersistRange(new_root, kRecordsBase + sizeof(Record));
      } else {
        NodeHeader new_header = pool.ReadObject<NodeHeader>(new_root);
        new_header.leftmost = old_root;
        pool.WriteObject(new_root, new_header);
        WriteRecord(pool, new_root, 0, Record{push_key, push_child});
        pool.PersistRange(new_root, kRecordsBase + sizeof(Record));
        pool.WriteU64(kHdrRoot, new_root);
        pool.PersistRange(kHdrRoot, sizeof(uint64_t));
      }
    }
  }
  InsertIntoNode(pool, target, key, value);
  if (!BugEnabled("ff.c4_count_no_dirty")) {
    counter.CommitInsert();
  } else {
    pool.WriteU64(kHdrCount, pool.ReadU64(kHdrCount) + 1);
    pool.PersistRange(kHdrCount, sizeof(uint64_t));
  }
}

bool FastFairTarget::Put(PmPool& pool, uint64_t key, uint64_t value) {
  InsertRecursive(pool, key, value);
  return true;
}

bool FastFairTarget::Remove(PmPool& pool, uint64_t key) {
  MUMAK_FRAME();
  const uint64_t leaf = FindLeaf(pool, key);
  const int n = RecordCount(pool, leaf);
  for (int i = 0; i < n; ++i) {
    if (ReadRecord(pool, leaf, i).key == key) {
      DirtyCounter counter(&pool, kHdrCount, kHdrDirty);
      counter.BeginDelete();
      RemoveFromNode(pool, leaf, i);
      counter.CommitDelete();
      if (BugEnabled("ff.p12_rfence_delete")) {
        // BUG ff.p12_rfence_delete (redundant fence).
        pool.Sfence();
      }
      return true;
    }
  }
  return false;
}

bool FastFairTarget::Get(PmPool& pool, uint64_t key, uint64_t* value) {
  MUMAK_FRAME();
  uint64_t leaf = FindLeaf(pool, key);
  // FAIR: the record may have moved to a freshly split sibling whose parent
  // entry is not installed yet.
  for (int hop = 0; hop < 3 && leaf != 0; ++hop) {
    const int n = RecordCount(pool, leaf);
    for (int i = 0; i < n; ++i) {
      Record record = ReadRecord(pool, leaf, i);
      if (record.key == key) {
        if (value != nullptr) {
          *value = record.value;
        }
        if (BugEnabled("ff.p1_rf_search")) {
          // BUG ff.p1_rf_search (redundant flush): the hit leaf line is
          // flushed.
          pool.Clwb(leaf);
          pool.Sfence();
        }
        return true;
      }
    }
    leaf = pool.ReadObject<NodeHeader>(leaf).sibling;
  }
  if (BugEnabled("ff.p2_rfence_search")) {
    // BUG ff.p2_rfence_search (redundant fence) on the miss path.
    pool.Sfence();
  }
  return false;
}

void FastFairTarget::Execute(PmPool& pool, const Op& op) {
  MUMAK_FRAME();
  if (BugEnabled("ff.p13_transient_stats")) {
    // BUG ff.p13_transient_stats (transient data).
    const uint64_t off = pool.size() - kCacheLineSize;
    pool.WriteU64(off, pool.ReadU64(off) + 1);
  }
  if (BugEnabled("ff.p14_rf_header")) {
    // BUG ff.p14_rf_header (redundant flush): the clean header line is
    // flushed on every op.
    pool.Clwb(kHdrMagic);
    pool.Sfence();
  }
  switch (op.kind) {
    case OpKind::kPut:
      Put(pool, op.key + 1, op.value);
      if (BugEnabled("ff.p3_rfence_insert")) {
        // BUG ff.p3_rfence_insert (redundant fence).
        pool.Sfence();
      }
      break;
    case OpKind::kGet:
      Get(pool, op.key + 1, nullptr);
      break;
    case OpKind::kDelete:
      Remove(pool, op.key + 1);
      break;
  }
}

uint64_t FastFairTarget::ValidateSubtree(PmPool& pool, uint64_t node,
                                         uint64_t lower, uint64_t upper,
                                         int depth, int* leaf_depth) {
  if (depth > 64) {
    throw RecoveryFailure("fast_fair recovery: tree too deep (cycle?)");
  }
  if (node == 0 || node + kNodeBytes > pool.size()) {
    throw RecoveryFailure("fast_fair recovery: node out of bounds");
  }
  NodeHeader header = pool.ReadObject<NodeHeader>(node);
  const int n = RecordCount(pool, node);
  uint64_t previous = lower;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = ReadRecord(pool, node, i).key;
    if (key < previous) {
      throw RecoveryFailure("fast_fair recovery: key order violated");
    }
    previous = key + 1;
  }
  (void)upper;
  if (header.is_leaf != 0) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      throw RecoveryFailure("fast_fair recovery: leaves at uneven depth");
    }
    return static_cast<uint64_t>(n);
  }
  uint64_t items = 0;
  items += ValidateSubtree(pool, header.leftmost, lower,
                           n > 0 ? ReadRecord(pool, node, 0).key : upper,
                           depth + 1, leaf_depth);
  for (int i = 0; i < n; ++i) {
    const uint64_t child = ReadRecord(pool, node, i).value;
    const uint64_t child_upper =
        i + 1 < n ? ReadRecord(pool, node, i + 1).key : upper;
    items += ValidateSubtree(pool, child, ReadRecord(pool, node, i).key,
                             child_upper, depth + 1, leaf_depth);
  }
  return items;
}

uint64_t FastFairTarget::CountItems(PmPool& pool) {
  // Count via the leaf chain: freshly split siblings whose parent entry is
  // not yet installed are still reachable this way (the FAIR invariant).
  uint64_t node = pool.ReadU64(kHdrRoot);
  for (int depth = 0; depth < 64; ++depth) {
    NodeHeader header = pool.ReadObject<NodeHeader>(node);
    if (header.is_leaf != 0) {
      break;
    }
    node = header.leftmost;
  }
  uint64_t items = 0;
  uint64_t previous_key = 0;
  uint64_t hops = 0;
  while (node != 0) {
    if (node + kNodeBytes > pool.size() || ++hops > (1u << 20)) {
      throw RecoveryFailure("fast_fair recovery: leaf chain corrupt");
    }
    const NodeHeader header = pool.ReadObject<NodeHeader>(node);
    // FAIR shadow rule: records at or beyond the sibling's first key are
    // logically owned by the sibling — a crash between the sibling link and
    // the truncation leaves such shadowed copies behind.
    uint64_t boundary = UINT64_MAX;
    if (header.sibling != 0 && header.sibling + kNodeBytes <= pool.size()) {
      const uint64_t first = ReadRecord(pool, header.sibling, 0).key;
      if (first != 0) {
        boundary = first;
      }
    }
    const int n = RecordCount(pool, node);
    for (int i = 0; i < n; ++i) {
      const uint64_t key = ReadRecord(pool, node, i).key;
      if (key >= boundary) {
        break;  // shadowed by the sibling
      }
      if (key <= previous_key) {
        throw RecoveryFailure(
            "fast_fair recovery: leaf chain order violated");
      }
      previous_key = key;
      ++items;
    }
    node = header.sibling;
  }
  return items;
}

void FastFairTarget::Recover(PmPool& pool) {
  MUMAK_FRAME();
  if (pool.ReadU64(kHdrMagic) != kFfMagic) {
    return;  // crash before initialisation
  }
  // Structure validation (per-node order, depth) plus the leaf-chain count
  // against the dirty counter.
  int leaf_depth = -1;
  ValidateSubtree(pool, pool.ReadU64(kHdrRoot), 0, UINT64_MAX, 0,
                  &leaf_depth);
  const uint64_t items = CountItems(pool);
  DirtyCounter counter(&pool, kHdrCount, kHdrDirty);
  counter.ValidateAndRepair(items);
}

uint64_t FastFairTarget::CodeSizeStatements() const {
  return CountStatements({"src/targets/fast_fair.cc",
                          "src/pmem/persistency_model.cc",
                          "src/pmem/pm_pool.cc"},
                         800);
}

}  // namespace mumak
