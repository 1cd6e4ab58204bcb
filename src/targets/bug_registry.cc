#include "src/targets/bug_registry.h"

namespace mumak {

std::string_view BugClassName(BugClass c) {
  switch (c) {
    case BugClass::kDurability:
      return "durability";
    case BugClass::kAtomicity:
      return "atomicity";
    case BugClass::kOrdering:
      return "ordering";
    case BugClass::kRedundantFlush:
      return "redundant-flush";
    case BugClass::kRedundantFence:
      return "redundant-fence";
    case BugClass::kTransientData:
      return "transient-data";
  }
  return "unknown";
}

namespace {

std::vector<SeededBug> BuildCorpus() {
  std::vector<SeededBug> bugs;
  auto add = [&](const char* id, const char* target, BugClass bug_class,
                 const char* description, bool beyond_program_order = false) {
    bugs.push_back(SeededBug{id, target, bug_class, description,
                             beyond_program_order});
  };

  // ---- btree (PMDK example analogue) -------------------------------------
  add("btree.split_unlogged", "btree", BugClass::kAtomicity,
      "parent node modified during a split without undo logging");
  add("btree.merge_unlogged", "btree", BugClass::kAtomicity,
      "merged-into node modified during delete without undo logging");
  add("btree.count_unlogged", "btree", BugClass::kAtomicity,
      "item counter updated outside the transaction's undo log");
  add("btree.rf_split", "btree", BugClass::kRedundantFlush,
      "sibling node flushed in SplitChild and again at commit");
  add("btree.rf_get", "btree", BugClass::kRedundantFlush,
      "lookup path flushes a line it never wrote");
  add("btree.rfence_put", "btree", BugClass::kRedundantFence,
      "extra sfence after the commit's own fence on the put path");
  add("btree.rfence_delete", "btree", BugClass::kRedundantFence,
      "extra sfence after the commit's own fence on the delete path");
  add("btree.transient_stats", "btree", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted or recovered",
      /*beyond_program_order=*/true);
  add("btree.rf_delete", "btree", BugClass::kRedundantFlush,
      "root object line flushed again after the delete commit");
  add("btree.rfence_get", "btree", BugClass::kRedundantFence,
      "fence on the lookup miss path");

  // ---- rbtree (PMDK example analogue) ------------------------------------
  add("rbtree.rotate_unlogged", "rbtree", BugClass::kAtomicity,
      "rotation updates a child pointer before snapshotting the node");
  add("rbtree.fixup_unlogged", "rbtree", BugClass::kAtomicity,
      "delete fixup recolours the sibling without undo logging");
  add("rbtree.count_unlogged", "rbtree", BugClass::kAtomicity,
      "item counter updated outside the transaction's undo log");
  add("rbtree.rf_lookup", "rbtree", BugClass::kRedundantFlush,
      "lookup path flushes a node line it never wrote");
  add("rbtree.rfence_insert", "rbtree", BugClass::kRedundantFence,
      "extra sfence after the commit's own fence on the insert path");
  add("rbtree.transient_stats", "rbtree", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("rbtree.rf_insert_double", "rbtree", BugClass::kRedundantFlush,
      "root object flushed again after the insert commit");
  add("rbtree.rfence_delete", "rbtree", BugClass::kRedundantFence,
      "extra sfence after the delete commit");
  add("rbtree.rf_get_root", "rbtree", BugClass::kRedundantFlush,
      "lookup miss flushes the clean root object line");

  // ---- hashmap_atomic (PMDK example analogue; non-transactional) ----------
  add("hashmap_atomic.publish_before_init", "hashmap_atomic",
      BugClass::kOrdering,
      "bucket head published before the entry fields are persisted");
  add("hashmap_atomic.free_before_unlink", "hashmap_atomic",
      BugClass::kOrdering,
      "entry released to the allocator while the chain still references it");
  add("hashmap_atomic.count_dirty_skipped", "hashmap_atomic",
      BugClass::kOrdering,
      "count-dirty flag protocol skipped: counter can diverge from chains");
  add("hashmap_atomic.rf_publish", "hashmap_atomic",
      BugClass::kRedundantFlush,
      "bucket slot flushed a second time after the publishing persist");
  add("hashmap_atomic.rf_get", "hashmap_atomic", BugClass::kRedundantFlush,
      "lookup flushes the entry line it only read");
  add("hashmap_atomic.rfence_put", "hashmap_atomic",
      BugClass::kRedundantFence, "extra sfence after the put path persists");
  add("hashmap_atomic.transient_stats", "hashmap_atomic",
      BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("hashmap_atomic.rf_delete_double", "hashmap_atomic",
      BugClass::kRedundantFlush,
      "bucket slot flushed again after the unlink persisted it");
  add("hashmap_atomic.rfence_delete", "hashmap_atomic",
      BugClass::kRedundantFence, "extra sfence after the delete persists");

  // ---- hashmap_tx (PMDK example analogue) ---------------------------------
  add("hashmap_tx.prepend_unlogged", "hashmap_tx", BugClass::kAtomicity,
      "bucket head overwritten before being snapshotted");
  add("hashmap_tx.rf_put", "hashmap_tx", BugClass::kRedundantFlush,
      "bucket slot flushed again after the commit persisted it");
  add("hashmap_tx.rfence_get", "hashmap_tx", BugClass::kRedundantFence,
      "fence on the lookup-miss path with nothing pending");
  add("hashmap_tx.rf_get", "hashmap_tx", BugClass::kRedundantFlush,
      "hit entry line flushed on a read path");
  add("hashmap_tx.rfence_put_extra", "hashmap_tx",
      BugClass::kRedundantFence, "second extra fence after the put commit");

  // ---- level_hashing (Zuo et al. analogue) ---------------------------------
  // Witcher reports 17 correctness bugs in Level Hashing; the corpus seeds
  // 17 distinct sites matching the classes of the originals. Three are
  // persist-order races only observable beyond program order — the kind
  // Mumak reports as warnings instead of bugs (§4.2, pattern 5).
  add("lh.c1_token_before_kv", "level_hashing", BugClass::kOrdering,
      "insert publishes the slot token before the key/value pair");
  add("lh.c2_kv_unflushed", "level_hashing", BugClass::kDurability,
      "insert never flushes the key/value stores");
  add("lh.c3_token_unflushed", "level_hashing", BugClass::kDurability,
      "insert never flushes the token store");
  add("lh.c4_delete_token_unflushed", "level_hashing",
      BugClass::kDurability, "delete never flushes the token clear");
  add("lh.c5_update_unflushed", "level_hashing", BugClass::kDurability,
      "in-place update never flushes the new value");
  add("lh.c6_update_delins_order", "level_hashing", BugClass::kOrdering,
      "update = delete-then-insert; crash in between loses the item");
  add("lh.c7_resize_publish_first", "level_hashing", BugClass::kOrdering,
      "resize swaps the level descriptor before rehashing the old bottom");
  add("lh.c8_resize_clear_old_first", "level_hashing", BugClass::kOrdering,
      "rehash clears the old slot before the new copy is durable");
  add("lh.c9_resize_desc_unflushed", "level_hashing", BugClass::kDurability,
      "the descriptor swap is never flushed");
  add("lh.c10_b2t_copy_order", "level_hashing", BugClass::kOrdering,
      "bottom-to-top movement retires the old slot before the copy exists");
  add("lh.c11_insert_count_order", "level_hashing", BugClass::kOrdering,
      "counter persisted before the slot exists, without a dirty marker");
  add("lh.c12_delete_count_order", "level_hashing", BugClass::kOrdering,
      "counter persisted before the token clear, without a dirty marker");
  add("lh.c13_dirty_flag_skipped", "level_hashing", BugClass::kOrdering,
      "count-dirty protocol skipped on the insert path");
  add("lh.c14_b2t_publish_first", "level_hashing", BugClass::kOrdering,
      "movement/rehash publishes the token before the pair");
  add("lh.c15_single_fence_insert", "level_hashing", BugClass::kOrdering,
      "pair and token flushed with clflushopt under a single fence",
      /*beyond_program_order=*/true);
  add("lh.c16_resize_single_fence", "level_hashing", BugClass::kOrdering,
      "rehash copy and bookkeeping flushed under a single fence",
      /*beyond_program_order=*/true);
  add("lh.c17_delete_single_fence", "level_hashing", BugClass::kOrdering,
      "token clear and counter flushed under a single fence",
      /*beyond_program_order=*/true);
  add("lh.p1_rf_get_hit", "level_hashing", BugClass::kRedundantFlush,
      "lookup hit flushes the bucket line it only read");
  add("lh.p2_rf_get_miss", "level_hashing", BugClass::kRedundantFlush,
      "lookup miss flushes a candidate bucket");
  add("lh.p3_rfence_get", "level_hashing", BugClass::kRedundantFence,
      "fence on the lookup path with nothing pending");
  add("lh.p4_rf_insert_double", "level_hashing", BugClass::kRedundantFlush,
      "key/value line flushed twice on insert");
  add("lh.p5_rfence_insert_extra", "level_hashing",
      BugClass::kRedundantFence, "extra fence after the insert persists");
  add("lh.p6_rf_token_double", "level_hashing", BugClass::kRedundantFlush,
      "token line flushed twice on insert");
  add("lh.p7_rfence_delete_extra", "level_hashing",
      BugClass::kRedundantFence, "extra fence after the delete persists");
  add("lh.p8_rf_delete_double", "level_hashing", BugClass::kRedundantFlush,
      "token line flushed twice on delete");
  add("lh.p9_rf_update_double", "level_hashing", BugClass::kRedundantFlush,
      "value line flushed twice on update");
  add("lh.p10_rfence_update_extra", "level_hashing",
      BugClass::kRedundantFence, "extra fence after the update persists");
  add("lh.p11_rf_resize_double", "level_hashing", BugClass::kRedundantFlush,
      "rehashed bucket flushed twice during resize");
  add("lh.p12_rfence_resize_extra", "level_hashing",
      BugClass::kRedundantFence, "extra fence at the end of a resize");
  add("lh.p13_rf_b2t_double", "level_hashing", BugClass::kRedundantFlush,
      "token line flushed twice on bottom-to-top movement");
  add("lh.p15_rf_header", "level_hashing", BugClass::kRedundantFlush,
      "clean header line flushed on every operation");
  add("lh.p16_rfence_header", "level_hashing", BugClass::kRedundantFence,
      "fence on every operation with nothing pending");
  add("lh.p17_transient_stats", "level_hashing", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("lh.p18_transient_probe_log", "level_hashing",
      BugClass::kTransientData,
      "probe log written to PM but never persisted or recovered",
      /*beyond_program_order=*/true);
  add("lh.p19_rf_desc", "level_hashing", BugClass::kRedundantFlush,
      "descriptor line flushed on every lookup hit");

  // ---- fast_fair (Hwang et al. analogue) -----------------------------------
  add("ff.c1_sibling_link_first", "fast_fair", BugClass::kOrdering,
      "split links the sibling before its records exist");
  add("ff.c2_shift_unflushed", "fast_fair", BugClass::kDurability,
      "FAST shift region never written back, only fenced");
  add("ff.c3_root_publish_first", "fast_fair", BugClass::kOrdering,
      "new root published before its contents are written");
  add("ff.c4_count_no_dirty", "fast_fair", BugClass::kOrdering,
      "counter updated without the in-flight marker");
  add("ff.c5_update_unflushed", "fast_fair", BugClass::kDurability,
      "in-place value update never flushed");
  add("ff.c6_delete_unflushed", "fast_fair", BugClass::kDurability,
      "delete's shifted-down region never written back");
  add("ff.p1_rf_search", "fast_fair", BugClass::kRedundantFlush,
      "hit leaf line flushed on the search path");
  add("ff.p2_rfence_search", "fast_fair", BugClass::kRedundantFence,
      "fence on the search miss path");
  add("ff.p3_rfence_insert", "fast_fair", BugClass::kRedundantFence,
      "extra fence after the insert persists");
  add("ff.p5_rf_shift_extra", "fast_fair", BugClass::kRedundantFlush,
      "shifted region flushed a second time");
  add("ff.p6_rf_split_double", "fast_fair", BugClass::kRedundantFlush,
      "sibling node flushed twice during split");
  add("ff.p8_rf_delete_double", "fast_fair", BugClass::kRedundantFlush,
      "delete region flushed a second time");
  add("ff.p11_rfence_update", "fast_fair", BugClass::kRedundantFence,
      "extra fence after the update persists");
  add("ff.p12_rfence_delete", "fast_fair", BugClass::kRedundantFence,
      "extra fence after the delete persists");
  add("ff.p13_transient_stats", "fast_fair", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("ff.p14_rf_header", "fast_fair", BugClass::kRedundantFlush,
      "clean header line flushed on every operation");

  // ---- cceh (Nam et al. analogue) ------------------------------------------
  add("cceh.c1_dir_update_before_segs", "cceh", BugClass::kOrdering,
      "directory retargeted before the new segment holds the moved items");
  add("cceh.c2_slot_key_first", "cceh", BugClass::kOrdering,
      "slot key (the publishing store) persisted before the value");
  add("cceh.c3_delete_unflushed", "cceh", BugClass::kDurability,
      "slot clear never flushed on delete");
  add("cceh.c4_count_no_dirty", "cceh", BugClass::kOrdering,
      "counter updated without the in-flight marker");
  add("cceh.p1_rf_probe", "cceh", BugClass::kRedundantFlush,
      "probed line flushed on the lookup path");
  add("cceh.p2_rfence_get", "cceh", BugClass::kRedundantFence,
      "fence on the lookup miss path");
  add("cceh.p3_rf_insert_double", "cceh", BugClass::kRedundantFlush,
      "slot line flushed twice on insert");
  add("cceh.p4_rfence_insert", "cceh", BugClass::kRedundantFence,
      "extra fence after the insert persists");
  add("cceh.p5_rf_slot_double", "cceh", BugClass::kRedundantFlush,
      "slot line flushed twice on update");
  add("cceh.p6_rf_split_double", "cceh", BugClass::kRedundantFlush,
      "new segment flushed wholesale after per-slot persists");
  add("cceh.p7_rfence_split", "cceh", BugClass::kRedundantFence,
      "extra fence at the end of a split");
  add("cceh.p8_rf_dir_double", "cceh", BugClass::kRedundantFlush,
      "doubled directory flushed twice");
  add("cceh.p9_rfence_dir", "cceh", BugClass::kRedundantFence,
      "extra fence after the directory publish");
  add("cceh.p10_rf_delete_double", "cceh", BugClass::kRedundantFlush,
      "slot clear flushed twice");
  add("cceh.p11_rfence_delete", "cceh", BugClass::kRedundantFence,
      "extra fence after the delete persists");
  add("cceh.p12_transient_stats", "cceh", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("cceh.p13_rf_header", "cceh", BugClass::kRedundantFlush,
      "clean header line flushed on every operation");

  // ---- wort (Lee et al. analogue) ------------------------------------------
  add("wort.c1_link_before_init", "wort", BugClass::kOrdering,
      "slot published before the leaf contents exist");
  add("wort.c2_update_unflushed", "wort", BugClass::kDurability,
      "in-place value update never flushed");
  add("wort.c3_chain_link_first", "wort", BugClass::kOrdering,
      "node chain linked into the tree before it is populated");
  add("wort.c4_count_no_dirty", "wort", BugClass::kOrdering,
      "counter updated without the in-flight marker");
  add("wort.p1_rf_get", "wort", BugClass::kRedundantFlush,
      "leaf line flushed on the lookup path");
  add("wort.p2_rfence_get", "wort", BugClass::kRedundantFence,
      "fence on the lookup miss path");
  add("wort.p3_rf_insert_double", "wort", BugClass::kRedundantFlush,
      "slot line flushed twice on insert");
  add("wort.p4_rfence_insert", "wort", BugClass::kRedundantFence,
      "extra fence after the insert persists");
  add("wort.p5_rf_chain_double", "wort", BugClass::kRedundantFlush,
      "chain root flushed again before the link");
  add("wort.p6_rfence_delete", "wort", BugClass::kRedundantFence,
      "extra fence after the delete persists");
  add("wort.p7_transient_stats", "wort", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("wort.p8_rf_root", "wort", BugClass::kRedundantFlush,
      "clean root node line flushed on every operation");
  add("wort.p9_rf_delete_double", "wort", BugClass::kRedundantFlush,
      "cleared slot line flushed a second time on delete");
  add("wort.p10_rfence_update", "wort", BugClass::kRedundantFence,
      "extra fence after the in-place update persists");

  // ---- Montage (Wen et al.; the two new bugs of §6.4) ----------------------
  add("montage.allocator_recoverability", "montage_hashtable",
      BugClass::kOrdering,
      "allocator bitmap kept in DRAM only, breaking recoverability "
      "(urcs-sync/Montage PR #36)");
  add("montage.allocator_destruction", "montage_hashtable",
      BugClass::kOrdering,
      "clean-shutdown marker persisted before the final allocator sync "
      "(urcs-sync/Montage commit 3384e50)");

  // ---- ctree (PMDK example analogue) --------------------------------------
  add("ctree.link_unlogged", "ctree", BugClass::kAtomicity,
      "parent slot overwritten before being snapshotted during insert");
  add("ctree.rf_insert", "ctree", BugClass::kRedundantFlush,
      "root-object line flushed again right after the commit");
  add("ctree.transient_stats", "ctree", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("ctree.rfence_get", "ctree", BugClass::kRedundantFence,
      "fence on the lookup miss path");
  add("ctree.rf_delete", "ctree", BugClass::kRedundantFlush,
      "root object line flushed again after the delete commit");

  // ---- redis (pmem/redis analogue) -----------------------------------------
  add("redis.c1_dict_before_aof", "redis", BugClass::kOrdering,
      "dict commits before the command reaches the append-only log");
  add("redis.c2_aof_seq_unflushed", "redis", BugClass::kDurability,
      "the AOF sequence update is never flushed");
  add("redis.p1_rf_aof_double", "redis", BugClass::kRedundantFlush,
      "NT-written AOF record flushed although it bypassed the cache");
  add("redis.p2_rfence_set", "redis", BugClass::kRedundantFence,
      "extra fence after SET persists");
  add("redis.p3_rf_get", "redis", BugClass::kRedundantFlush,
      "GET flushes the dict entry it only read");
  add("redis.p4_transient_clients", "redis", BugClass::kTransientData,
      "per-client stats written to PM but never persisted",
      /*beyond_program_order=*/true);
  add("redis.p5_rfence_del", "redis", BugClass::kRedundantFence,
      "extra fence after DEL persists");
  add("redis.p6_rf_rewrite_double", "redis", BugClass::kRedundantFlush,
      "AOF ring flushed twice during rewrite");
  add("redis.p7_rfence_rewrite", "redis", BugClass::kRedundantFence,
      "extra fence after the AOF rewrite");
  add("redis.p8_rf_seq_double", "redis", BugClass::kRedundantFlush,
      "AOF sequence line flushed twice");
  add("redis.p9_rfence_get", "redis", BugClass::kRedundantFence,
      "fence on the GET miss path");

  // ---- rocksdb (pmem/rocksdb analogue) --------------------------------------
  add("rocks.c1_manifest_before_run", "rocksdb", BugClass::kOrdering,
      "manifest registers a run before its records and checksum exist");
  add("rocks.c2_wal_unflushed", "rocksdb", BugClass::kDurability,
      "WAL record not flushed on the put path");
  add("rocks.p1_rf_wal_double", "rocksdb", BugClass::kRedundantFlush,
      "WAL record flushed twice");
  add("rocks.p2_rfence_put", "rocksdb", BugClass::kRedundantFence,
      "extra fence after the put persists");
  add("rocks.p3_rf_run_double", "rocksdb", BugClass::kRedundantFlush,
      "sealed run flushed wholesale a second time");
  add("rocks.p4_rfence_flush", "rocksdb", BugClass::kRedundantFence,
      "extra fence after the memtable flush");
  add("rocks.p5_transient_stats", "rocksdb", BugClass::kTransientData,
      "per-operation counter kept in PM but never persisted",
      /*beyond_program_order=*/true);
  add("rocks.p6_rf_manifest_double", "rocksdb", BugClass::kRedundantFlush,
      "manifest block flushed twice before the publish");

  // ---- pmemkv engines ---------------------------------------------------------
  add("cmap.p1_rf_probe", "cmap", BugClass::kRedundantFlush,
      "probed slot line flushed on the lookup path");
  add("cmap.p2_rfence_put", "cmap", BugClass::kRedundantFence,
      "extra fence after the commit's own fence");
  add("stree.p1_rfence_get", "stree", BugClass::kRedundantFence,
      "fence on the lookup miss path");
  add("stree.p2_rf_put", "stree", BugClass::kRedundantFlush,
      "leaf-head line flushed after the commit persisted everything");
  add("stree.p3_rf_get_leaf", "stree", BugClass::kRedundantFlush,
      "hit leaf line flushed on a read path");
  add("stree.p4_rfence_put_extra", "stree", BugClass::kRedundantFence,
      "second extra fence after the put commit");
  add("cmap.p3_rf_put_double", "cmap", BugClass::kRedundantFlush,
      "home slot line flushed again after the commit");
  add("cmap.p4_rfence_get", "cmap", BugClass::kRedundantFence,
      "fence on the lookup miss path");

  // ---- art (libart analogue; the §6.4 PMDK ART bug) --------------------------
  add("art.grow_count_early", "art", BugClass::kAtomicity,
      "Node4 child count inflated unlogged before growth to Node16 "
      "(models pmem/pmdk#5512)");
  add("art.p1_rf_get", "art", BugClass::kRedundantFlush,
      "lookup flushes the leaf line it only read");
  add("art.p2_rfence_put", "art", BugClass::kRedundantFence,
      "extra fence after the commit's own fence");

  add("hashmap_atomic.publish_single_fence", "hashmap_atomic",
      BugClass::kOrdering,
      "entry and bucket head flushed under a single fence",
      /*beyond_program_order=*/true);
  add("wort.c5_link_single_fence", "wort", BugClass::kOrdering,
      "leaf and publishing slot flushed under a single fence",
      /*beyond_program_order=*/true);
  add("ff.c7_split_single_fence", "fast_fair", BugClass::kOrdering,
      "sibling and its link flushed under a single fence",
      /*beyond_program_order=*/true);
  add("cceh.c5_dir_single_fence", "cceh", BugClass::kOrdering,
      "new segment and directory entries flushed under a single fence",
      /*beyond_program_order=*/true);
  add("rocks.c3_manifest_single_fence", "rocksdb", BugClass::kOrdering,
      "manifest block and publish pointer flushed under a single fence",
      /*beyond_program_order=*/true);

  return bugs;
}

}  // namespace

const std::vector<SeededBug>& AllSeededBugs() {
  static const std::vector<SeededBug> corpus = BuildCorpus();
  return corpus;
}

const std::vector<SeededBug>& RecoveryHazardBugs() {
  // Kept out of AllSeededBugs(): anything iterating the main corpus runs
  // the bugs in-process (targets_test does exactly that), and these two
  // would segfault / hang the harness. They are only safe under the
  // recovery-oracle sandbox.
  static const std::vector<SeededBug> hazards = [] {
    std::vector<SeededBug> bugs;
    bugs.push_back({"btree.recovery_wild_deref", "btree",
                    BugClass::kAtomicity,
                    "recovery dereferences a torn sub-page pointer on "
                    "mid-transaction crash images (SIGSEGV)",
                    /*beyond_program_order=*/false});
    bugs.push_back({"btree.recovery_spin", "btree", BugClass::kAtomicity,
                    "recovery chases a corrupted next-pointer cycle and "
                    "never terminates on mid-transaction crash images",
                    /*beyond_program_order=*/false});
    return bugs;
  }();
  return hazards;
}

std::vector<SeededBug> SeededBugsForTarget(std::string_view target) {
  std::vector<SeededBug> out;
  for (const SeededBug& bug : AllSeededBugs()) {
    if (bug.target == target) {
      out.push_back(bug);
    }
  }
  return out;
}

bool InCoverageCorpus(const SeededBug& bug) {
  return bug.target.rfind("montage", 0) != 0 && bug.target != "art";
}

CorpusCounts CountCorpus() {
  CorpusCounts counts;
  for (const SeededBug& bug : AllSeededBugs()) {
    if (!InCoverageCorpus(bug)) {
      continue;
    }
    if (IsCorrectnessClass(bug.bug_class)) {
      ++counts.correctness;
    } else {
      ++counts.performance;
    }
  }
  return counts;
}

}  // namespace mumak
