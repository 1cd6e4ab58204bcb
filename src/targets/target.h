// Target application interface. A target is a PM application under
// analysis: it initialises persistent state in a pool, executes workload
// operations, and — crucially for Mumak — provides a recovery procedure
// that doubles as the consistency oracle (§4.1).

#ifndef MUMAK_SRC_TARGETS_TARGET_H_
#define MUMAK_SRC_TARGETS_TARGET_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/montage/montage_heap.h"
#include "src/pmdk/obj_pool.h"
#include "src/pmem/pm_pool.h"
#include "src/workload/workload.h"

namespace mumak {

enum class RecoveryStatus {
  kOk = 0,             // recovery brought the pool to a consistent state
  kUnrecoverable = 1,  // recovery flagged the state as unrecoverable
  kCrashed = 2,        // recovery itself crashed (segfault analogue)
  kTimeout = 3,        // recovery hung past its deadline (sandboxed runs
                       // only: the parent killed the child, or the child
                       // hit its CPU cap)
};

struct RecoveryResult {
  RecoveryStatus status = RecoveryStatus::kOk;
  std::string detail;

  bool ok() const { return status == RecoveryStatus::kOk; }
};

// Per-run target configuration: the substrate version, which seeded bugs
// are active, and ablation knobs.
struct TargetOptions {
  PmdkVersion pmdk_version = PmdkVersion::k16;
  std::set<std::string> bugs;
  MontageConfig montage;
  // Level Hashing ships without a recovery procedure (§6.2); setting this
  // to false makes Recover() a blind "everything is fine" oracle, which is
  // the ablation the paper runs.
  bool with_recovery = true;
  // Transaction batching (§6.1): single put per transaction vs batched.
  bool single_put_per_tx = true;
  uint64_t tx_batch = 1024;

  bool BugEnabled(std::string_view id) const {
    return bugs.find(std::string(id)) != bugs.end();
  }
};

class Target {
 public:
  virtual ~Target() = default;

  virtual std::string_view name() const = 0;

  // Pool size this target needs for the evaluation workloads.
  virtual uint64_t DefaultPoolSize() const { return 16ull << 20; }

  // Formats `pool` and initialises the persistent structure.
  virtual void Setup(PmPool& pool) = 0;

  // Executes one workload operation.
  virtual void Execute(PmPool& pool, const Op& op) = 0;

  // Finishes the workload: commits any open transaction batch / performs a
  // clean shutdown. Fault injection also covers this phase.
  virtual void Finish(PmPool& pool) = 0;

  // Runs the application's own recovery procedure plus its self-check on a
  // post-crash pool. Must be called on a *fresh* target instance (volatile
  // state does not survive a crash). Throws RecoveryFailure when the state
  // is unrecoverable; any other exception models a recovery crash.
  virtual void Recover(PmPool& pool) = 0;

  // Statement count of this target plus its PM substrate, the code-size
  // metric of Figure 5 ("lines ending in a semicolon for the target and
  // their PM dependencies").
  virtual uint64_t CodeSizeStatements() const = 0;
};

using TargetPtr = std::unique_ptr<Target>;

// Factory registry. Known names: btree, rbtree, hashmap_atomic,
// hashmap_tx, ctree, art, cmap, stree, redis, rocksdb, wort,
// level_hashing, fast_fair, cceh, montage_hashtable, montage_lf_hashtable.
TargetPtr CreateTarget(std::string_view name, const TargetOptions& options);

// All registered target names.
std::vector<std::string> AllTargetNames();

// Convenience wrapper turning exceptions from Target::Recover into a
// RecoveryResult (the oracle outcome Mumak consumes).
RecoveryResult RunRecoveryOracle(Target& target, PmPool& pool);

}  // namespace mumak

#endif  // MUMAK_SRC_TARGETS_TARGET_H_
