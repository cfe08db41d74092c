#ifndef AGGCACHE_QUERY_SHARED_SCAN_H_
#define AGGCACHE_QUERY_SHARED_SCAN_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "query/vector_kernels.h"
#include "storage/partition.h"

namespace aggcache {

/// Cooperative shared scans over delta partitions.
///
/// Delta compensation makes every cache hit re-scan the delta partition, so
/// N concurrent queries over the same hot table issue N near-identical
/// scans. The manager coalesces them: the first arrival becomes the
/// *leader* of a session and walks the partition block by block, applying
/// every registered consumer's compiled filters to each block; later
/// arrivals *attach* to the in-flight session at its current block cursor,
/// scan the already-passed prefix themselves, and then wait for the leader
/// to deliver the remainder. Each consumer still performs its own filter
/// work (predicates differ per query) — what is shared is the block walk,
/// so the partition's code arrays cross the cache hierarchy once per
/// session instead of once per query.
///
/// Selection vectors come back in ascending row order exactly as a solo
/// SelectRowsRange would produce, so downstream join/aggregation results
/// (including float summation order) are unchanged.
class SharedScanManager {
 public:
  /// Partitions smaller than this scan faster than the coordination costs.
  static constexpr uint32_t kMinRows = 256;

  struct Result {
    bool led = false;       ///< Started a session (other queries may attach).
    bool attached = false;  ///< Joined another query's in-flight session.
    size_t batches = 0;     ///< Blocks scanned on behalf of this consumer.
  };

  static SharedScanManager& Instance();

  /// True unless a test turned shared scans off.
  static bool Enabled();

  /// Test hook: 0 = force off, 1 = force on, -1 = the default (on).
  static void OverrideEnabledForTest(int enabled);

  /// Scans all rows of `p` through `in`, appending passing row ids to
  /// `out` in ascending order — the cooperative equivalent of
  /// SelectRowsRange(p, in, 0, p.num_rows(), out). `in` (and the filters
  /// it references) must stay alive for the duration of the call.
  Result Scan(const Partition& p, const SelectionInput& in,
              std::vector<uint32_t>* out);

 private:
  struct Consumer {
    explicit Consumer(const SelectionInput* in) : input(in) {}
    const SelectionInput* input;
    std::vector<uint32_t> rows;  ///< Leader-scanned blocks >= join_block.
    uint32_t join_block = 0;
    size_t batches = 0;  ///< Blocks the leader processed for this consumer.
    bool done = false;
  };

  struct Session {
    std::mutex mu;
    std::condition_variable cv;
    const Partition* partition = nullptr;
    uint32_t num_rows = 0;
    uint32_t num_blocks = 0;
    uint32_t next_block = 0;  ///< First block the leader has NOT started.
    /// First block the leader did NOT deliver: num_blocks on a complete
    /// walk, the abandon cursor when the leader's query aborted mid-walk
    /// (followers self-scan their tail from here).
    uint32_t delivered_until = 0;
    bool finished = false;
    std::vector<std::unique_ptr<Consumer>> consumers;
  };

  Result Lead(const Partition& p, const SelectionInput& in,
              const std::shared_ptr<Session>& session,
              std::vector<uint32_t>* out);
  Result Follow(const Partition& p, const SelectionInput& in,
                Consumer* consumer, const std::shared_ptr<Session>& session,
                std::vector<uint32_t>* out);

  std::mutex registry_mu_;
  std::map<const Partition*, std::shared_ptr<Session>> sessions_;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_SHARED_SCAN_H_
