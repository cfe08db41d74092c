#ifndef AGGCACHE_OBS_SEGMENTED_RING_H_
#define AGGCACHE_OBS_SEGMENTED_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace aggcache {

namespace ring_internal {

// Live-instance registry, keyed address -> instance id. A thread_local
// lease can outlive a stack-allocated ring (tests construct recorders
// freely), and a successor ring can even reuse the dead one's address — so
// a release must match BOTH before touching the instance; otherwise it is
// dropped. Leaked so leases draining at thread/process exit always find the
// registry alive.
inline std::mutex& LiveRingsMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

inline std::map<const void*, uint64_t>& LiveRings() {
  static auto* live = new std::map<const void*, uint64_t>();
  return *live;
}

inline uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ring_internal

/// The bounded, lock-free ring under both the flight recorder and the span
/// recorder. Every recording thread owns (leases) a private segment — a
/// fixed ring of atomic slots plus a relaxed monotone cursor — so a Record()
/// is a global relaxed fetch_add (the cross-thread sequence), a private
/// relaxed fetch_add (slot claim) and kWords + 2 relaxed/release stores. No
/// lock, no allocation, no syscall on the record path.
///
/// Write protocol: unpublish (seq = 0, release), store the payload words
/// relaxed, publish (seq = N, release). A harvester acquires seq, reads the
/// payload, re-checks seq and *discards* the slot if a concurrent writer
/// lapped it, so a torn record is never emitted. Every field is atomic so
/// TSAN sees each cross-thread access as racy-by-protocol.
///
/// Wraparound overwrites the oldest records (the ring keeps the recent
/// past). Records are only *lost* — counted in lost() — when more threads
/// record concurrently than there are segments; segments return to a free
/// list at thread exit and are reused, keeping their segment id, which is
/// what harvested records report as their thread.
///
/// `Owner` only tags the instantiation: each owner gets its own
/// thread_local lease, so one thread recording into both recorders holds a
/// segment of each. The payload is kWords opaque 64-bit words; the owner
/// encodes and decodes them.
template <typename Owner, size_t kWords>
class SegmentedRing {
 public:
  using Payload = std::array<uint64_t, kWords>;

  /// One harvested record, already validated (seq stable across the
  /// payload read).
  struct Harvested {
    uint64_t seq = 0;
    uint32_t thread = 0;
    Payload words = {};
  };

  /// `slots_per_segment` is rounded up to a power of two (minimum 8);
  /// `max_segments` is at least 1.
  SegmentedRing(size_t slots_per_segment, size_t max_segments)
      : slots_per_segment_(
            RoundUpPow2(std::max<size_t>(slots_per_segment, 8))),
        max_segments_(std::max<size_t>(max_segments, 1)),
        instance_id_(ring_internal::NextInstanceId()) {
    segments_.reserve(max_segments_);
    std::lock_guard<std::mutex> lock(ring_internal::LiveRingsMutex());
    ring_internal::LiveRings()[this] = instance_id_;
  }

  ~SegmentedRing() {
    std::lock_guard<std::mutex> lock(ring_internal::LiveRingsMutex());
    ring_internal::LiveRings().erase(this);
  }

  SegmentedRing(const SegmentedRing&) = delete;
  SegmentedRing& operator=(const SegmentedRing&) = delete;

  /// Publishes one record into the calling thread's segment, or counts it
  /// lost when every segment is leased by another live thread.
  void Record(const Payload& payload) {
    Segment* segment = ThreadSegment();
    if (segment == nullptr) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot& slot = segment->slots[segment->cursor.fetch_add(
                                    1, std::memory_order_relaxed) &
                                segment->mask];
    slot.seq.store(0, std::memory_order_release);
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(payload[i], std::memory_order_relaxed);
    }
    slot.seq.store(seq, std::memory_order_release);
  }

  /// Harvests up to `max_records` of the most recent records, oldest first
  /// (global sequence order).
  std::vector<Harvested> Collect(size_t max_records) const {
    std::vector<Harvested> records;
    {
      std::lock_guard<std::mutex> lock(segments_mu_);
      for (const std::unique_ptr<Segment>& segment : segments_) {
        for (size_t i = 0; i <= segment->mask; ++i) {
          const Slot& slot = segment->slots[i];
          uint64_t seq = slot.seq.load(std::memory_order_acquire);
          if (seq == 0) continue;
          Harvested record;
          record.seq = seq;
          record.thread = segment->thread_id;
          for (size_t w = 0; w < kWords; ++w) {
            record.words[w] = slot.words[w].load(std::memory_order_relaxed);
          }
          // Torn-read check: a writer lapping this slot mid-harvest changed
          // (or zeroed) seq; drop the inconsistent snapshot.
          if (slot.seq.load(std::memory_order_acquire) != seq) continue;
          records.push_back(record);
        }
      }
    }
    std::sort(records.begin(), records.end(),
              [](const Harvested& x, const Harvested& y) {
                return x.seq < y.seq;
              });
    if (records.size() > max_records) {
      records.erase(records.begin(),
                    records.end() - static_cast<ptrdiff_t>(max_records));
    }
    return records;
  }

  /// Records successfully published (including ones since overwritten).
  uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Records dropped because every segment was leased by another thread.
  uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }

  /// Number of segments currently leased.
  size_t active_segments() const {
    std::lock_guard<std::mutex> lock(segments_mu_);
    return segments_.size() - free_segments_.size();
  }

 private:
  struct Slot {
    /// Publication token: 0 = being (re)written, nonzero = payload at that
    /// sequence.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  /// Only the leasing thread advances `cursor`; harvesters read slots
  /// concurrently through the seq protocol.
  struct Segment {
    Segment(size_t n, uint32_t id)
        : mask(n - 1), slots(new Slot[n]), thread_id(id) {}
    const size_t mask;
    std::atomic<size_t> cursor{0};
    std::unique_ptr<Slot[]> slots;
    const uint32_t thread_id;
  };

  /// Thread-local lease: acquired on a thread's first Record(), returned to
  /// the ring's free list when the thread exits. The lease may outlive the
  /// ring it points to, so releases go through the live-instance registry
  /// and are dropped for destroyed rings.
  struct Lease {
    SegmentedRing* ring = nullptr;
    uint64_t instance_id = 0;
    Segment* segment = nullptr;
    ~Lease() { Release(ring, instance_id, segment); }
  };

  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static void Release(SegmentedRing* ring, uint64_t instance_id,
                      Segment* segment) {
    if (ring == nullptr || segment == nullptr) return;
    std::lock_guard<std::mutex> lock(ring_internal::LiveRingsMutex());
    auto it = ring_internal::LiveRings().find(ring);
    if (it != ring_internal::LiveRings().end() && it->second == instance_id) {
      std::lock_guard<std::mutex> segments_lock(ring->segments_mu_);
      ring->free_segments_.push_back(segment);
    }
  }

  /// The calling thread's segment in this ring, leasing one on first use
  /// (or after a switch to another ring of the same owner). Null when every
  /// segment is leased elsewhere.
  Segment* ThreadSegment() {
    thread_local Lease lease;
    if (lease.instance_id != instance_id_) {
      Release(lease.ring, lease.instance_id, lease.segment);
      lease.ring = this;
      lease.instance_id = instance_id_;
      lease.segment = LeaseSegment();
    } else if (lease.segment == nullptr) {
      // Starved earlier; retry — an exiting thread may have freed one.
      lease.segment = LeaseSegment();
    }
    return lease.segment;
  }

  Segment* LeaseSegment() {
    std::lock_guard<std::mutex> lock(segments_mu_);
    if (!free_segments_.empty()) {
      Segment* segment = free_segments_.back();
      free_segments_.pop_back();
      return segment;
    }
    if (segments_.size() >= max_segments_) return nullptr;
    segments_.push_back(std::make_unique<Segment>(
        slots_per_segment_, static_cast<uint32_t>(segments_.size())));
    return segments_.back().get();
  }

  const size_t slots_per_segment_;
  const size_t max_segments_;
  /// Process-unique, never reused. Thread-local leases key on this rather
  /// than the ring's address: a stack-allocated ring can die and a new one
  /// can reuse the same address within a lease's lifetime.
  const uint64_t instance_id_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> lost_{0};

  mutable std::mutex segments_mu_;  ///< Lease/release + harvest only.
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<Segment*> free_segments_;
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_SEGMENTED_RING_H_
