#include "query/shared_scan.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/logging.h"
#include "obs/span.h"
#include "runtime/query_context.h"

namespace aggcache {
namespace {

// -1 = the default (on); 0/1 = forced by OverrideEnabledForTest.
std::atomic<int> g_enabled_override{-1};

}  // namespace

SharedScanManager& SharedScanManager::Instance() {
  static SharedScanManager* manager = new SharedScanManager();
  return *manager;
}

bool SharedScanManager::Enabled() {
  return g_enabled_override.load(std::memory_order_relaxed) != 0;
}

void SharedScanManager::OverrideEnabledForTest(int enabled) {
  g_enabled_override.store(enabled, std::memory_order_relaxed);
}

SharedScanManager::Result SharedScanManager::Scan(const Partition& p,
                                                  const SelectionInput& in,
                                                  std::vector<uint32_t>* out) {
  const uint32_t num_rows = static_cast<uint32_t>(p.num_rows());
  std::shared_ptr<Session> session;
  Consumer* consumer = nullptr;
  bool lead = false;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    auto it = sessions_.find(&p);
    if (it != sessions_.end() && it->second->num_rows == num_rows) {
      // Attach to the in-flight session at its current cursor. The session
      // lock nests inside the registry lock here and at erase time, so the
      // order is consistent.
      Session* s = it->second.get();
      std::lock_guard<std::mutex> session_lock(s->mu);
      if (!s->finished) {
        auto owned = std::make_unique<Consumer>(&in);
        owned->join_block = s->next_block;
        consumer = owned.get();
        s->consumers.push_back(std::move(owned));
        session = it->second;
      }
    }
    if (consumer == nullptr) {
      // No joinable session: lead a new one. A stale entry for a partition
      // whose row count moved on (delta appends) is replaced — its leader
      // has its own shared_ptr and finishes undisturbed.
      session = std::make_shared<Session>();
      session->partition = &p;
      session->num_rows = num_rows;
      session->num_blocks = static_cast<uint32_t>(
          (num_rows + kSelectionBlockRows - 1) / kSelectionBlockRows);
      auto owned = std::make_unique<Consumer>(&in);
      consumer = owned.get();
      session->consumers.push_back(std::move(owned));
      sessions_[&p] = session;
      lead = true;
    }
  }
  return lead ? Lead(p, in, session, out) : Follow(p, in, consumer, session, out);
}

SharedScanManager::Result SharedScanManager::Lead(
    const Partition& p, const SelectionInput& in,
    const std::shared_ptr<Session>& session, std::vector<uint32_t>* out) {
  ScopedSpan lead_span(SpanKind::kSharedScanLead);
  const uint32_t num_rows = session->num_rows;
  // Consumers admitted while a block is being processed join at the *next*
  // block (next_block is advanced before the work), so no block is skipped
  // or scanned twice for anyone.
  std::vector<Consumer*> active;
  uint32_t delivered_until = session->num_blocks;
  for (uint32_t block = 0; block < session->num_blocks; ++block) {
    // A leader whose query aborted hands the walk off instead of finishing
    // it: the session closes at the current cursor and every follower
    // self-scans its tail from here. The leader's own rows are about to be
    // discarded by its typed-error unwind, so no work is wasted on them.
    if (in.context != nullptr && in.context->IsAborted()) {
      delivered_until = block;
      break;
    }
    active.clear();
    {
      std::lock_guard<std::mutex> lock(session->mu);
      session->next_block = block + 1;
      for (const auto& c : session->consumers) {
        if (c->join_block <= block) active.push_back(c.get());
      }
    }
    const uint32_t begin = block * static_cast<uint32_t>(kSelectionBlockRows);
    const uint32_t end = std::min(
        num_rows, begin + static_cast<uint32_t>(kSelectionBlockRows));
    for (Consumer* c : active) {
      c->batches += SelectRowsRange(p, *c->input, begin, end, &c->rows);
    }
  }
  {
    // Close the registry entry first so nobody attaches to a finished
    // session, then release the waiters (same registry -> session order as
    // attach).
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    auto it = sessions_.find(&p);
    if (it != sessions_.end() && it->second == session) sessions_.erase(it);
    std::lock_guard<std::mutex> session_lock(session->mu);
    session->finished = true;
    session->delivered_until = delivered_until;
    for (const auto& c : session->consumers) c->done = true;
  }
  session->cv.notify_all();

  Consumer* self = session->consumers.front().get();
  AGGCACHE_CHECK_EQ(self->join_block, 0u);
  if (out->empty()) {
    *out = std::move(self->rows);
  } else {
    out->insert(out->end(), self->rows.begin(), self->rows.end());
  }
  Result result;
  result.led = true;
  result.batches = self->batches;
  (void)in;
  return result;
}

SharedScanManager::Result SharedScanManager::Follow(
    const Partition& p, const SelectionInput& in, Consumer* consumer,
    const std::shared_ptr<Session>& session, std::vector<uint32_t>* out) {
  ScopedSpan attach_span(SpanKind::kSharedScanAttach);
  // Scan the prefix the leader already passed ourselves, while the leader
  // keeps filling our tail; head + tail is the full ascending row range.
  std::vector<uint32_t> head;
  const uint32_t prefix_rows = std::min(
      session->num_rows, consumer->join_block *
                             static_cast<uint32_t>(kSelectionBlockRows));
  size_t batches = SelectRowsRange(p, in, 0, prefix_rows, &head);
  bool self_aborted = false;
  uint32_t delivered_until = 0;
  {
    std::unique_lock<std::mutex> lock(session->mu);
    if (in.context == nullptr) {
      session->cv.wait(lock, [consumer] { return consumer->done; });
    } else {
      // Governed followers poll their own token while parked so a
      // cancelled/expired query unwinds promptly instead of riding out the
      // leader's walk.
      while (!consumer->done) {
        if (in.context->IsAborted()) {
          self_aborted = true;
          break;
        }
        session->cv.wait_for(lock, std::chrono::milliseconds(2));
      }
    }
    delivered_until = session->delivered_until;
  }
  if (self_aborted) {
    // Leave consumer->rows untouched — the leader may still be filling it
    // (the Consumer is owned by the session, so nothing dangles). The
    // caller's QueryContext::Check() discards the scan's output anyway.
    Result result;
    result.attached = true;
    result.batches = batches;
    return result;
  }
  batches += consumer->batches;
  // Tail the leader abandoned mid-walk (its query aborted):
  // delivered_until == num_blocks after a complete walk, the abandon
  // cursor otherwise. consumer->rows covers [join_block, delivered_until).
  std::vector<uint32_t> tail;
  if (delivered_until < session->num_blocks) {
    const uint32_t tail_begin = std::min(
        session->num_rows, delivered_until *
                               static_cast<uint32_t>(kSelectionBlockRows));
    batches += SelectRowsRange(p, in, tail_begin, session->num_rows, &tail);
  }
  if (out->empty() && head.empty() && tail.empty()) {
    *out = std::move(consumer->rows);
  } else {
    out->insert(out->end(), head.begin(), head.end());
    out->insert(out->end(), consumer->rows.begin(), consumer->rows.end());
    out->insert(out->end(), tail.begin(), tail.end());
  }
  Result result;
  result.attached = true;
  result.batches = batches;
  return result;
}

}  // namespace aggcache
