#include "core/session_registry.h"

#include <utility>

#include "crypto/sha256.h"

namespace ppc {

uint64_t SessionEntropySeed(uint64_t entropy_seed, const std::string& session) {
  Sha256 hasher;
  hasher.Update("ppc-session-entropy:");
  uint8_t seed_bytes[8] = {};
  for (int b = 0; b < 8; ++b) {
    seed_bytes[b] = static_cast<uint8_t>(entropy_seed >> (8 * b));
  }
  hasher.Update(seed_bytes, sizeof(seed_bytes));
  hasher.Update(session);
  const std::string digest = hasher.Finish();
  uint64_t out = 0;
  for (int b = 7; b >= 0; --b) {
    out = (out << 8) | static_cast<uint8_t>(digest[b]);
  }
  return out;
}

Status SessionRegistry::StartSession(const std::string& id, SessionBody body) {
  if (id.empty()) {
    return Status::InvalidArgument(
        "session id must be non-empty (the empty id is the transport's "
        "default session)");
  }
  MutexLock lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(id);
  if (!inserted) {
    return Status::AlreadyExists("session '" + id + "' already started");
  }
  it->second = std::make_unique<Entry>();
  Entry* entry = it->second.get();
  entry->view = std::make_unique<SessionNetwork>(transport_, id);
  // The worker thread must be assigned BEFORE the registry lock is
  // released: the entry becomes findable the moment `mutex_` drops, and a
  // concurrent WaitSession that found a default-constructed handle would
  // see joinable()==false and return the default-OK result while the body
  // is still running (plus an unsynchronized read of the handle itself).
  // Lock order mutex_ -> join_mutex is deadlock-free: Join takes only
  // join_mutex.
  MutexLock handle_lock(entry->join_mutex);
  entry->worker = std::thread([this, id, entry, body = std::move(body)] {
    Status result = body(entry->view.get(), &entry->token);
    if (!result.ok()) {
      // A failed (or cancelled) session must not leak transport state:
      // drop its queued frames, channel counters, nonce counters, and
      // crypto contexts. Session ids are single-use per registry, so the
      // purged id can never restart and reuse a (key, nonce) pair.
      transport_->PurgeSession(id);
    }
    entry->result = std::move(result);
    entry->done.store(true, std::memory_order_release);
  });
  return Status::OK();
}

Status SessionRegistry::CancelSession(const std::string& id, Status reason) {
  Entry* entry = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return Status::NotFound("session '" + id + "' was never started");
    }
    entry = it->second.get();
  }
  entry->token.Cancel(std::move(reason));
  return Status::OK();
}

void SessionRegistry::CancelAll(Status reason) {
  std::vector<Entry*> live;
  {
    MutexLock lock(mutex_);
    for (auto& [id, entry] : entries_) {
      if (!entry->done.load(std::memory_order_acquire)) {
        live.push_back(entry.get());
      }
    }
  }
  for (Entry* entry : live) entry->token.Cancel(reason);
}

Status SessionRegistry::Join(Entry* entry) {
  {
    MutexLock lock(entry->join_mutex);
    if (entry->worker.joinable()) entry->worker.join();
  }
  return entry->result;
}

Status SessionRegistry::WaitSession(const std::string& id) {
  Entry* entry = nullptr;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return Status::NotFound("session '" + id + "' was never started");
    }
    entry = it->second.get();
  }
  return Join(entry);
}

Status SessionRegistry::WaitAll() {
  // Snapshot under the lock, join outside it: a body may StartSession.
  std::vector<std::pair<std::string, Entry*>> entries;
  {
    MutexLock lock(mutex_);
    entries.reserve(entries_.size());
    for (auto& [id, entry] : entries_) entries.emplace_back(id, entry.get());
  }
  Status first_error;
  for (auto& [id, entry] : entries) {
    Status status = Join(entry);
    if (!status.ok() && first_error.ok()) {
      first_error = Status(status.code(),
                           "session '" + id + "': " + status.message());
    }
  }
  return first_error;
}

size_t SessionRegistry::ActiveCount() const {
  MutexLock lock(mutex_);
  size_t active = 0;
  for (const auto& [id, entry] : entries_) {
    if (!entry->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

std::vector<std::string> SessionRegistry::SessionIds() const {
  MutexLock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace ppc
