#include "server/result_cache.h"

namespace vpbn::server {

std::string ResultCache::Key(const std::string& doc, const std::string& view,
                             const std::string& path, uint64_t epoch) {
  // '\x1f' (unit separator) cannot appear in names or paths the protocol
  // accepts, so the concatenation is unambiguous.
  std::string key;
  key.reserve(doc.size() + view.size() + path.size() + 24);
  key += doc;
  key += '\x1f';
  key += view;
  key += '\x1f';
  key += path;
  key += '\x1f';
  key += std::to_string(epoch);
  return key;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::Get(
    const std::string& key, bool with_stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() &&
        (!with_stats || !it->second->second->stats_json.empty())) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ResultCache::Put(const std::string& key,
                      std::shared_ptr<const Entry> entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace vpbn::server
