// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/suvm/backing_store.h"

#include <cassert>
#include <mutex>
#include <stdexcept>

namespace eleos::suvm {
namespace {

bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

int Log2(size_t v) {
  int r = 0;
  while ((1ull << r) < v) {
    ++r;
  }
  return r;
}

}  // namespace

BackingStore::BackingStore(Config config)
    : capacity_(config.capacity_bytes),
      min_order_(Log2(config.min_block)),
      max_order_(Log2(config.capacity_bytes)),
      arena_(new uint8_t[config.capacity_bytes]) {
  if (!IsPowerOfTwo(config.capacity_bytes) || !IsPowerOfTwo(config.min_block)) {
    throw std::invalid_argument("BackingStore: sizes must be powers of two");
  }
  free_sets_.resize(static_cast<size_t>(max_order_ - min_order_ + 1));
  free_sets_.back().insert(0);  // one block covering the whole arena
}

int BackingStore::OrderFor(size_t bytes, int min_order) {
  if (bytes == 0) {
    bytes = 1;
  }
  int order = Log2(bytes);
  return order < min_order ? min_order : order;
}

uint64_t BackingStore::Alloc(size_t bytes) {
  const int order = OrderFor(bytes, min_order_);
  if (order > max_order_) {
    return kInvalidAddr;
  }
  std::lock_guard guard(lock_);

  // Find the smallest free block that fits.
  int have = order;
  while (have <= max_order_ && free_sets_[static_cast<size_t>(have - min_order_)].empty()) {
    ++have;
  }
  if (have > max_order_) {
    return kInvalidAddr;
  }

  auto& from = free_sets_[static_cast<size_t>(have - min_order_)];
  const uint64_t offset = *from.begin();
  from.erase(from.begin());

  // Split down to the requested order, returning the upper buddies to the
  // free lists.
  while (have > order) {
    --have;
    const uint64_t buddy = offset + (1ull << have);
    free_sets_[static_cast<size_t>(have - min_order_)].insert(buddy);
  }

  alloc_order_[offset] = order;
  allocated_bytes_ += 1ull << order;
  return offset;
}

void BackingStore::Free(uint64_t offset) {
  std::lock_guard guard(lock_);
  auto it = alloc_order_.find(offset);
  if (it == alloc_order_.end()) {
    // Never allocated or double-freed: tolerated no-op (see header). Throwing
    // here would let a confused caller abort the enclave; silently merging a
    // bogus block would corrupt the buddy metadata. Count and refuse both.
    bad_frees_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  int order = it->second;
  alloc_order_.erase(it);
  allocated_bytes_ -= 1ull << order;

  // Merge with free buddies as far as possible.
  uint64_t block = offset;
  while (order < max_order_) {
    const uint64_t buddy = block ^ (1ull << order);
    auto& set = free_sets_[static_cast<size_t>(order - min_order_)];
    auto bit = set.find(buddy);
    if (bit == set.end()) {
      break;
    }
    set.erase(bit);
    block = block < buddy ? block : buddy;
    ++order;
  }
  free_sets_[static_cast<size_t>(order - min_order_)].insert(block);
}

size_t BackingStore::BlockSize(uint64_t offset) const {
  std::lock_guard guard(lock_);
  auto it = alloc_order_.find(offset);
  if (it == alloc_order_.end()) {
    return 0;
  }
  return 1ull << it->second;
}

uint64_t BackingStore::bad_frees() const {
  return bad_frees_.load(std::memory_order_relaxed);
}

// --- Write-ahead journal ---

uint64_t BackingStore::JournalCrc(const JournalRecord& rec) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  const auto mix = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  };
  mix(&rec.bs_page, sizeof(rec.bs_page));
  mix(&rec.version, sizeof(rec.version));
  mix(rec.nonce, sizeof(rec.nonce));
  mix(rec.tag, sizeof(rec.tag));
  const uint64_t len = rec.payload.size();
  mix(&len, sizeof(len));
  mix(rec.payload.data(), rec.payload.size());
  return h;
}

uint64_t BackingStore::JournalAppend(JournalRecord rec) {
  std::lock_guard guard(journal_lock_);
  rec.seq = journal_next_seq_++;
  journal_bytes_.fetch_add(sizeof(JournalRecord) + rec.payload.size(),
                           std::memory_order_relaxed);
  journal_.push_back(std::move(rec));
  return journal_.back().seq;
}

bool BackingStore::JournalCommit(uint64_t seq) {
  std::lock_guard guard(journal_lock_);
  // Commits follow appends almost immediately; scan from the tail.
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    if (it->seq == seq) {
      it->committed = true;
      return true;
    }
  }
  return false;
}

void BackingStore::JournalTruncate(uint64_t up_to_seq) {
  std::lock_guard guard(journal_lock_);
  size_t keep = 0;
  for (const JournalRecord& rec : journal_) {
    if (rec.seq >= up_to_seq) {
      break;  // records are in seq order
    }
    ++keep;
  }
  if (keep == 0) {
    return;
  }
  for (size_t i = 0; i < keep; ++i) {
    journal_bytes_.fetch_sub(sizeof(JournalRecord) + journal_[i].payload.size(),
                             std::memory_order_relaxed);
  }
  journal_.erase(journal_.begin(),
                 journal_.begin() + static_cast<ptrdiff_t>(keep));
}

std::vector<JournalRecord> BackingStore::JournalSnapshot(
    uint64_t from_seq) const {
  std::lock_guard guard(journal_lock_);
  std::vector<JournalRecord> out;
  for (const JournalRecord& rec : journal_) {
    if (rec.seq >= from_seq) {
      out.push_back(rec);
    }
  }
  return out;
}

uint64_t BackingStore::journal_next_seq() const {
  std::lock_guard guard(journal_lock_);
  return journal_next_seq_;
}

size_t BackingStore::journal_records() const {
  std::lock_guard guard(journal_lock_);
  return journal_.size();
}

size_t BackingStore::journal_bytes() const {
  return journal_bytes_.load(std::memory_order_relaxed);
}

}  // namespace eleos::suvm
