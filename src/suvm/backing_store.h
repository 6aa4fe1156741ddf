// Copyright (c) Eleos reproduction authors. MIT license.
//
// SUVM's secure backing store: a slab of untrusted memory managed by a buddy
// allocator (the paper uses the SQLite zero-malloc buddy allocator with a
// 16-byte minimum allocation; this is a from-scratch equivalent).
//
// The arena holds only *ciphertext*: pages evicted from EPC++ are AES-GCM
// sealed into their backing offsets, and in direct-access mode each 1 KiB
// sub-page is sealed separately at its own offset. Offsets double as SUVM's
// logical ("secure") addresses — what spointers carry.

#ifndef ELEOS_SRC_SUVM_BACKING_STORE_H_
#define ELEOS_SRC_SUVM_BACKING_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/spinlock.h"

namespace eleos::suvm {

inline constexpr uint64_t kInvalidAddr = UINT64_MAX;

// Sized to match crypto::kGcmNonceSize / kGcmTagSize without pulling crypto
// headers into the allocator (suvm.cc static_asserts the equivalence).
inline constexpr size_t kJournalNonceSize = 12;
inline constexpr size_t kJournalTagSize = 16;

// One write-ahead journal record: the sealed ciphertext of a page plus the
// enclave metadata (nonce/tag/version) needed to re-verify it after a crash.
// The record lives in untrusted memory, so nothing in it is trusted until the
// MAC verifies under the enclave key — the CRC only detects *torn* records
// (a crash mid-append), not tampering.
struct JournalRecord {
  uint64_t seq = 0;       // assigned by JournalAppend (monotonic)
  uint64_t bs_page = 0;   // destination backing-store page
  uint64_t version = 0;   // per-page monotonic seal version
  uint8_t nonce[kJournalNonceSize] = {};
  uint8_t tag[kJournalTagSize] = {};
  bool committed = false;  // commit mark: the in-place write finished
  std::vector<uint8_t> payload;  // sealed page ciphertext
  uint64_t crc = 0;  // FNV-1a over bs_page/version/nonce/tag/payload
};

class BackingStore {
 public:
  struct Config {
    size_t capacity_bytes = 256ull << 20;  // must be a power of two
    size_t min_block = 16;                 // paper: 16-byte minimum allocation
  };

  explicit BackingStore(Config config);

  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  // Allocates a block of at least `bytes`; returns its offset (the SUVM
  // address) or kInvalidAddr when the arena is exhausted.
  uint64_t Alloc(size_t bytes);
  // Freeing an offset that is not a live allocation start (never allocated,
  // or already freed) is a tolerated no-op: the arena is shared with an
  // untrusted host, so a confused or hostile caller must not be able to
  // corrupt the buddy metadata. The event is counted in bad_frees().
  void Free(uint64_t offset);

  // Size of the block allocated at `offset` (its rounded power-of-two size);
  // 0 when `offset` is not a live allocation start.
  size_t BlockSize(uint64_t offset) const;

  // Misuse accounting: Free calls that named no live allocation.
  uint64_t bad_frees() const;
  // The atomics behind bad_frees() and journal_bytes(), read in place by the
  // metric registry (suvm.backing_bad_frees, suvm.journal_bytes).
  const std::atomic<uint64_t>& bad_frees_cell() const { return bad_frees_; }
  const std::atomic<size_t>& journal_bytes_cell() const {
    return journal_bytes_;
  }

  // --- Write-ahead journal (crash consistency) ---
  // Two-phase commit for sealed page writes: the caller appends the full
  // record (payload + CRC precomputed via JournalCrc), performs the in-place
  // arena write, then commits. A crash at any point leaves either a torn
  // record (CRC mismatch — discarded on replay), a complete-but-uncommitted
  // record (replayable: replay is idempotent), or a committed record.
  // Records model an append-only region of untrusted memory.
  uint64_t JournalAppend(JournalRecord rec);  // assigns + returns seq
  // Marks `seq` committed; false if the record is unknown (already truncated).
  bool JournalCommit(uint64_t seq);
  // Drops records with seq < up_to_seq (checkpoint made them redundant).
  void JournalTruncate(uint64_t up_to_seq);
  // Records with seq >= from_seq, in append order.
  std::vector<JournalRecord> JournalSnapshot(uint64_t from_seq) const;
  uint64_t journal_next_seq() const;
  size_t journal_records() const;
  size_t journal_bytes() const;
  // Torn-write detector: FNV-1a over the record's addressed fields + payload.
  static uint64_t JournalCrc(const JournalRecord& rec);

  uint8_t* Raw(uint64_t offset) { return arena_.get() + offset; }
  const uint8_t* Raw(uint64_t offset) const { return arena_.get() + offset; }

  size_t capacity() const { return capacity_; }
  size_t allocated_bytes() const { return allocated_bytes_; }
  size_t allocation_count() const { return alloc_order_.size(); }

 private:
  static int OrderFor(size_t bytes, int min_order);

  size_t capacity_;
  int min_order_;
  int max_order_;
  std::unique_ptr<uint8_t[]> arena_;

  mutable Spinlock lock_;
  // free_sets_[k]: offsets of free blocks of order (min_order_ + k).
  std::vector<std::unordered_set<uint64_t>> free_sets_;
  std::unordered_map<uint64_t, int> alloc_order_;  // offset -> order
  size_t allocated_bytes_ = 0;
  std::atomic<uint64_t> bad_frees_{0};  // written under lock_, read lock-free

  mutable Spinlock journal_lock_;
  std::vector<JournalRecord> journal_;
  uint64_t journal_next_seq_ = 0;
  // Written under journal_lock_, read lock-free.
  std::atomic<size_t> journal_bytes_{0};
};

}  // namespace eleos::suvm

#endif  // ELEOS_SRC_SUVM_BACKING_STORE_H_
