// Copyright (c) Eleos reproduction authors. MIT license.
//
// KvCache: a memcached-style in-memory key-value cache (paper §5.1, §6.2.2).
//
// Follows the paper's integration exactly: the memcached-style *metadata*
// (hash chains, LRU lists, slab bookkeeping, sizes of the memory pool) stays
// in cleartext untrusted memory — it is security-insensitive — while the
// keys, values, and their sizes live in secure memory through the C-style
// SUVM API (or an EnclaveRegion for vanilla SGX, or plain memory for native).
// A slab allocator with power-of-1.25 size classes manages the secure pool,
// like memcached's.

#ifndef ELEOS_SRC_APPS_KVCACHE_H_
#define ELEOS_SRC_APPS_KVCACHE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/common/untrusted.h"
#include "src/crypto/ctr.h"
#include "src/rpc/rpc_manager.h"
#include "src/telemetry/telemetry.h"

namespace eleos::apps {

// Slab allocator over a MemRegion: size classes growing by 1.25x, 1 MiB slab
// pages carved into fixed-size chunks, per-class free lists (all bookkeeping
// in untrusted memory, as in memcached).
class SlabAllocator {
 public:
  static constexpr size_t kSlabBytes = 1 << 20;
  static constexpr size_t kMinChunk = 96;

  explicit SlabAllocator(size_t pool_bytes);

  // Returns the chunk offset in the region, or UINT64_MAX when the pool is
  // exhausted and nothing is free in the class.
  uint64_t Alloc(size_t bytes, int* class_out = nullptr);
  void Free(uint64_t offset, size_t bytes);

  int ClassFor(size_t bytes) const;
  size_t ChunkSize(int cls) const { return class_sizes_[static_cast<size_t>(cls)]; }
  size_t classes() const { return class_sizes_.size(); }

  // True iff (offset, cls) names a genuine chunk boundary of a slab page
  // carved for exactly that class. This is the validation gate for chunk
  // offsets recovered from untrusted metadata (DESIGN.md §12): an accepted
  // offset can never overlap a chunk of another item, so scribbled metadata
  // can redirect a lookup only to a whole (key-checked) record, never into
  // the middle of one.
  bool ValidChunk(uint64_t offset, int cls) const;

 private:
  size_t pool_bytes_;
  uint64_t bump_ = 0;  // next unallocated slab page
  std::vector<size_t> class_sizes_;
  std::vector<std::vector<uint64_t>> free_lists_;
  std::vector<int16_t> slab_class_;  // class each carved slab page serves
};

struct KvStats {
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t sets = 0;
  uint64_t evictions = 0;
  uint64_t io_errors = 0;  // secure-region accesses that returned non-OK
};

class KvCache {
 public:
  struct Options {
    size_t pool_bytes = 64 << 20;  // secure memory pool for key/value data
    size_t hash_buckets = 1 << 16;
    // Paper §5.1 ablation: keep *all* metadata in secure memory instead of
    // the optimized cleartext-metadata split (3-7% slower in §6.2.2).
    bool metadata_in_secure_memory = false;
    // When set, MultiGet/MultiSet send each request's whole response (every
    // VALUE block, miss marker or ack) with one exit-less call
    // (RpcManager::Call), as memcached answers "get k1 ... k8" with one
    // sendmsg over an iovec list. Null keeps the multi ops purely local (no
    // response I/O modeled).
    rpc::RpcManager* rpc = nullptr;
  };

  KvCache(sim::Machine& machine, MemRegion& region, Options options);

  // SET: stores key -> value, evicting LRU items of the class if needed.
  // Returns false when the pool is exhausted OR the secure region failed the
  // write (inspect last_status() to tell the cases apart).
  bool Set(sim::CpuContext* cpu, std::string_view key, const void* value,
           size_t value_len);
  // GET: copies the value into out (up to out_cap); returns length, -1 on a
  // miss, -2 when the secure region reported corruption (quarantined page),
  // -3 on any other region failure (crashed instance, exhausted EPC++).
  int64_t Get(sim::CpuContext* cpu, std::string_view key, void* out,
              size_t out_cap);
  bool Delete(sim::CpuContext* cpu, std::string_view key);

  // Batched lookup (memcached "get k1 k2 ..."): performs the secure-region
  // reads, then sends the one response for all keys — hits and miss markers
  // — when Options::rpc is attached. values[i] is the whole value for
  // keys[i], empty on miss or error. Returns the hit count.
  size_t MultiGet(sim::CpuContext* cpu, const std::vector<std::string>& keys,
                  std::vector<std::vector<uint8_t>>* values);
  // Batched store: one Set per pair, then the "STORED"/"NOT_STORED" acks go
  // out as one response. Returns the stored count.
  size_t MultiSet(
      sim::CpuContext* cpu,
      const std::vector<std::pair<std::string, std::string>>& pairs);

  const KvStats& stats() const { return stats_; }
  size_t item_count() const { return live_items_; }
  // The Status behind the most recent operation's failure (Ok after a clean
  // op); lets callers map -2/-3/false to a concrete cause. kHostileInput
  // means untrusted metadata failed validation (DESIGN.md §12).
  const Status& last_status() const { return last_status_; }

  // Adversary hook: models the hostile host scribbling one random value into
  // the cleartext metadata (bucket heads, LRU cursors, item records — the
  // state the paper deliberately keeps in untrusted memory, §5.1). Called
  // from the same thread as the cache ops (the metadata is plain state, not
  // atomics); every subsequent op must stay in-bounds and end correct or
  // fail-closed with metadata_rejects() counted.
  void HostileScribbleMetadata(uint64_t rnd);
  // Metadata validations failed by this instance (subset of
  // boundary.rejected_inputs).
  uint64_t metadata_rejects() const { return metadata_rejects_.value(); }

 private:
  struct ItemMeta {          // untrusted, cleartext (like memcached's header)
    uint64_t data = 0;       // offset of [klen|vlen|key|value] in the region
    uint32_t hash_next = 0;  // 1-based item index; 0 = end
    uint32_t lru_next = 0;
    uint32_t lru_prev = 0;
    uint32_t key_hash = 0;
    int16_t cls = -1;
    bool live = false;
  };

  uint32_t* BucketHead(uint32_t hash);
  // Finds the item for key; 0 if absent or on a failed read or check (see
  // last_status_). One region read fetches a candidate's lengths and key
  // echo; a hit's whole record is checked to fit its chunk, and its value
  // length goes to *vlen when vlen is set.
  uint32_t FindLocked(sim::CpuContext* cpu, std::string_view key, uint32_t hash,
                      uint32_t* vlen = nullptr);
  // GET's body: reads the value into out (up to out_cap), or, when `sized` is
  // set, into *sized resized to the value's length.
  int64_t GetInto(sim::CpuContext* cpu, std::string_view key, void* out,
                  size_t out_cap, std::vector<uint8_t>* sized);
  void LruUnlink(int cls, uint32_t item);
  void LruPushFront(int cls, uint32_t item);
  bool EvictOneFrom(sim::CpuContext* cpu, int cls);
  // RemoveItem = UnlinkItem + FreeItemStorage. The split lets Set keep the
  // old record's storage alive (unlinked) until the replacement is fully
  // written, and RelinkItem restore it when the write fails — so an
  // overwrite can no longer lose the old value on partial failure.
  void RemoveItem(sim::CpuContext* cpu, uint32_t item);
  void UnlinkItem(sim::CpuContext* cpu, uint32_t item);
  void RelinkItem(sim::CpuContext* cpu, uint32_t item);
  void FreeItemStorage(sim::CpuContext* cpu, uint32_t item);
  bool ValidCls(int cls) const {
    return cls >= 0 && static_cast<size_t>(cls) < slab_.classes();
  }
  // Fail-closed handling of metadata that failed validation: counts the
  // reject (local + boundary.rejected_inputs), records a kBoundaryReject
  // trace event, and sets last_status_ to kHostileInput.
  void RejectMetadata(sim::CpuContext* cpu);
  // Region access with the offset/length validated against the region before
  // any bytes move (untrusted metadata supplies the offsets; the underlying
  // regions do not bounds-check). Rejection returns kHostileInput.
  Status CheckedRead(sim::CpuContext* cpu, uint64_t off, void* out, size_t len);
  Status CheckedWrite(sim::CpuContext* cpu, uint64_t off, const void* data,
                      size_t len);
  void ChargeMetadataTouch(sim::CpuContext* cpu, size_t records);
  // Sends one staged response of `bytes` (no-op without Options::rpc).
  void SendResponse(sim::CpuContext* cpu, size_t bytes);

  sim::Machine* machine_;
  MemRegion* region_;
  Options options_;
  // Synthetic address of the cleartext metadata (Machine::ReserveRange):
  // metadata touches are charged here, never at a host pointer.
  uint64_t metadata_vaddr_;
  SlabAllocator slab_;
  std::vector<uint32_t> buckets_;
  std::vector<ItemMeta> items_;  // 1-based (index 0 unused)
  std::vector<uint32_t> free_items_;
  std::vector<uint32_t> lru_head_;  // per class
  std::vector<uint32_t> lru_tail_;
  size_t live_items_ = 0;
  uint64_t metadata_probe_ = 0;  // synthetic address cursor for the ablation
  KvStats stats_;
  Status last_status_;
  telemetry::Counter* rejected_inputs_;  // boundary.rejected_inputs (shared)
  telemetry::Counter metadata_rejects_;
};

}  // namespace eleos::apps

#endif  // ELEOS_SRC_APPS_KVCACHE_H_
