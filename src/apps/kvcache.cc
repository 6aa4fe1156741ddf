// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/apps/kvcache.h"

#include <cstring>
#include <stdexcept>

namespace eleos::apps {
namespace {

uint32_t HashKey(std::string_view key) {
  // FNV-1a, as a stand-in for memcached's jenkins/murmur.
  uint32_t h = 2166136261u;
  for (char c : key) {
    h = (h ^ static_cast<uint8_t>(c)) * 16777619u;
  }
  return h == 0 ? 1 : h;
}

// The most item records a pool can need, the null record at index 0
// included: each live item holds at least one kMinChunk chunk, and freed
// indices are reused.
size_t MaxItems(size_t pool_bytes) {
  return pool_bytes / SlabAllocator::kMinChunk + 1;
}

// GET's error protocol: -1 is reserved for a plain miss.
int64_t GetErrCode(const eleos::Status& status) {
  return status.code() == eleos::StatusCode::kDataCorruption ? -2 : -3;
}

}  // namespace

// --- SlabAllocator ---

SlabAllocator::SlabAllocator(size_t pool_bytes) : pool_bytes_(pool_bytes) {
  size_t size = kMinChunk;
  while (size < kSlabBytes) {
    class_sizes_.push_back(size);
    size = size * 5 / 4;     // 1.25 growth factor
    size = (size + 7) & ~7u;  // 8-byte alignment
  }
  class_sizes_.push_back(kSlabBytes);
  free_lists_.resize(class_sizes_.size());
}

int SlabAllocator::ClassFor(size_t bytes) const {
  for (size_t i = 0; i < class_sizes_.size(); ++i) {
    if (bytes <= class_sizes_[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

uint64_t SlabAllocator::Alloc(size_t bytes, int* class_out) {
  const int cls = ClassFor(bytes);
  if (cls < 0) {
    return UINT64_MAX;
  }
  if (class_out != nullptr) {
    *class_out = cls;
  }
  auto& freelist = free_lists_[static_cast<size_t>(cls)];
  if (!freelist.empty()) {
    const uint64_t off = freelist.back();
    freelist.pop_back();
    return off;
  }
  // Carve a new slab page into chunks of this class.
  if (bump_ + kSlabBytes > pool_bytes_) {
    return UINT64_MAX;
  }
  const uint64_t slab = bump_;
  bump_ += kSlabBytes;
  slab_class_.push_back(static_cast<int16_t>(cls));
  const size_t chunk = ChunkSize(cls);
  const size_t count = kSlabBytes / chunk;
  freelist.reserve(freelist.size() + count - 1);
  for (size_t i = count; i > 1; --i) {
    freelist.push_back(slab + (i - 1) * chunk);
  }
  return slab;
}

bool SlabAllocator::ValidChunk(uint64_t offset, int cls) const {
  if (cls < 0 || static_cast<size_t>(cls) >= class_sizes_.size()) {
    return false;
  }
  if (offset >= bump_) {
    return false;
  }
  const size_t slab = offset / kSlabBytes;
  if (slab >= slab_class_.size() ||
      slab_class_[slab] != static_cast<int16_t>(cls)) {
    return false;
  }
  return (offset % kSlabBytes) % ChunkSize(cls) == 0;
}

void SlabAllocator::Free(uint64_t offset, size_t bytes) {
  const int cls = ClassFor(bytes);
  if (cls < 0) {
    throw std::invalid_argument("SlabAllocator::Free: bad size");
  }
  free_lists_[static_cast<size_t>(cls)].push_back(offset);
}

// --- KvCache ---

KvCache::KvCache(sim::Machine& machine, MemRegion& region, Options options)
    : machine_(&machine),
      region_(&region),
      options_(options),
      metadata_vaddr_(machine.ReserveRange(MaxItems(options.pool_bytes) *
                                           sizeof(ItemMeta))),
      slab_(options.pool_bytes),
      buckets_(options.hash_buckets, 0),
      lru_head_(slab_.classes(), 0),
      lru_tail_(slab_.classes(), 0),
      rejected_inputs_(
          machine.metrics().GetCounter("boundary.rejected_inputs")) {
  if (region.size() < options.pool_bytes) {
    throw std::invalid_argument("KvCache: region smaller than pool");
  }
  // Sized once: regrowing copies the whole table while both copies live.
  items_.reserve(MaxItems(options.pool_bytes));
  items_.resize(1);  // index 0 is the null item
}

void KvCache::RejectMetadata(sim::CpuContext* cpu) {
  metadata_rejects_.Add();
  rejected_inputs_->Add(1);
  machine_->metrics().trace().Record(
      telemetry::TraceKind::kBoundaryReject,
      cpu != nullptr ? cpu->clock.now() : 0,
      static_cast<uint64_t>(BoundarySite::kKvMetadata));
  last_status_ = Status::HostileInput("untrusted cache metadata rejected");
}

Status KvCache::CheckedRead(sim::CpuContext* cpu, uint64_t off, void* out,
                            size_t len) {
  if (!RangeFits(off, len, region_->size())) {
    RejectMetadata(cpu);
    return last_status_;
  }
  return region_->TryRead(cpu, off, out, len);
}

Status KvCache::CheckedWrite(sim::CpuContext* cpu, uint64_t off,
                             const void* data, size_t len) {
  if (!RangeFits(off, len, region_->size())) {
    RejectMetadata(cpu);
    return last_status_;
  }
  return region_->TryWrite(cpu, off, data, len);
}

uint32_t* KvCache::BucketHead(uint32_t hash) {
  return &buckets_[hash % buckets_.size()];
}

void KvCache::ChargeMetadataTouch(sim::CpuContext* cpu, size_t records) {
  if (cpu == nullptr) {
    return;
  }
  if (options_.metadata_in_secure_memory) {
    // Ablation: metadata accesses cost EPC rates (3-7% slowdown in §6.2.2).
    // The metadata working set is small and mostly LLC-resident; the probe
    // cycles within a 256 KiB pool so only the EPC hit/miss premium shows.
    metadata_probe_ = (metadata_probe_ + 64) % (256 * 1024);
    machine_->Access(cpu, 0x3e00'0000'0000ull + metadata_probe_, 64 * records,
                     false, sim::MemKind::kEpc);
  } else {
    machine_->Access(cpu, metadata_vaddr_, 64 * records, false,
                     sim::MemKind::kUntrusted);
  }
}

int64_t KvCache::Get(sim::CpuContext* cpu, std::string_view key, void* out,
                     size_t out_cap) {
  ++stats_.gets;
  last_status_ = Status::Ok();
  if (cpu != nullptr) {
    cpu->Charge(machine_->costs().hash_op_cycles);
  }
  const uint32_t hash = HashKey(key);
  const uint32_t item = FindLocked(cpu, key, hash);
  if (item == 0) {
    return last_status_.ok() ? -1 : GetErrCode(last_status_);
  }
  ++stats_.get_hits;
  // Snapshot the untrusted record once; all checks and reads below use the
  // snapshot, never a second fetch of the shared metadata (DESIGN.md §12).
  const ItemMeta m = items_[item];
  uint32_t lens[2];
  Status status = CheckedRead(cpu, m.data, lens, sizeof(lens));
  if (status.ok()) {
    // The lengths came from the secure record, but the offset that located
    // them is untrusted: insist the whole record fits its chunk before
    // deriving any further addresses from it.
    size_t record = 0;
    if (!CheckedAdd(8, lens[0], &record) ||
        !CheckedAdd(record, lens[1], &record) ||
        record > slab_.ChunkSize(m.cls)) {
      RejectMetadata(cpu);
      return GetErrCode(last_status_);
    }
    const size_t vlen = lens[1];
    const size_t take = vlen < out_cap ? vlen : out_cap;
    status = CheckedRead(cpu, m.data + 8 + lens[0], out, take);
    if (status.ok()) {
      // LRU bump (metadata only).
      LruUnlink(m.cls, item);
      LruPushFront(m.cls, item);
      ChargeMetadataTouch(cpu, 2);
      return static_cast<int64_t>(vlen);
    }
  }
  ++stats_.io_errors;
  last_status_ = status;
  return GetErrCode(status);
}

uint32_t KvCache::FindLocked(sim::CpuContext* cpu, std::string_view key,
                             uint32_t hash) {
  uint32_t cur = *BucketHead(hash);
  size_t steps = 0;
  while (cur != 0) {
    // Chain links are untrusted: bound the walk (a scribbled link can form a
    // cycle) and validate every index and chunk pointer before use.
    if (cur >= items_.size() || ++steps > items_.size()) {
      RejectMetadata(cpu);
      return 0;
    }
    ItemMeta& m = items_[cur];
    ChargeMetadataTouch(cpu, 1);
    if (!m.live || !slab_.ValidChunk(m.data, m.cls)) {
      RejectMetadata(cpu);
      return 0;
    }
    if (m.key_hash == hash) {
      // Compare the secure key bytes: the key echo in secure memory is what
      // authenticates an untrusted metadata pointer — a redirected m.data
      // lands on some other (whole, class-valid) record whose key will not
      // match. A failed read (quarantined page, crashed instance) is
      // recorded in last_status_ and the probe gives up rather than walking
      // the chain on garbage lengths.
      uint32_t lens[2];
      Status status = CheckedRead(cpu, m.data, lens, sizeof(lens));
      if (!status.ok()) {
        ++stats_.io_errors;
        last_status_ = status;
        return 0;
      }
      if (lens[0] == key.size() &&
          8 + static_cast<size_t>(lens[0]) <= slab_.ChunkSize(m.cls)) {
        std::vector<uint8_t> kbuf(lens[0]);
        status = CheckedRead(cpu, m.data + 8, kbuf.data(), lens[0]);
        if (!status.ok()) {
          ++stats_.io_errors;
          last_status_ = status;
          return 0;
        }
        if (std::memcmp(kbuf.data(), key.data(), key.size()) == 0) {
          return cur;
        }
      }
    }
    cur = m.hash_next;
  }
  return 0;
}

bool KvCache::Set(sim::CpuContext* cpu, std::string_view key, const void* value,
                  size_t value_len) {
  ++stats_.sets;
  last_status_ = Status::Ok();
  if (cpu != nullptr) {
    cpu->Charge(machine_->costs().hash_op_cycles);
  }
  const uint32_t hash = HashKey(key);
  uint32_t existing = FindLocked(cpu, key, hash);
  if (existing == 0 && !last_status_.ok()) {
    return false;  // could not even probe for the key: leave state untouched
  }
  // Overwrite protocol: unlink the old record but KEEP its storage until the
  // replacement is fully written. A partial write failure then restores the
  // old value (RelinkItem) instead of losing it — the old code removed the
  // item up front, so a failed write destroyed the previous value too.
  if (existing != 0) {
    UnlinkItem(cpu, existing);
  }

  const size_t need = 8 + key.size() + value_len;
  int cls = -1;
  uint64_t off = slab_.Alloc(need, &cls);
  while (off == UINT64_MAX) {
    const int want_cls = slab_.ClassFor(need);
    if (want_cls >= 0 && EvictOneFrom(cpu, want_cls)) {
      off = slab_.Alloc(need, &cls);
      continue;
    }
    if (existing != 0) {
      // Nothing evictable in the class: last resort, cannibalize the old
      // record's storage (the overwrite-on-full behaviour of the old code).
      // Past this point a write failure loses the old value — unavoidable
      // once its chunk is the only capacity left.
      FreeItemStorage(cpu, existing);
      existing = 0;
      off = slab_.Alloc(need, &cls);
      continue;
    }
    return false;  // value larger than any class, or nothing to evict
  }

  // Secure layout: [klen u32][vlen u32][key][value]. A failed write hands
  // the chunk back and relinks the old record (if one was held).
  const uint32_t lens[2] = {static_cast<uint32_t>(key.size()),
                            static_cast<uint32_t>(value_len)};
  Status status = CheckedWrite(cpu, off, lens, sizeof(lens));
  if (status.ok()) {
    status = CheckedWrite(cpu, off + 8, key.data(), key.size());
  }
  if (status.ok()) {
    status = CheckedWrite(cpu, off + 8 + key.size(), value, value_len);
  }
  if (!status.ok()) {
    ++stats_.io_errors;
    last_status_ = status;
    slab_.Free(off, need);
    if (existing != 0) {
      RelinkItem(cpu, existing);  // the old value survives the failed write
    }
    return false;
  }
  // The replacement is durable; now the old record can go.
  if (existing != 0) {
    FreeItemStorage(cpu, existing);
  }

  // Untrusted metadata record.
  uint32_t item;
  if (!free_items_.empty()) {
    item = free_items_.back();
    free_items_.pop_back();
  } else {
    items_.emplace_back();
    item = static_cast<uint32_t>(items_.size() - 1);
  }
  ItemMeta& m = items_[item];
  m = ItemMeta{};
  m.data = off;
  m.key_hash = hash;
  m.cls = static_cast<int16_t>(cls);
  m.live = true;
  uint32_t* head = BucketHead(hash);
  m.hash_next = *head;
  *head = item;
  LruPushFront(cls, item);
  ChargeMetadataTouch(cpu, 2);
  ++live_items_;
  return true;
}

namespace {

// Modeled network response send for one request in a multi-op: the payload
// has already been staged in untrusted memory; the host-side sendmsg is the
// untrusted function a worker (or the OCALL fallback) runs. Returns the
// bytes "sent" so the batch result is checkable end to end.
struct SendResponseOp {
  size_t bytes;
  int64_t operator()() const { return static_cast<int64_t>(bytes); }
};

}  // namespace

void KvCache::SendResponses(sim::CpuContext* cpu,
                            const std::vector<size_t>& response_bytes) {
  if (options_.rpc == nullptr || response_bytes.empty()) {
    return;
  }
  std::vector<SendResponseOp> sends;
  sends.reserve(response_bytes.size());
  size_t total = 0;
  for (size_t bytes : response_bytes) {
    sends.push_back(SendResponseOp{bytes});
    total += bytes;
  }
  options_.rpc->CallBatch(cpu, total / response_bytes.size(), sends);
}

size_t KvCache::MultiGet(sim::CpuContext* cpu,
                         const std::vector<std::string>& keys,
                         std::vector<std::vector<uint8_t>>* values) {
  values->assign(keys.size(), {});
  std::vector<size_t> response_bytes;
  response_bytes.reserve(keys.size());
  std::vector<uint8_t> scratch(64 << 10);
  size_t hits = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t len = Get(cpu, keys[i], scratch.data(), scratch.size());
    if (len >= 0) {
      const size_t take =
          static_cast<size_t>(len) < scratch.size()
              ? static_cast<size_t>(len)
              : scratch.size();
      (*values)[i].assign(scratch.begin(),
                          scratch.begin() + static_cast<int64_t>(take));
      // "VALUE <key> <flags> <len>\r\n<data>\r\nEND\r\n"-shaped response.
      response_bytes.push_back(keys[i].size() + take + 32);
      ++hits;
    } else {
      response_bytes.push_back(8);  // bare "END\r\n" miss marker
    }
  }
  SendResponses(cpu, response_bytes);
  return hits;
}

size_t KvCache::MultiSet(
    sim::CpuContext* cpu,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<size_t> response_bytes;
  response_bytes.reserve(pairs.size());
  size_t stored = 0;
  for (const auto& [key, value] : pairs) {
    if (Set(cpu, key, value.data(), value.size())) {
      ++stored;
      response_bytes.push_back(8);  // "STORED\r\n"
    } else {
      response_bytes.push_back(12);  // "NOT_STORED\r\n"
    }
  }
  SendResponses(cpu, response_bytes);
  return stored;
}

bool KvCache::Delete(sim::CpuContext* cpu, std::string_view key) {
  last_status_ = Status::Ok();
  const uint32_t hash = HashKey(key);
  const uint32_t item = FindLocked(cpu, key, hash);
  if (item == 0) {
    return false;
  }
  RemoveItem(cpu, item);
  return true;
}

void KvCache::RemoveItem(sim::CpuContext* cpu, uint32_t item) {
  UnlinkItem(cpu, item);
  FreeItemStorage(cpu, item);
}

void KvCache::UnlinkItem(sim::CpuContext* cpu, uint32_t item) {
  ItemMeta& m = items_[item];
  // Unlink from the hash chain. The links are untrusted: bound the walk and
  // validate every index; a corrupt chain means the item simply cannot be
  // unlinked from the hash side (the bucket was already lost to garbage).
  uint32_t* link = BucketHead(m.key_hash);
  size_t steps = 0;
  while (link != nullptr && *link != 0 && *link != item) {
    if (*link >= items_.size() || ++steps > items_.size()) {
      RejectMetadata(cpu);
      link = nullptr;
      break;
    }
    link = &items_[*link].hash_next;
  }
  if (link != nullptr && *link == item) {
    *link = m.hash_next;
  }
  m.hash_next = 0;
  LruUnlink(m.cls, item);
  m.live = false;
  --live_items_;
  ChargeMetadataTouch(cpu, 2);
}

void KvCache::RelinkItem(sim::CpuContext* cpu, uint32_t item) {
  ItemMeta& m = items_[item];
  uint32_t* head = BucketHead(m.key_hash);
  m.hash_next = *head;
  *head = item;
  LruPushFront(m.cls, item);
  m.live = true;
  ++live_items_;
  ChargeMetadataTouch(cpu, 2);
}

void KvCache::FreeItemStorage(sim::CpuContext* cpu, uint32_t item) {
  ItemMeta& m = items_[item];
  free_items_.push_back(item);
  if (!slab_.ValidChunk(m.data, m.cls)) {
    // Scribbled offset or class: freeing would poison the free lists and let
    // a future alloc overlap a live chunk. Leak the capacity instead — the
    // fail-closed cost of hostile metadata is capacity, never correctness.
    RejectMetadata(cpu);
    return;
  }
  // Free by the chunk's class size: it lands in the same free list as the
  // exact item size would (ClassFor is idempotent on class sizes) without
  // trusting a secure-region read that may be unavailable (quarantined page).
  slab_.Free(m.data, slab_.ChunkSize(m.cls));
}

bool KvCache::EvictOneFrom(sim::CpuContext* cpu, int cls) {
  if (!ValidCls(cls)) {
    return false;
  }
  const uint32_t victim = lru_tail_[static_cast<size_t>(cls)];
  if (victim == 0) {
    return false;
  }
  if (victim >= items_.size() || !items_[victim].live) {
    // The LRU cursor was scribbled: the list is unrecoverable garbage.
    // Drop it (its items stay reachable through the hash chains; only
    // eviction order is lost) rather than walk out of bounds.
    RejectMetadata(cpu);
    lru_head_[static_cast<size_t>(cls)] = 0;
    lru_tail_[static_cast<size_t>(cls)] = 0;
    return false;
  }
  RemoveItem(cpu, victim);
  ++stats_.evictions;
  return true;
}

void KvCache::LruUnlink(int cls, uint32_t item) {
  if (!ValidCls(cls)) {
    RejectMetadata(nullptr);
    return;
  }
  ItemMeta& m = items_[item];
  auto& head = lru_head_[static_cast<size_t>(cls)];
  auto& tail = lru_tail_[static_cast<size_t>(cls)];
  if ((m.lru_prev != 0 && m.lru_prev >= items_.size()) ||
      (m.lru_next != 0 && m.lru_next >= items_.size())) {
    // Scribbled neighbor links: the list around this item is garbage. Sever
    // our own links and drop the cursors if they point at us; the remaining
    // list items stay reachable through the hash chains.
    RejectMetadata(nullptr);
    m.lru_next = 0;
    m.lru_prev = 0;
    if (head == item) head = 0;
    if (tail == item) tail = 0;
    return;
  }
  if (m.lru_prev != 0) {
    items_[m.lru_prev].lru_next = m.lru_next;
  } else if (head == item) {
    head = m.lru_next;
  }
  if (m.lru_next != 0) {
    items_[m.lru_next].lru_prev = m.lru_prev;
  } else if (tail == item) {
    tail = m.lru_prev;
  }
  m.lru_next = 0;
  m.lru_prev = 0;
}

void KvCache::LruPushFront(int cls, uint32_t item) {
  if (!ValidCls(cls)) {
    RejectMetadata(nullptr);
    return;
  }
  auto& head = lru_head_[static_cast<size_t>(cls)];
  auto& tail = lru_tail_[static_cast<size_t>(cls)];
  if ((head != 0 && head >= items_.size()) ||
      (tail != 0 && tail >= items_.size())) {
    // Scribbled cursors: reset the list before pushing, so we never write
    // through an out-of-range "previous head".
    RejectMetadata(nullptr);
    head = 0;
    tail = 0;
  }
  ItemMeta& m = items_[item];
  m.lru_prev = 0;
  m.lru_next = head;
  if (head != 0) {
    items_[head].lru_prev = item;
  }
  head = item;
  if (tail == 0) {
    tail = item;
  }
}

void KvCache::HostileScribbleMetadata(uint64_t rnd) {
  // Same-thread adversary hook (see header): flips one value in the
  // cleartext metadata the way a hostile host could. Deliberately leaves
  // ItemMeta::live alone so live_items_ accounting stays meaningful — the
  // random-scribbler model targets the pointers and sizes that can steer
  // memory accesses, which is where validation has to hold the line.
  switch ((rnd >> 2) % 7) {
    case 0:
      buckets_[(rnd >> 16) % buckets_.size()] =
          static_cast<uint32_t>(rnd >> 32);
      break;
    case 1: {
      auto& lru = (rnd & 1) ? lru_head_ : lru_tail_;
      lru[(rnd >> 16) % lru.size()] = static_cast<uint32_t>(rnd >> 32);
      break;
    }
    default: {
      if (items_.size() <= 1) {
        break;
      }
      ItemMeta& m = items_[1 + (rnd >> 16) % (items_.size() - 1)];
      switch ((rnd >> 40) % 6) {
        case 0: m.data = rnd >> 8; break;
        case 1: m.hash_next = static_cast<uint32_t>(rnd >> 32); break;
        case 2: m.lru_next = static_cast<uint32_t>(rnd >> 32); break;
        case 3: m.lru_prev = static_cast<uint32_t>(rnd >> 32); break;
        case 4: m.key_hash = static_cast<uint32_t>(rnd >> 32); break;
        case 5: m.cls = static_cast<int16_t>(rnd >> 48); break;
      }
      break;
    }
  }
}

}  // namespace eleos::apps
