// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/libos/fs.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256.h"

namespace eleos::libos {

// --- EnclaveFs ---

EnclaveFs::EnclaveFs(sim::Enclave& enclave, MemFs& host_fs, ExitMode mode,
                     rpc::RpcManager* rpc)
    : enclave_(&enclave),
      host_(&host_fs),
      mode_(mode),
      rpc_(rpc),
      faults_(&enclave.machine().fault_injector()),
      rejected_inputs_(enclave.machine().metrics().GetCounter(
          "boundary.rejected_inputs")) {
  if (mode == ExitMode::kRpc && rpc == nullptr) {
    throw std::invalid_argument("EnclaveFs: RPC mode requires an RpcManager");
  }
}

int64_t EnclaveFs::IagoMangle(int64_t genuine, size_t requested) {
  if (faults_ == nullptr || !faults_->armed(sim::Fault::kIagoReturn) ||
      !faults_->ShouldInject(sim::Fault::kIagoReturn)) {
    return genuine;
  }
  // Rotate through the classic lying-host shapes: one past the buffer, a
  // giant positive, an errno outside the allow-set, a high-bit-tagged count.
  switch (iago_cycle_.fetch_add(1, std::memory_order_relaxed) % 4) {
    case 0:
      return static_cast<int64_t>(requested) + 1;
    case 1:
      return INT64_MAX;
    case 2:
      return -4096;
    default:
      return static_cast<int64_t>((1ull << 62) | requested);
  }
}

int64_t EnclaveFs::ValidateCount(sim::CpuContext* cpu, int64_t r,
                                 size_t requested) {
  // The allow-set for a byte-count result: the genuine error value, or a
  // transfer no larger than what was asked for. Everything else is an Iago
  // return — using it would let the host walk trusted pointers out of the
  // caller's buffer.
  if (r == kMemFsError ||
      (r >= 0 && static_cast<uint64_t>(r) <= requested)) {
    last_status_ = Status::Ok();
    return r;
  }
  return RejectBoundary(cpu, BoundarySite::kFsResultRange);
}

int64_t EnclaveFs::RejectBoundary(sim::CpuContext* cpu, BoundarySite site) {
  iago_rejects_.Add();
  rejected_inputs_->Add(1);
  enclave_->machine().metrics().trace().Record(
      telemetry::TraceKind::kBoundaryReject,
      cpu != nullptr ? cpu->clock.now() : 0, static_cast<uint64_t>(site));
  last_status_ = Status::HostileInput("untrusted fs result rejected");
  return kMemFsError;
}

int EnclaveFs::Open(sim::CpuContext* cpu, const std::string& path, int flags) {
  return Forward(cpu, path.size() + 64,
                 [&] { return host_->Open(path, flags); });
}

int EnclaveFs::Close(sim::CpuContext* cpu, int fd) {
  return Forward(cpu, 16, [&] { return host_->Close(fd); });
}

int64_t EnclaveFs::Read(sim::CpuContext* cpu, int fd, void* buf, size_t count) {
  const int64_t r = Forward(
      cpu, count, [&] { return IagoMangle(host_->Read(fd, buf, count), count); });
  return ValidateCount(cpu, r, count);
}

int64_t EnclaveFs::Write(sim::CpuContext* cpu, int fd, const void* buf,
                         size_t count) {
  const int64_t r = Forward(cpu, count, [&] {
    return IagoMangle(host_->Write(fd, buf, count), count);
  });
  return ValidateCount(cpu, r, count);
}

int64_t EnclaveFs::Pread(sim::CpuContext* cpu, int fd, void* buf, size_t count,
                         uint64_t offset) {
  const int64_t r = Forward(cpu, count, [&] {
    return IagoMangle(host_->Pread(fd, buf, count, offset), count);
  });
  return ValidateCount(cpu, r, count);
}

int64_t EnclaveFs::Pwrite(sim::CpuContext* cpu, int fd, const void* buf,
                          size_t count, uint64_t offset) {
  const int64_t r = Forward(cpu, count, [&] {
    return IagoMangle(host_->Pwrite(fd, buf, count, offset), count);
  });
  return ValidateCount(cpu, r, count);
}

int64_t EnclaveFs::Seek(sim::CpuContext* cpu, int fd, int64_t offset,
                        int whence) {
  return Forward(cpu, 16, [&] { return host_->Seek(fd, offset, whence); });
}

int EnclaveFs::Unlink(sim::CpuContext* cpu, const std::string& path) {
  return Forward(cpu, path.size() + 16, [&] { return host_->Unlink(path); });
}

// Copyable host-call functors for the batched RPC path: each slice becomes
// one refcounted job, so the callable must own its parameters by value. They
// run on the untrusted side, so the kIagoReturn mangle hook sits here —
// downstream of the genuine host call, upstream of the trusted validation.
struct PreadOp {
  EnclaveFs* fs;
  int fd;
  IoSlice s;
  int64_t operator()() const {
    return fs->IagoMangle(fs->host_->Pread(fd, s.buf, s.len, s.offset), s.len);
  }
};
struct PwriteOp {
  EnclaveFs* fs;
  int fd;
  ConstIoSlice s;
  int64_t operator()() const {
    return fs->IagoMangle(fs->host_->Pwrite(fd, s.buf, s.len, s.offset),
                          s.len);
  }
};

int64_t EnclaveFs::Preadv(sim::CpuContext* cpu, int fd, const IoSlice* slices,
                          size_t n) {
  if (n == 0) {
    return 0;
  }
  // The slice lengths are caller inputs of untrusted provenance (a hostile
  // host can hand back a forged iovec through a prior syscall): reject a
  // wrapping total BEFORE any cost is charged or any host call is made, so
  // an overflow can never buy a tiny charge for a huge transfer.
  size_t total_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!CheckedAdd(total_bytes, slices[i].len, &total_bytes)) {
      return RejectBoundary(cpu, BoundarySite::kFsIovecOverflow);
    }
  }
  syscalls_ += n;  // still one host syscall per slice, however it exits
  int64_t total = 0;
  if (mode_ == ExitMode::kRpc) {
    std::vector<PreadOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ops.push_back(PreadOp{this, fd, slices[i]});
    }
    const std::vector<int64_t> results =
        rpc_->CallBatch(cpu, total_bytes / n, ops);
    for (size_t i = 0; i < results.size(); ++i) {
      // Per-slice Iago validation: each count is clamped to ITS request.
      const int64_t r = ValidateCount(cpu, results[i], slices[i].len);
      if (r < 0) {
        return r;
      }
      total += r;
    }
    return total;
  }
  for (size_t i = 0; i < n; ++i) {
    const IoSlice& s = slices[i];
    const auto op = [&] {
      return IagoMangle(host_->Pread(fd, s.buf, s.len, s.offset), s.len);
    };
    const int64_t raw =
        cpu != nullptr ? enclave_->Ocall(*cpu, s.len, op) : op();
    const int64_t r = ValidateCount(cpu, raw, s.len);
    if (r < 0) {
      return r;
    }
    total += r;
  }
  return total;
}

int64_t EnclaveFs::Pwritev(sim::CpuContext* cpu, int fd,
                           const ConstIoSlice* slices, size_t n) {
  if (n == 0) {
    return 0;
  }
  // Same overflow-before-charge contract as Preadv.
  size_t total_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!CheckedAdd(total_bytes, slices[i].len, &total_bytes)) {
      return RejectBoundary(cpu, BoundarySite::kFsIovecOverflow);
    }
  }
  syscalls_ += n;
  int64_t total = 0;
  if (mode_ == ExitMode::kRpc) {
    std::vector<PwriteOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ops.push_back(PwriteOp{this, fd, slices[i]});
    }
    const std::vector<int64_t> results =
        rpc_->CallBatch(cpu, total_bytes / n, ops);
    for (size_t i = 0; i < results.size(); ++i) {
      const int64_t r = ValidateCount(cpu, results[i], slices[i].len);
      if (r < 0) {
        return r;
      }
      total += r;
    }
    return total;
  }
  for (size_t i = 0; i < n; ++i) {
    const ConstIoSlice& s = slices[i];
    const auto op = [&] {
      return IagoMangle(host_->Pwrite(fd, s.buf, s.len, s.offset), s.len);
    };
    const int64_t raw =
        cpu != nullptr ? enclave_->Ocall(*cpu, s.len, op) : op();
    const int64_t r = ValidateCount(cpu, raw, s.len);
    if (r < 0) {
      return r;
    }
    total += r;
  }
  return total;
}

// --- ProtectedFile ---

ProtectedFile::ProtectedFile(EnclaveFs& fs, sim::Enclave& enclave,
                             const std::string& path, uint64_t key_seed)
    : fs_(&fs),
      enclave_(&enclave),
      gcm_(crypto::DeriveAesKey("protected-file", key_seed).data()),
      nonce_rng_(key_seed ^ 0x517ec7ed) {
  fd_ = fs_->Open(nullptr, path, kRdWr | kCreate | kTrunc);
  if (fd_ < 0) {
    throw std::runtime_error("ProtectedFile: cannot open " + path);
  }
}

ProtectedFile::~ProtectedFile() { fs_->Close(nullptr, fd_); }

void ProtectedFile::LoadBlock(sim::CpuContext* cpu, uint64_t block,
                              uint8_t* plain) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    std::memset(plain, 0, kBlockSize);  // sparse: never written
    return;
  }
  uint8_t sealed[kSealedBlockSize];
  const int64_t n = fs_->Pread(cpu, fd_, sealed, sizeof(sealed),
                               block * kSealedBlockSize);
  if (n != static_cast<int64_t>(sizeof(sealed))) {
    throw std::runtime_error("ProtectedFile: truncated block (tampering?)");
  }
  // Verify against the *enclave-stored* nonce and tag — the host-side copy
  // of the tag is ignored, so neither tampering nor replay of stale sealed
  // blocks can pass.
  const uint64_t aad = block;
  if (!gcm_.Open(it->second.nonce, reinterpret_cast<const uint8_t*>(&aad),
                 sizeof(aad), sealed, kBlockSize, it->second.tag, plain)) {
    throw std::runtime_error(
        "ProtectedFile: block integrity check failed (tampered or stale)");
  }
  enclave_->ChargeGcm(cpu, kBlockSize);
}

void ProtectedFile::StoreBlock(sim::CpuContext* cpu, uint64_t block,
                               const uint8_t* plain) {
  BlockMeta& meta = blocks_[block];
  nonce_rng_.FillBytes(meta.nonce, sizeof(meta.nonce));
  uint8_t sealed[kSealedBlockSize];
  const uint64_t aad = block;
  gcm_.Seal(meta.nonce, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
            plain, kBlockSize, sealed, sealed + kBlockSize);
  std::memcpy(meta.tag, sealed + kBlockSize, crypto::kGcmTagSize);
  enclave_->ChargeGcm(cpu, kBlockSize);
  const int64_t n = fs_->Pwrite(cpu, fd_, sealed, sizeof(sealed),
                                block * kSealedBlockSize);
  if (n != static_cast<int64_t>(sizeof(sealed))) {
    throw std::runtime_error("ProtectedFile: short write");
  }
}

void ProtectedFile::WriteAt(sim::CpuContext* cpu, uint64_t offset,
                            const void* data, size_t len) {
  const auto* src = static_cast<const uint8_t*>(data);
  uint8_t plain[kBlockSize];
  while (len > 0) {
    const uint64_t block = offset / kBlockSize;
    const size_t in_block = offset % kBlockSize;
    const size_t chunk = std::min(len, kBlockSize - in_block);
    if (chunk < kBlockSize) {
      LoadBlock(cpu, block, plain);  // read-modify-write
    }
    std::memcpy(plain + in_block, src, chunk);
    StoreBlock(cpu, block, plain);
    src += chunk;
    offset += chunk;
    len -= chunk;
  }
  logical_size_ = std::max(logical_size_, offset);
}

void ProtectedFile::ReadAt(sim::CpuContext* cpu, uint64_t offset, void* out,
                           size_t len) {
  auto* dst = static_cast<uint8_t*>(out);
  uint8_t plain[kBlockSize];
  while (len > 0) {
    const uint64_t block = offset / kBlockSize;
    const size_t in_block = offset % kBlockSize;
    const size_t chunk = std::min(len, kBlockSize - in_block);
    LoadBlock(cpu, block, plain);
    std::memcpy(dst, plain + in_block, chunk);
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
}

}  // namespace eleos::libos
