// Copyright (c) Eleos reproduction authors. MIT license.
//
// The trusted side of the libOS file layer (the role Graphene plays for the
// paper's memcached): POSIX-ish file calls forwarded out of the enclave —
// via classic OCALLs or via Eleos's exit-less RPC — into the host MemFs.
//
// ProtectedFile adds SGX-protected-FS-style confidentiality/integrity on
// top: file contents are sealed per 4 KiB block with AES-GCM before leaving
// the enclave; block index rides in the AAD (no block swapping) and the
// nonce+MAC table stays in enclave memory (no replay).

#ifndef ELEOS_SRC_LIBOS_FS_H_
#define ELEOS_SRC_LIBOS_FS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/untrusted.h"
#include "src/crypto/gcm.h"
#include "src/libos/memfs.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/enclave.h"
#include "src/sim/fault_injector.h"

namespace eleos::libos {

// How file syscalls leave the enclave.
enum class ExitMode {
  kOcall,  // SDK-style: EEXIT + EENTER per call
  kRpc,    // Eleos: exit-less delegation to a worker
};

// One element of a vectored positional I/O request (preadv/pwritev-style,
// with an explicit offset per slice).
struct IoSlice {
  void* buf = nullptr;
  size_t len = 0;
  uint64_t offset = 0;
};
struct ConstIoSlice {
  const void* buf = nullptr;
  size_t len = 0;
  uint64_t offset = 0;
};

// Trusted file API: every method performs one host "syscall" through the
// configured exit mode, with the I/O buffer footprint charged accordingly.
//
// Iago hardening (DESIGN.md §12): the host's return values are untrusted
// inputs. Every byte-count result is validated against the request before it
// can steer trusted code — the allow-set is exactly {kMemFsError} ∪
// [0, requested]; anything else (count > requested, giant positives, errno
// values outside the allow-set) is rejected fail-closed: the call returns
// kMemFsError, last_status() becomes kHostileInput, and the reject is
// counted under boundary.rejected_inputs with a kBoundaryReject trace event.
// Vectored requests additionally reject iovec total-byte overflow before any
// cost is charged or any host call made. The sim::Fault::kIagoReturn
// injection point mangles genuine host results on the untrusted side so the
// validation layer is exercised end to end.
class EnclaveFs {
 public:
  EnclaveFs(sim::Enclave& enclave, MemFs& host_fs, ExitMode mode,
            rpc::RpcManager* rpc = nullptr);

  int Open(sim::CpuContext* cpu, const std::string& path, int flags);
  int Close(sim::CpuContext* cpu, int fd);
  int64_t Read(sim::CpuContext* cpu, int fd, void* buf, size_t count);
  int64_t Write(sim::CpuContext* cpu, int fd, const void* buf, size_t count);
  int64_t Pread(sim::CpuContext* cpu, int fd, void* buf, size_t count,
                uint64_t offset);
  int64_t Pwrite(sim::CpuContext* cpu, int fd, const void* buf, size_t count,
                 uint64_t offset);
  int64_t Seek(sim::CpuContext* cpu, int fd, int64_t offset, int whence);
  int Unlink(sim::CpuContext* cpu, const std::string& path);

  // Vectored positional I/O: still one host syscall per slice, but in RPC
  // mode all slices are published under a single exit-less doorbell
  // (RpcManager::CallBatch) so the rendezvous cost is paid once per
  // vector instead of once per slice. Returns the total bytes transferred,
  // or the first slice's error (kMemFsError) if any slice fails.
  int64_t Preadv(sim::CpuContext* cpu, int fd, const IoSlice* slices,
                 size_t n);
  int64_t Pwritev(sim::CpuContext* cpu, int fd, const ConstIoSlice* slices,
                  size_t n);

  uint64_t syscalls() const { return syscalls_; }
  // The batched-RPC slice functors live in fs.cc; they run host calls on the
  // untrusted side and need the IagoMangle injection hook.
  friend struct PreadOp;
  friend struct PwriteOp;
  // Boundary-validation outcome of the most recent I/O call on this thread
  // of control: Ok() after a call whose host results all validated (even if
  // the host reported a genuine kMemFsError), kHostileInput after a reject.
  // EnclaveFs is not a concurrency point in this codebase (one logical
  // caller per instance); last_status_ is plain state on purpose.
  const Status& last_status() const { return last_status_; }
  // Host results rejected by this instance (subset of boundary.rejected_inputs).
  uint64_t iago_rejects() const { return iago_rejects_.value(); }

 private:
  template <typename Fn>
  auto Forward(sim::CpuContext* cpu, size_t io_bytes, Fn&& fn)
      -> decltype(fn()) {
    ++syscalls_;
    if (mode_ == ExitMode::kRpc) {
      return rpc_->Call(cpu, io_bytes, std::forward<Fn>(fn));
    }
    if (cpu != nullptr) {
      return enclave_->Ocall(*cpu, io_bytes, std::forward<Fn>(fn));
    }
    return fn();  // functional-only path
  }

  // Untrusted side of the kIagoReturn injection point: replaces a genuine
  // host result with a rotating out-of-contract value. Runs inside the
  // forwarded lambda (i.e. on the host/worker side of the boundary), so the
  // trusted validation downstream sees exactly what a lying host would send.
  int64_t IagoMangle(int64_t genuine, size_t requested);
  // Trusted side: admits kMemFsError and [0, requested]; everything else is
  // rejected fail-closed via RejectBoundary. Returns the validated result.
  int64_t ValidateCount(sim::CpuContext* cpu, int64_t r, size_t requested);
  // Counts + traces a boundary reject and returns kMemFsError.
  int64_t RejectBoundary(sim::CpuContext* cpu, BoundarySite site);

  sim::Enclave* enclave_;
  MemFs* host_;
  ExitMode mode_;
  rpc::RpcManager* rpc_;
  uint64_t syscalls_ = 0;
  sim::FaultInjector* faults_;
  telemetry::Counter* rejected_inputs_;  // boundary.rejected_inputs (shared)
  telemetry::Counter iago_rejects_;
  std::atomic<uint64_t> iago_cycle_{0};  // rotates the mangled-value shapes
  Status last_status_ = Status::Ok();
};

// A confidentiality+integrity protected file over EnclaveFs. All I/O is
// performed at 4 KiB block granularity; partial writes read-modify-write.
class ProtectedFile {
 public:
  static constexpr size_t kBlockSize = 4096;
  static constexpr size_t kSealedBlockSize =
      kBlockSize + crypto::kGcmTagSize;

  // Creates/opens `path` on the host through `fs`. The file key would come
  // from the enclave's sealing identity on real hardware (EGETKEY).
  ProtectedFile(EnclaveFs& fs, sim::Enclave& enclave, const std::string& path,
                uint64_t key_seed);
  ~ProtectedFile();

  ProtectedFile(const ProtectedFile&) = delete;
  ProtectedFile& operator=(const ProtectedFile&) = delete;

  void WriteAt(sim::CpuContext* cpu, uint64_t offset, const void* data,
               size_t len);
  void ReadAt(sim::CpuContext* cpu, uint64_t offset, void* out, size_t len);

  // Logical file size (bytes written past-the-end so far).
  uint64_t size() const { return logical_size_; }

 private:
  struct BlockMeta {
    uint8_t nonce[crypto::kGcmNonceSize];
    uint8_t tag[crypto::kGcmTagSize];
  };

  void LoadBlock(sim::CpuContext* cpu, uint64_t block, uint8_t* plain);
  void StoreBlock(sim::CpuContext* cpu, uint64_t block, const uint8_t* plain);

  EnclaveFs* fs_;
  sim::Enclave* enclave_;
  int fd_;
  crypto::AesGcm gcm_;
  Xoshiro256 nonce_rng_;
  // Enclave-resident metadata: presence in this map == block has valid data.
  std::unordered_map<uint64_t, BlockMeta> blocks_;
  uint64_t logical_size_ = 0;
};

}  // namespace eleos::libos

#endif  // ELEOS_SRC_LIBOS_FS_H_
