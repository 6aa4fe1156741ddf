// Copyright (c) Eleos reproduction authors. MIT license.
//
// Property fuzz for the TOCTOU-safe untrusted-memory boundary (DESIGN.md
// §12): a REAL concurrent scribbler thread flips bytes in the live JobQueue
// slots/rings (sim::ScribblerThread -> JobQueue::HostileScribble) while the
// enclave drives exit-less RPC, Iago-mangled file I/O, and a KvCache whose
// cleartext metadata gets same-thread scribbles — and every operation must
// end CORRECT or FAIL CLOSED (kHostileInput / fallback), with zero crashes,
// clean sanitizers, boundary.rejected_inputs > 0, and an exactly balanced
// span-cycle audit.
//
// Invariants per operation:
//  * rpc.Call of a pure function ALWAYS returns the right answer (a forged
//    or scribbled completion must be rejected and resolved via fallback);
//  * a validated Pread/Pwrite returns either the genuine byte count (content
//    matching the deterministic pattern) or kMemFsError with
//    last_status() == kHostileInput — never a hostile count;
//  * a KvCache GET hit is always the value the reference model holds (the
//    key echo in secure memory authenticates redirected chunk pointers);
//    misses and fail-closed errors are legal under scribbles, lies are not.
//
// Writes use content = f(absolute offset), so the exit-less path's
// at-least-once replays converge instead of corrupting state.
//
// Scale knobs (scripts/soak.sh runs the long version):
//   ELEOS_BOUNDARY_FUZZ_OPS   operations per seed      (default 4800)
//   ELEOS_BOUNDARY_FUZZ_SEED  base seed                (default 0xb0d7)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/apps/kvcache.h"
#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/libos/fs.h"
#include "src/rpc/rpc_manager.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"
#include "src/telemetry/telemetry.h"

namespace eleos {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

uint64_t FuzzOps() {
  return std::max<uint64_t>(EnvU64("ELEOS_BOUNDARY_FUZZ_OPS", 4800), 600);
}
uint64_t FuzzSeedBase() { return EnvU64("ELEOS_BOUNDARY_FUZZ_SEED", 0xb0d7); }

// Deterministic file content: byte at absolute offset `off` is Pattern(off).
// Every write writes this function of its own offset, which makes writes
// idempotent under the RPC layer's at-least-once replay caveat.
uint8_t Pattern(uint64_t off) { return static_cast<uint8_t>(off * 31 + 7); }

constexpr size_t kFileBytes = 1 << 16;
constexpr uint64_t kWindows = 6;  // alternating hostile / calm

class BoundaryFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundaryFuzz, EveryOpEndsCorrectOrFailClosedUnderLiveScribbler) {
  const uint64_t seed = FuzzSeedBase() + GetParam();
  sim::MachineConfig mc;
  mc.fault_seed = seed;
  sim::Machine machine(mc);
  machine.EnableTracing(/*audit=*/true);
  sim::Enclave enclave(machine, "boundary-fuzz");
  sim::FaultInjector& faults = machine.fault_injector();

  // Real workers, a small ring (more claim/complete traffic per slot), and
  // reduced spin budgets so scribbled slots resolve into fallbacks quickly.
  rpc::RpcManager::Options ro;
  ro.mode = rpc::RpcManager::Mode::kThreaded;
  ro.use_cat = false;
  ro.workers = 3;
  ro.queue_capacity = 16;
  ro.submit_spin_budget = 1ull << 16;
  ro.await_spin_budget = 1ull << 20;
  rpc::RpcManager rpc(enclave, ro);

  libos::MemFs host;
  libos::EnclaveFs fs(enclave, host, libos::ExitMode::kRpc, &rpc);

  apps::KvCache::Options ko;
  ko.pool_bytes = 4 << 20;
  ko.hash_buckets = 128;
  apps::UntrustedRegion region(machine, ko.pool_bytes);
  apps::KvCache cache(machine, region, ko);

  sim::CpuContext& cpu = machine.cpu(0);
  enclave.Enter(cpu);

  const int fd = fs.Open(&cpu, "/fuzz.dat", libos::kRdWr | libos::kCreate);
  ASSERT_GE(fd, 0);
  // Lay the pattern down while the host is still honest.
  std::vector<uint8_t> buf(512);
  for (uint64_t off = 0; off < kFileBytes; off += buf.size()) {
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = Pattern(off + i);
    }
    ASSERT_EQ(fs.Pwrite(&cpu, fd, buf.data(), buf.size(), off),
              static_cast<int64_t>(buf.size()));
  }

  // The concurrent adversary: a real thread storing garbage into the live
  // shared job slots whenever kSharedMemScribbler is armed.
  sim::ScribblerThread scribbler(
      faults, seed, [q = rpc.queue()](uint64_t rnd) { q->HostileScribble(rnd); });

  std::unordered_map<std::string, std::string> reference;
  Xoshiro256 rng(seed ^ 0xb0c7);
  std::vector<uint8_t> out(4096);
  const uint64_t per_window = FuzzOps() / kWindows;

  for (uint64_t w = 0; w < kWindows; ++w) {
    const bool hostile = (w % 2) == 0;
    if (hostile) {
      faults.Arm(sim::Fault::kSharedMemScribbler, 1.0, /*max_triggers=*/96);
      faults.Arm(sim::Fault::kIagoReturn, 0.35);
    }
    for (uint64_t op = 0; op < per_window; ++op) {
      const uint64_t pick = rng.NextBelow(100);
      if (pick < 30) {
        // Pure exit-less call: the one outcome a hostile host must never be
        // able to produce is a WRONG answer.
        const uint64_t a = rng.Next(), b = rng.Next();
        const uint64_t r = rpc.Call(&cpu, 64, [a, b] { return a ^ b; });
        ASSERT_EQ(r, a ^ b) << "window " << w << " op " << op;
      } else if (pick < 55) {
        const uint64_t off = rng.NextBelow(kFileBytes - 256);
        const size_t len = 1 + rng.NextBelow(256);
        const int64_t n = fs.Pread(&cpu, fd, out.data(), len, off);
        if (n == libos::kMemFsError) {
          ASSERT_EQ(fs.last_status().code(), StatusCode::kHostileInput)
              << "window " << w << " op " << op;
        } else {
          ASSERT_EQ(n, static_cast<int64_t>(len));
          for (size_t i = 0; i < len; ++i) {
            ASSERT_EQ(out[i], Pattern(off + i))
                << "window " << w << " op " << op << " byte " << i;
          }
        }
      } else if (pick < 70) {
        const uint64_t off = rng.NextBelow(kFileBytes - 256);
        const size_t len = 1 + rng.NextBelow(256);
        for (size_t i = 0; i < len; ++i) {
          buf[i] = Pattern(off + i);
        }
        const int64_t n = fs.Pwrite(&cpu, fd, buf.data(), len, off);
        if (n == libos::kMemFsError) {
          ASSERT_EQ(fs.last_status().code(), StatusCode::kHostileInput)
              << "window " << w << " op " << op;
        } else {
          ASSERT_EQ(n, static_cast<int64_t>(len));
        }
      } else if (pick < 75) {
        if (hostile) {
          // Same-thread metadata scribble (KvCache's cleartext metadata is
          // plain state, not atomics — see HostileScribbleMetadata's doc).
          cache.HostileScribbleMetadata(rng.Next());
        }
      } else {
        const std::string key = "k" + std::to_string(rng.NextBelow(160));
        const uint64_t kv = rng.NextBelow(100);
        if (kv < 45) {
          std::string value(8 + rng.NextBelow(1500), 0);
          for (auto& c : value) {
            c = static_cast<char>('a' + rng.NextBelow(26));
          }
          if (cache.Set(nullptr, key, value.data(), value.size())) {
            reference[key] = value;
          }
          // A false return under scribbles is fail-closed; the reference
          // keeps the old value, which Set's unwinding must have preserved.
        } else if (kv < 85) {
          const int64_t n = cache.Get(nullptr, key, out.data(), out.size());
          const auto it = reference.find(key);
          if (n >= 0) {
            // A HIT may never lie: redirected/scribbled metadata must have
            // been rejected or authenticated away by the key echo.
            ASSERT_NE(it, reference.end())
                << "hit for a key never stored, window " << w;
            ASSERT_EQ(std::string_view(reinterpret_cast<char*>(out.data()),
                                       static_cast<size_t>(n)),
                      it->second)
                << "window " << w << " op " << op;
          } else if (n != -1) {
            EXPECT_FALSE(cache.last_status().ok())
                << "error code without a cause, window " << w;
          }
          // A miss (-1) is legal: scribbles may hide keys, never forge them.
        } else {
          if (cache.Delete(nullptr, key)) {
            reference.erase(key);
          }
        }
      }
    }
    if (hostile) {
      // Under parallel load the scribbler thread may not have been scheduled
      // yet: hold the first hostile window open with exit-less calls until it
      // has scribbled, bounded by a wall-clock deadline.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (w == 0 && scribbler.scribbles() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        const uint64_t a = rng.Next(), b = rng.Next();
        ASSERT_EQ(rpc.Call(&cpu, 64, [a, b] { return a ^ b; }), a ^ b);
      }
      faults.Disarm(sim::Fault::kSharedMemScribbler);
      faults.Disarm(sim::Fault::kIagoReturn);
    }
  }

  scribbler.Stop();
  faults.DisarmAll();

  // The adversaries really ran.
  EXPECT_GT(faults.injected(sim::Fault::kSharedMemScribbler), 0u);
  EXPECT_GT(scribbler.scribbles(), 0u);
  EXPECT_GT(faults.injected(sim::Fault::kIagoReturn), 0u);

  // Benign epilogue: with the host honest again, exit-less calls answer
  // exactly and validated reads are clean (breaker may still be routing via
  // fallback — the answers must be right either way).
  for (int i = 0; i < 64; ++i) {
    const uint64_t a = rng.Next(), b = rng.Next();
    ASSERT_EQ(rpc.Call(&cpu, 64, [a, b] { return a ^ b; }), a ^ b);
  }
  const int64_t n = fs.Pread(&cpu, fd, out.data(), 256, 1024);
  ASSERT_EQ(n, 256);
  EXPECT_TRUE(fs.last_status().ok());
  for (size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(out[i], Pattern(1024 + i));
  }
  fs.Close(&cpu, fd);

  // Every Iago mangle was caught: rejected_inputs covers at least them.
  const uint64_t rejected =
      machine.metrics().GetCounter("boundary.rejected_inputs")->value();
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(fs.iago_rejects(), 0u);
  // (injected(kIagoReturn) can exceed iago_rejects: an abandoned job that
  // re-runs late on a worker mangles a result nobody ever validates.)
  EXPECT_GE(rejected, fs.iago_rejects());
  EXPECT_EQ(
      machine.metrics().CounterValue("boundary.double_fetch_races"),
      rpc.queue()->integrity_rejects() + rpc.queue()->claim_replays() +
          rpc.queue()->hostile_gen_races());

  enclave.Exit(cpu);

  // The fallback/reject storm left the cycle attribution exactly balanced.
  std::string error;
  EXPECT_TRUE(machine.AuditSpanAccounting(&error)) << error;
  EXPECT_EQ(machine.metrics().spans().open_spans(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundaryFuzz, ::testing::Values(0u, 1u, 2u));

}  // namespace
}  // namespace eleos
