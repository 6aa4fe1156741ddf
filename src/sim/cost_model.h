// Copyright (c) Eleos reproduction authors. MIT license.
//
// All calibrated virtual-cycle constants of the SGX simulation, in one place.
//
// Values come from the paper's own measurements on Skylake i7-6700 (§2.2,
// §2.3, §6.1.2, Table 1) and standard Skylake latencies. Benchmarks may tweak
// individual fields (every component takes the model by reference from the
// Machine), but the defaults regenerate the paper's numbers.

#ifndef ELEOS_SRC_SIM_COST_MODEL_H_
#define ELEOS_SRC_SIM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace eleos::sim {

struct CostModel {
  // --- Enclave transitions (paper §2.2) ---
  uint64_t eenter_cycles = 3800;       // EENTER / ERESUME
  uint64_t eexit_cycles = 3300;        // EEXIT / AEX
  uint64_t ocall_sdk_cycles = 800;     // SDK marshalling on top of the raw exits
  uint64_t syscall_cycles = 250;       // plain kernel syscall (FlexSC)
  uint64_t fault_kernel_cycles = 1000; // #PF trap + kernel entry to the SGX driver

  // --- Memory hierarchy ---
  uint64_t l1_hit_cycles = 4;            // per cache line touched
  uint64_t llc_hit_cycles = 40;          // L1 miss, LLC hit
  uint64_t llc_miss_cycles = 200;        // LLC miss to untrusted DRAM
  // EPC misses go through the Memory Encryption Engine: decrypt + integrity
  // tree walk. Factors from Table 1. Writes that miss the MEE tree-node cache
  // (random pattern) pay more than sequential ones.
  double epc_miss_read_factor = 5.6;
  double epc_miss_write_factor_tree_hit = 6.8;
  double epc_miss_write_factor_tree_miss = 8.9;

  // Streaming (sequential bulk-copy) accesses: hardware prefetch hides most
  // of the miss latency, so page copies charge a flat per-line cost instead
  // of the random-miss cost. Used by the paging paths (EWB/ELDU and SUVM
  // page moves).
  uint64_t stream_line_cycles = 15;      // untrusted line, streamed
  uint64_t stream_epc_line_cycles = 30;  // EPC line, streamed (MEE pipelined)

  // --- TLB ---
  uint64_t tlb_walk_cycles = 100;      // page walk, untrusted page
  uint64_t tlb_walk_epc_cycles = 150;  // page walk touching EPC-resident tables

  // --- SGX driver paging (paper §2.3) ---
  uint64_t driver_evict_cycles = 12000;  // EWB path for one page, excl. exits
  uint64_t driver_load_cycles = 13000;   // ELDU path (evict+load measured ~25k)
  uint64_t driver_zero_fill_cycles = 3000;  // first touch of a never-sealed page
  uint64_t ipi_cycles = 1500;               // sending one shootdown IPI
  // A core receiving a shootdown IPI while in-enclave is forced through AEX
  // and later resumes; that cost lands on the *victim* thread.
  uint64_t shootdown_aex_cycles() const { return eexit_cycles + eenter_cycles; }

  // --- In-enclave crypto (AES-NI rates; paper's SUVM pages in at ~8.5k
  //     cycles for 4 KiB: ~1.3 cyc/B of AES-GCM + copies + table lookups) ---
  double aes_gcm_cycles_per_byte = 0.9;  // Skylake AES-NI + PCLMUL GCM
  uint64_t aes_gcm_setup_cycles = 1000;  // per sealed record (key/IV setup, tag,
                                         // nonce generation, metadata update)
  double aes_ctr_cycles_per_byte = 0.65;

  // --- SUVM software paging ---
  uint64_t suvm_deref_check_cycles = 2;   // spointer bounds/translation check
  uint64_t suvm_fault_logic_cycles = 300; // page-table manipulation per fault
  // Inverse-page-table lookup/refcount update: "this small page table has an
  // entry for every EPC++ page" — it stays L1/L2-resident, so a pin costs a
  // handful of cycles rather than a modeled LLC round-trip.
  uint64_t suvm_pt_lookup_cycles = 6;

  // --- RPC (Eleos exit-less syscalls) ---
  uint64_t rpc_enqueue_cycles = 150;   // write job into the untrusted queue
  uint64_t rpc_dequeue_cycles = 150;   // read result back
  uint64_t rpc_poll_latency_cycles = 400;  // average wakeup latency of a spinning worker
  // Virtual-cycle cost of one wasted polling spin (a PAUSE plus the loop
  // around it). Charged only on the *timeout* paths — a successful wait's
  // duration depends on wall-clock scheduling and must not perturb the
  // deterministic accounting — so a burned spin budget shows up in the
  // latency numbers exactly when the host really withheld progress.
  uint64_t rpc_spin_cycles = 4;

  // --- Application compute (virtual-cycle charges for real work the apps
  //     perform; calibrated so the servers' compute/IO balance matches §6) ---
  uint64_t hash_op_cycles = 60;        // hash + bookkeeping per KVS operation
  double lbp_cycles_per_pixel = 1.5;   // LBP code + histogram update (SIMD)
  double histcmp_cycles_per_byte = 0.2;   // chi-square comparison

  // --- Platform ---
  double cpu_ghz = 3.4;                  // i7-6700
  size_t llc_bytes = 8ull << 20;         // 8 MiB
  size_t llc_ways = 16;
  size_t llc_line = 64;
  size_t mee_tree_cache_pages = 64;      // modeled MEE integrity-tree node cache

  // PRM: 128 MiB total, ~90 MiB usable for application EPC pages (§2.3).
  size_t prm_total_frames = (128ull << 20) / 4096;
  size_t prm_usable_frames = (90ull << 20) / 4096;

  // --- Network (§6 setup: dedicated 10 Gb/s link) ---
  double network_gbps = 10.0;
  size_t syscall_kernel_footprint = 2048;  // kernel-buffer bytes an I/O syscall touches

  // Link-bandwidth ceiling for request/response pairs of the given sizes
  // (what bounds the native face-verification server in Figure 10).
  double MaxRequestsPerSecond(size_t request_bytes, size_t response_bytes) const {
    const double link_bytes_per_s = network_gbps * 1e9 / 8.0;
    return link_bytes_per_s / static_cast<double>(request_bytes + response_bytes);
  }

  // Convenience conversions.
  double CyclesToSeconds(uint64_t cycles) const {
    return static_cast<double>(cycles) / (cpu_ghz * 1e9);
  }
  double OpsPerSecond(uint64_t ops, uint64_t cycles) const {
    if (cycles == 0) {
      return 0.0;
    }
    return static_cast<double>(ops) / CyclesToSeconds(cycles);
  }
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_COST_MODEL_H_
