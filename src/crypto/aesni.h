// Copyright (c) Eleos reproduction authors. MIT license.
//
// Internal to src/crypto: the AES-NI + PCLMULQDQ kernels behind Aes128,
// AesCtrCrypt and AesGcm, and the CPUID check that picks them.
//
// The kernels are compiled with function-level target attributes, so the
// library needs no -maes/-march and still runs on CPUs without AES-NI: there
// every object takes the portable T-table AES and Shoup GHASH instead. The
// choice is made once per process from CPUID; no option or build flag
// overrides it.

#ifndef ELEOS_SRC_CRYPTO_AESNI_H_
#define ELEOS_SRC_CRYPTO_AESNI_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/gcm.h"

namespace eleos::crypto::internal {

// True when CPUID reports AES-NI, PCLMULQDQ, SSSE3 and SSE4.1. Read once per
// process; Aes128 and AesGcm built through their public constructors then run
// the kernels below.
bool CpuHasAesClmul();

// Test seam: the portable T-table AES and Shoup GHASH, whatever the CPU. The
// tests hold the hardware kernels to this reference; production code only
// constructs through the public constructors.
struct Portable {
  static Aes128 Aes(const uint8_t key[kAes128KeySize]) {
    return Aes128(key, /*hardware=*/false);
  }
  static AesGcm Gcm(const uint8_t key[kAes128KeySize]) { return AesGcm(Aes(key)); }
};

// The kernels. `round_keys` is Aes128's schedule, 44 words each packing four
// key bytes big-endian; callers check CpuHasAesClmul() first.
void AesniEncryptBlock(const uint32_t* round_keys, const uint8_t in[kAesBlockSize],
                       uint8_t out[kAesBlockSize]);
// AES-CTR with eight blocks in flight; same contract as AesCtrCrypt.
void AesniCtr(const uint32_t* round_keys, const uint8_t iv[12], uint32_t counter,
              const uint8_t* in, uint8_t* out, size_t n);
// GHASH over zero-padded `aad`, zero-padded `ct` and the length block.
// `h_powers` holds H, H^2, H^3, H^4 as GCM blocks; four data blocks share one
// reduction.
void ClmulGhash(const uint8_t h_powers[64], const uint8_t* aad, size_t aad_len,
                const uint8_t* ct, size_t ct_len, uint8_t out[16]);

}  // namespace eleos::crypto::internal

#endif  // ELEOS_SRC_CRYPTO_AESNI_H_
