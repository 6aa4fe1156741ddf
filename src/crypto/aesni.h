// Copyright (c) Eleos reproduction authors. MIT license.
//
// Internal to src/crypto: the hardware kernels behind Aes128, AesCtrCrypt and
// AesGcm, and the CPUID check that picks one.
//
// Two kernels run on x86-64: AES-NI + PCLMULQDQ on 128-bit registers, and
// VAES + VPCLMULQDQ on 256-bit registers, which encrypts two CTR blocks per
// instruction and multiplies two GHASH blocks per instruction. Both are
// compiled with function-level target attributes, so the library needs no
// -maes/-march and still runs on CPUs without them: there every object takes
// the portable T-table AES and Shoup GHASH instead. The choice is made once
// per process from CPUID; no option or build flag overrides it. Single blocks
// (Aes128::EncryptBlock) take the AES-NI rounds on both hardware kernels.

#ifndef ELEOS_SRC_CRYPTO_AESNI_H_
#define ELEOS_SRC_CRYPTO_AESNI_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/crypto/gcm.h"

namespace eleos::crypto::internal {

// The CPUID features `kernel` needs that this CPU lacks, comma-separated;
// empty when it has them all (always, for kPortable).
//   kAesni: aes, pclmul, ssse3, sse4.1
//   kVaes:  those and avx2, vaes, vpclmulqdq
std::string MissingCpuFeatures(Kernel kernel);

// The fastest kernel this CPU has, read once per process. Aes128 and AesGcm
// built through their public constructors run it.
Kernel CpuKernel();

// Test seam: Aes128 and AesGcm on a chosen kernel, whatever CpuKernel()
// picks. The tests hold each hardware kernel to the portable one; the caller
// checks MissingCpuFeatures(kernel) first. Production code only constructs
// through the public constructors.
struct OnKernel {
  static Aes128 Aes(Kernel kernel, const uint8_t key[kAes128KeySize]) {
    return Aes128(key, kernel);
  }
  static AesGcm Gcm(Kernel kernel, const uint8_t key[kAes128KeySize]) {
    return AesGcm(Aes(kernel, key));
  }
};

// The kernels. `round_keys` is Aes128's schedule, 44 words each packing four
// key bytes big-endian; `h_powers` holds H, H^2, ..., H^16 as GCM blocks.
// Each function needs the CPUID features of its kernel.
void AesniEncryptBlock(const uint32_t* round_keys, const uint8_t in[kAesBlockSize],
                       uint8_t out[kAesBlockSize]);
// AES-CTR with the same contract as AesCtrCrypt: eight blocks in flight on
// AES-NI, sixteen (two per instruction) on VAES.
void AesniCtr(const uint32_t* round_keys, const uint8_t iv[12], uint32_t counter,
              const uint8_t* in, uint8_t* out, size_t n);
void VaesCtr(const uint32_t* round_keys, const uint8_t iv[12], uint32_t counter,
             const uint8_t* in, uint8_t* out, size_t n);
// GHASH over zero-padded `aad`, zero-padded `ct` and the length block: four
// blocks share one reduction over H..H^4 on PCLMULQDQ; sixteen (two per
// instruction) share one over H..H^16 on VPCLMULQDQ.
void ClmulGhash(const uint8_t h_powers[16 * kGhashPowers], const uint8_t* aad,
                size_t aad_len, const uint8_t* ct, size_t ct_len, uint8_t out[16]);
void VpclmulGhash(const uint8_t h_powers[16 * kGhashPowers], const uint8_t* aad,
                  size_t aad_len, const uint8_t* ct, size_t ct_len,
                  uint8_t out[16]);

}  // namespace eleos::crypto::internal

#endif  // ELEOS_SRC_CRYPTO_AESNI_H_
