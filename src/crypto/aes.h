// Copyright (c) Eleos reproduction authors. MIT license.
//
// AES-128, encrypt direction only (GCM and CTR encrypt counter blocks for
// either direction).
//
// Eleos on real hardware runs AES-NI through the SGX SDK's IPPCP library for
// both SUVM backing-store pages (AES-GCM, like the EWB instruction) and
// client request payloads (AES-CTR). Here each object runs on the fastest
// kernel CPUID reports (aesni.h): VAES + VPCLMULQDQ on 256-bit registers,
// else AES-NI + PCLMULQDQ, else a portable T-table AES (four 32-bit tables
// built at static-init time from the S-box). The choice is made once per
// process; the T-table code is also the reference the tests hold the kernels
// to.
//
// Host speed never reaches the simulation: the *simulated* cycle costs
// charged for in-enclave crypto use AES-NI per-byte rates (see
// sim::CostModel) whichever path runs.

#ifndef ELEOS_SRC_CRYPTO_AES_H_
#define ELEOS_SRC_CRYPTO_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace eleos::crypto {

inline constexpr size_t kAesBlockSize = 16;
inline constexpr size_t kAes128KeySize = 16;

namespace internal {
// The code an Aes128, and the AesCtrCrypt and AesGcm over it, run on.
enum class Kernel : uint8_t {
  kPortable,  // T-table AES and Shoup GHASH: any CPU, and the reference
  kAesni,     // AES-NI + PCLMULQDQ on 128-bit registers
  kVaes,      // VAES + VPCLMULQDQ on 256-bit registers
};
struct OnKernel;
}  // namespace internal

// An expanded AES-128 key. Cheap to copy; safe to share across threads for
// encryption (the schedule is immutable after construction).
class Aes128 {
 public:
  explicit Aes128(const uint8_t key[kAes128KeySize]);

  // out = AES-128-Encrypt(key, in). in/out may alias.
  void EncryptBlock(const uint8_t in[kAesBlockSize],
                    uint8_t out[kAesBlockSize]) const;

 private:
  friend class AesGcm;
  friend struct internal::OnKernel;
  friend void AesCtrCrypt(const Aes128& aes, const uint8_t iv[12],
                          uint32_t initial_counter, const uint8_t* in,
                          uint8_t* out, size_t n);

  Aes128(const uint8_t key[kAes128KeySize], internal::Kernel kernel);

  std::array<uint32_t, 44> round_keys_;  // 11 round keys x 4 words
  internal::Kernel kernel_;
};

}  // namespace eleos::crypto

#endif  // ELEOS_SRC_CRYPTO_AES_H_
