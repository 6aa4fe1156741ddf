// Copyright (c) Eleos reproduction authors. MIT license.
//
// AES-128-GCM authenticated encryption (NIST SP 800-38D), 12-byte nonces,
// 16-byte tags.
//
// This is the cipher SGX's EWB instruction uses to protect evicted EPC pages
// (privacy + integrity + freshness via a per-eviction nonce), and the one the
// paper's SUVM uses for its backing store: "The encryption, signing, and
// validation operations use AES-GCM just like the EWB SGX instruction."
// Both the simulated SGX driver and SUVM in this repository seal pages with
// this implementation.
//
// Encryption runs through the one CTR loop (AesCtrCrypt, from counter 2 =
// J0 + 1; counter 1 masks the tag). GHASH runs on the kernel the Aes128
// inside picked from CPUID (aesni.h): VPCLMULQDQ, sixteen blocks per
// reduction over H..H^16; PCLMULQDQ, four blocks per reduction over H..H^4;
// or Shoup's 4-bit tables, which also serve as the tests' reference. The
// powers are computed once, at construction.

#ifndef ELEOS_SRC_CRYPTO_GCM_H_
#define ELEOS_SRC_CRYPTO_GCM_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/aes.h"

namespace eleos::crypto {

inline constexpr size_t kGcmNonceSize = 12;
inline constexpr size_t kGcmTagSize = 16;

namespace internal {
inline constexpr size_t kGhashPowers = 16;  // H..H^16 kept by every AesGcm
}  // namespace internal

// AES-128-GCM context. Construction precomputes the GHASH key tables and
// powers; the object is immutable afterwards and safe to share across threads.
class AesGcm {
 public:
  explicit AesGcm(const uint8_t key[kAes128KeySize]);

  // Encrypts `n` bytes of `plaintext` into `ciphertext` (may alias) and writes
  // the authentication tag. `aad`/`aad_len` is additional authenticated (but
  // not encrypted) data; SUVM binds the backing-store address through it to
  // prevent block-swap attacks.
  void Seal(const uint8_t nonce[kGcmNonceSize], const uint8_t* aad, size_t aad_len,
            const uint8_t* plaintext, size_t n, uint8_t* ciphertext,
            uint8_t tag[kGcmTagSize]) const;

  // Verifies the tag (in constant time, before decrypting anything) and, on
  // success, decrypts into `plaintext` (may alias) and returns true. On tag
  // mismatch returns false and leaves `plaintext` unspecified.
  [[nodiscard]] bool Open(const uint8_t nonce[kGcmNonceSize], const uint8_t* aad,
                          size_t aad_len, const uint8_t* ciphertext, size_t n,
                          const uint8_t tag[kGcmTagSize], uint8_t* plaintext) const;

 private:
  struct U128 {
    uint64_t hi = 0;
    uint64_t lo = 0;
  };

  friend struct internal::OnKernel;

  // Runs on whichever path `aes` picked.
  explicit AesGcm(const Aes128& aes);

  U128 GhashMul(const U128& x) const;
  void Ghash(const uint8_t* aad, size_t aad_len, const uint8_t* ct, size_t ct_len,
             uint8_t out[16]) const;

  Aes128 aes_;
  // Shoup's 4-bit table: htable_[i] = (i as 4-bit poly) * H in GF(2^128).
  U128 htable_[16];
  // H, H^2, ..., H^16 as GCM blocks, for the carry-less-multiply GHASH
  // kernels (the 128-bit one uses the first four).
  uint8_t h_powers_[16 * internal::kGhashPowers];
};

}  // namespace eleos::crypto

#endif  // ELEOS_SRC_CRYPTO_GCM_H_
