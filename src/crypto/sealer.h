// Copyright (c) Eleos reproduction authors. MIT license.
//
// The one sealing seam for everything that leaves enclave memory: the SGX
// driver's EWB/ELDU pages and sealed blobs, and SUVM's whole-page, sub-page,
// journaled and recovery seals.
//
// kReal is AES-GCM (paper §3.2.5: "just like the EWB SGX instruction").
// kFast is a plain memcpy for large sweeps where crypto correctness is not
// under test: the callers charge identical virtual cycles either way, but
// nothing is encrypted or authenticated. The mode is fixed at construction
// (from MachineConfig::seal_mode); no caller branches on it.

#ifndef ELEOS_SRC_CRYPTO_SEALER_H_
#define ELEOS_SRC_CRYPTO_SEALER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/crypto/gcm.h"

namespace eleos::crypto {

enum class SealMode { kReal, kFast };

class Sealer {
 public:
  Sealer(const uint8_t key[kAes128KeySize], SealMode mode)
      : gcm_(key), mode_(mode) {}

  SealMode mode() const { return mode_; }
  // True when Open rejects tampered bytes. Host tamper windows open only
  // then: a memcpy seal has no MAC to trip.
  bool authenticates() const { return mode_ == SealMode::kReal; }

  // Seals `n` bytes of `plaintext` into `ciphertext`. AES-GCM first draws a
  // fresh nonce through `fresh_nonce(nonce)` and writes the tag; memcpy
  // leaves nonce and tag untouched and draws nothing.
  template <typename NonceFn>
  void Seal(NonceFn&& fresh_nonce, uint8_t nonce[kGcmNonceSize],
            const void* aad, size_t aad_len, const uint8_t* plaintext, size_t n,
            uint8_t* ciphertext, uint8_t tag[kGcmTagSize]) const {
    if (!authenticates()) {
      std::memcpy(ciphertext, plaintext, n);
      return;
    }
    fresh_nonce(nonce);
    gcm_.Seal(nonce, static_cast<const uint8_t*>(aad), aad_len, plaintext, n,
              ciphertext, tag);
  }

  // Authenticates and decrypts; false on a MAC failure. memcpy always
  // succeeds.
  [[nodiscard]] bool Open(const uint8_t nonce[kGcmNonceSize], const void* aad,
                          size_t aad_len, const uint8_t* ciphertext, size_t n,
                          const uint8_t tag[kGcmTagSize],
                          uint8_t* plaintext) const {
    if (!authenticates()) {
      std::memcpy(plaintext, ciphertext, n);
      return true;
    }
    return gcm_.Open(nonce, static_cast<const uint8_t*>(aad), aad_len,
                     ciphertext, n, tag, plaintext);
  }

 private:
  AesGcm gcm_;
  SealMode mode_;
};

}  // namespace eleos::crypto

#endif  // ELEOS_SRC_CRYPTO_SEALER_H_
