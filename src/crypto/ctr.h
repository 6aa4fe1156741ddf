// Copyright (c) Eleos reproduction authors. MIT license.
//
// AES-128-CTR stream cipher. Used for client request/response payloads, as in
// the paper's end-to-end evaluation ("encrypted by the clients and decrypted
// by the server using AES-NI instructions ... in CTR mode with a randomized
// 128-bit key").

#ifndef ELEOS_SRC_CRYPTO_CTR_H_
#define ELEOS_SRC_CRYPTO_CTR_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/aes.h"

namespace eleos::crypto {

// XOR-crypts `n` bytes of `in` into `out` (encrypt == decrypt). The 16-byte
// counter block is built from a 12-byte IV and a 32-bit big-endian block
// counter starting at `initial_counter` (wrapping mod 2^32). in/out may alias.
// This is the one CTR loop: AesGcm encrypts through it too.
void AesCtrCrypt(const Aes128& aes, const uint8_t iv[12], uint32_t initial_counter,
                 const uint8_t* in, uint8_t* out, size_t n);

}  // namespace eleos::crypto

#endif  // ELEOS_SRC_CRYPTO_CTR_H_
