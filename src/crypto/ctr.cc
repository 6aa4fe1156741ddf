// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/crypto/ctr.h"

#include <cstring>

#include "src/crypto/aesni.h"

namespace eleos::crypto {

void AesCtrCrypt(const Aes128& aes, const uint8_t iv[12], uint32_t initial_counter,
                 const uint8_t* in, uint8_t* out, size_t n) {
  switch (aes.kernel_) {
    case internal::Kernel::kVaes:
      internal::VaesCtr(aes.round_keys_.data(), iv, initial_counter, in, out, n);
      return;
    case internal::Kernel::kAesni:
      internal::AesniCtr(aes.round_keys_.data(), iv, initial_counter, in, out, n);
      return;
    case internal::Kernel::kPortable:
      break;
  }
  uint8_t counter_block[kAesBlockSize];
  uint8_t keystream[kAesBlockSize];
  std::memcpy(counter_block, iv, 12);

  uint32_t counter = initial_counter;
  size_t off = 0;
  while (off < n) {
    counter_block[12] = static_cast<uint8_t>(counter >> 24);
    counter_block[13] = static_cast<uint8_t>(counter >> 16);
    counter_block[14] = static_cast<uint8_t>(counter >> 8);
    counter_block[15] = static_cast<uint8_t>(counter);
    aes.EncryptBlock(counter_block, keystream);
    const size_t chunk = (n - off < kAesBlockSize) ? n - off : kAesBlockSize;
    for (size_t i = 0; i < chunk; ++i) {
      out[off + i] = static_cast<uint8_t>(in[off + i] ^ keystream[i]);
    }
    off += chunk;
    ++counter;
  }
}

}  // namespace eleos::crypto
