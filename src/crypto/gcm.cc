// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/crypto/gcm.h"

#include <cstring>

#include "src/crypto/aesni.h"
#include "src/crypto/ctr.h"

namespace eleos::crypto {
namespace {

uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<uint8_t>(v);
    v >>= 8;
  }
}

// Reduction constants for the 4-bit Shoup table walk (mbedTLS layout).
constexpr uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0};

// Constant-time 16-byte comparison for tag checks.
bool ConstantTimeEqual16(const uint8_t* a, const uint8_t* b) {
  uint8_t diff = 0;
  for (int i = 0; i < 16; ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace

AesGcm::AesGcm(const uint8_t key[kAes128KeySize]) : AesGcm(Aes128(key)) {}

AesGcm::AesGcm(const Aes128& aes) : aes_(aes) {
  uint8_t h_block[16] = {0};
  aes_.EncryptBlock(h_block, h_block);

  uint64_t vh = LoadBe64(h_block);
  uint64_t vl = LoadBe64(h_block + 8);

  htable_[8] = {vh, vl};
  for (int i = 4; i > 0; i >>= 1) {
    const uint32_t t = static_cast<uint32_t>(vl & 1) * 0xe1000000U;
    vl = (vh << 63) | (vl >> 1);
    vh = (vh >> 1) ^ (static_cast<uint64_t>(t) << 32);
    htable_[i] = {vh, vl};
  }
  for (int i = 2; i <= 8; i *= 2) {
    for (int j = 1; j < i; ++j) {
      htable_[i + j] = {htable_[i].hi ^ htable_[j].hi, htable_[i].lo ^ htable_[j].lo};
    }
  }
  htable_[0] = {0, 0};

  U128 power{LoadBe64(h_block), LoadBe64(h_block + 8)};
  for (size_t i = 0; i < internal::kGhashPowers; ++i) {
    if (i > 0) {
      power = GhashMul(power);
    }
    StoreBe64(h_powers_ + 16 * i, power.hi);
    StoreBe64(h_powers_ + 16 * i + 8, power.lo);
  }
}

AesGcm::U128 AesGcm::GhashMul(const U128& x) const {
  uint8_t buf[16];
  StoreBe64(buf, x.hi);
  StoreBe64(buf + 8, x.lo);

  uint8_t lo4 = buf[15] & 0xf;
  uint64_t zh = htable_[lo4].hi;
  uint64_t zl = htable_[lo4].lo;

  for (int i = 15; i >= 0; --i) {
    lo4 = buf[i] & 0xf;
    const uint8_t hi4 = (buf[i] >> 4) & 0xf;

    if (i != 15) {
      const uint8_t rem = static_cast<uint8_t>(zl & 0xf);
      zl = (zh << 60) | (zl >> 4);
      zh = zh >> 4;
      zh ^= kLast4[rem] << 48;
      zh ^= htable_[lo4].hi;
      zl ^= htable_[lo4].lo;
    }
    const uint8_t rem = static_cast<uint8_t>(zl & 0xf);
    zl = (zh << 60) | (zl >> 4);
    zh = zh >> 4;
    zh ^= kLast4[rem] << 48;
    zh ^= htable_[hi4].hi;
    zl ^= htable_[hi4].lo;
  }
  return {zh, zl};
}

void AesGcm::Ghash(const uint8_t* aad, size_t aad_len, const uint8_t* ct,
                   size_t ct_len, uint8_t out[16]) const {
  switch (aes_.kernel_) {
    case internal::Kernel::kVaes:
      internal::VpclmulGhash(h_powers_, aad, aad_len, ct, ct_len, out);
      return;
    case internal::Kernel::kAesni:
      internal::ClmulGhash(h_powers_, aad, aad_len, ct, ct_len, out);
      return;
    case internal::Kernel::kPortable:
      break;
  }
  U128 y{0, 0};

  auto absorb = [&](const uint8_t* data, size_t len) {
    size_t off = 0;
    while (off < len) {
      uint8_t block[16] = {0};
      const size_t chunk = (len - off < 16) ? len - off : 16;
      std::memcpy(block, data + off, chunk);
      y.hi ^= LoadBe64(block);
      y.lo ^= LoadBe64(block + 8);
      y = GhashMul(y);
      off += chunk;
    }
  };

  if (aad != nullptr && aad_len > 0) {
    absorb(aad, aad_len);
  }
  if (ct != nullptr && ct_len > 0) {
    absorb(ct, ct_len);
  }

  // Length block: bit lengths of AAD and ciphertext.
  y.hi ^= static_cast<uint64_t>(aad_len) * 8;
  y.lo ^= static_cast<uint64_t>(ct_len) * 8;
  y = GhashMul(y);

  StoreBe64(out, y.hi);
  StoreBe64(out + 8, y.lo);
}

void AesGcm::Seal(const uint8_t nonce[kGcmNonceSize], const uint8_t* aad,
                  size_t aad_len, const uint8_t* plaintext, size_t n,
                  uint8_t* ciphertext, uint8_t tag[kGcmTagSize]) const {
  AesCtrCrypt(aes_, nonce, 2, plaintext, ciphertext, n);
  uint8_t s[16];
  Ghash(aad, aad_len, ciphertext, n, s);
  // tag = S xor E(K, J0), J0 = nonce || 1: one CTR block at counter 1.
  AesCtrCrypt(aes_, nonce, 1, s, tag, kGcmTagSize);
}

bool AesGcm::Open(const uint8_t nonce[kGcmNonceSize], const uint8_t* aad,
                  size_t aad_len, const uint8_t* ciphertext, size_t n,
                  const uint8_t tag[kGcmTagSize], uint8_t* plaintext) const {
  uint8_t expected[16];
  Ghash(aad, aad_len, ciphertext, n, expected);
  AesCtrCrypt(aes_, nonce, 1, expected, expected, kGcmTagSize);
  if (!ConstantTimeEqual16(expected, tag)) {
    return false;
  }
  AesCtrCrypt(aes_, nonce, 2, ciphertext, plaintext, n);
  return true;
}

}  // namespace eleos::crypto
