// Copyright (c) Eleos reproduction authors. MIT license.
//
// Known-answer tests (FIPS-197, NIST GCM spec, SP 800-38A, FIPS 180-4) and
// property tests for the crypto used by the simulated EWB path and SUVM's
// backing-store sealing. The AES and GCM vectors run on the kernel CPUID
// picks and on the portable reference; differential tests hold each hardware
// kernel this CPU has (AES-NI + PCLMULQDQ, VAES + VPCLMULQDQ) to that
// reference byte for byte.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/aes.h"
#include "src/crypto/aesni.h"
#include "src/crypto/ctr.h"
#include "src/crypto/gcm.h"
#include "src/crypto/sha256.h"

namespace eleos::crypto {
namespace {

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string ToHex(const uint8_t* data, size_t n) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(kDigits[data[i] >> 4]);
    s.push_back(kDigits[data[i] & 0xf]);
  }
  return s;
}

// The kernel CPUID picks (the fastest hardware kernel present) and the
// portable T-table/Shoup reference.
enum class Path { kCpuid, kPortable };

class Vectors : public ::testing::TestWithParam<Path> {
 protected:
  Aes128 MakeAes(const std::vector<uint8_t>& key) const {
    return GetParam() == Path::kPortable
               ? internal::OnKernel::Aes(internal::Kernel::kPortable, key.data())
               : Aes128(key.data());
  }
  AesGcm MakeGcm(const std::vector<uint8_t>& key) const {
    return GetParam() == Path::kPortable
               ? internal::OnKernel::Gcm(internal::Kernel::kPortable, key.data())
               : AesGcm(key.data());
  }
};

INSTANTIATE_TEST_SUITE_P(Paths, Vectors,
                         ::testing::Values(Path::kCpuid, Path::kPortable),
                         [](const ::testing::TestParamInfo<Path>& path) {
                           return path.param == Path::kPortable ? "portable"
                                                                : "cpuid";
                         });

TEST_P(Vectors, Aes128Fips197) {
  const auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  const auto pt = FromHex("00112233445566778899aabbccddeeff");
  const Aes128 aes = MakeAes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST_P(Vectors, Aes128InPlace) {
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes128 aes = MakeAes(key);
  uint8_t a[16] = {1, 2, 3};
  uint8_t b[16] = {1, 2, 3};
  uint8_t out[16];
  aes.EncryptBlock(a, out);
  aes.EncryptBlock(b, b);  // aliased
  EXPECT_EQ(0, std::memcmp(out, b, 16));
}

TEST_P(Vectors, AesCtrSp800_38a) {
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto iv = FromHex("f0f1f2f3f4f5f6f7f8f9fafb");
  const auto pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  const Aes128 aes = MakeAes(key);
  uint8_t ct[16];
  AesCtrCrypt(aes, iv.data(), 0xfcfdfeff, pt.data(), ct, 16);
  EXPECT_EQ(ToHex(ct, 16), "874d6191b620e3261bef6864990db6ce");
}

TEST_P(Vectors, GcmNistCase1_EmptyPlaintext) {
  const auto key = FromHex("00000000000000000000000000000000");
  const auto iv = FromHex("000000000000000000000000");
  const AesGcm gcm = MakeGcm(key);
  uint8_t tag[16];
  gcm.Seal(iv.data(), nullptr, 0, nullptr, 0, nullptr, tag);
  EXPECT_EQ(ToHex(tag, 16), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST_P(Vectors, GcmNistCase2_OneBlock) {
  const auto key = FromHex("00000000000000000000000000000000");
  const auto iv = FromHex("000000000000000000000000");
  const auto pt = FromHex("00000000000000000000000000000000");
  const AesGcm gcm = MakeGcm(key);
  uint8_t ct[16], tag[16];
  gcm.Seal(iv.data(), nullptr, 0, pt.data(), 16, ct, tag);
  EXPECT_EQ(ToHex(ct, 16), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(ToHex(tag, 16), "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST_P(Vectors, GcmNistCase3_FourBlocks) {
  const auto key = FromHex("feffe9928665731c6d6a8f9467308308");
  const auto iv = FromHex("cafebabefacedbaddecaf888");
  const auto pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const AesGcm gcm = MakeGcm(key);
  std::vector<uint8_t> ct(pt.size());
  uint8_t tag[16];
  gcm.Seal(iv.data(), nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
  EXPECT_EQ(ToHex(ct.data(), ct.size()),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(ToHex(tag, 16), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST_P(Vectors, GcmNistCase4_WithAad) {
  const auto key = FromHex("feffe9928665731c6d6a8f9467308308");
  const auto iv = FromHex("cafebabefacedbaddecaf888");
  const auto pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const AesGcm gcm = MakeGcm(key);
  std::vector<uint8_t> ct(pt.size());
  uint8_t tag[16];
  gcm.Seal(iv.data(), aad.data(), aad.size(), pt.data(), pt.size(), ct.data(), tag);
  EXPECT_EQ(ToHex(ct.data(), ct.size()),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(ToHex(tag, 16), "5bc94fbc3221a5db94fae95ae7121a47");

  std::vector<uint8_t> back(pt.size());
  ASSERT_TRUE(gcm.Open(iv.data(), aad.data(), aad.size(), ct.data(), ct.size(),
                       tag, back.data()));
  EXPECT_EQ(back, pt);
}

TEST(AesCtr, RoundTripOddSizes) {
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const uint8_t iv[12] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2};
  Aes128 aes(key.data());
  Xoshiro256 rng(7);
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    std::vector<uint8_t> pt(n), ct(n), back(n);
    rng.FillBytes(pt.data(), n);
    AesCtrCrypt(aes, iv, 1, pt.data(), ct.data(), n);
    AesCtrCrypt(aes, iv, 1, ct.data(), back.data(), n);
    EXPECT_EQ(pt, back) << "n=" << n;
    if (n >= 16) {
      EXPECT_NE(0, std::memcmp(pt.data(), ct.data(), n));
    }
  }
}

TEST(AesGcm, TamperDetection) {
  const auto key = FromHex("feffe9928665731c6d6a8f9467308308");
  const uint8_t iv[12] = {1};
  std::vector<uint8_t> pt(100, 0x42);
  std::vector<uint8_t> ct(pt.size()), back(pt.size());
  uint8_t tag[16];
  AesGcm gcm(key.data());
  gcm.Seal(iv, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);

  // Flip one ciphertext bit.
  ct[13] ^= 0x01;
  EXPECT_FALSE(gcm.Open(iv, nullptr, 0, ct.data(), ct.size(), tag, back.data()));
  ct[13] ^= 0x01;

  // Flip one tag bit.
  tag[0] ^= 0x80;
  EXPECT_FALSE(gcm.Open(iv, nullptr, 0, ct.data(), ct.size(), tag, back.data()));
  tag[0] ^= 0x80;

  // Wrong AAD.
  const uint8_t bad_aad[4] = {1, 2, 3, 4};
  EXPECT_FALSE(
      gcm.Open(iv, bad_aad, sizeof(bad_aad), ct.data(), ct.size(), tag, back.data()));

  // Untampered opens fine.
  EXPECT_TRUE(gcm.Open(iv, nullptr, 0, ct.data(), ct.size(), tag, back.data()));
  EXPECT_EQ(back, pt);
}

class GcmRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmRoundTrip, SealOpen) {
  const size_t n = GetParam();
  Xoshiro256 rng(n + 1);
  uint8_t key[16];
  rng.FillBytes(key, sizeof(key));
  AesGcm gcm(key);
  std::vector<uint8_t> pt(n), ct(n), back(n);
  rng.FillBytes(pt.data(), n);
  uint8_t iv[12], tag[16];
  rng.FillBytes(iv, sizeof(iv));
  const uint64_t aad = n * 13;
  gcm.Seal(iv, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad), pt.data(), n,
           ct.data(), tag);
  ASSERT_TRUE(gcm.Open(iv, reinterpret_cast<const uint8_t*>(&aad), sizeof(aad),
                       ct.data(), n, tag, back.data()));
  EXPECT_EQ(pt, back);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 100, 1024,
                                           4096, 10000));

// Each hardware kernel against the portable reference, on every CPU that has
// it: on a CPU with the 256-bit kernel, the 128-bit one is still checked.
class HardwareVsPortable : public ::testing::TestWithParam<internal::Kernel> {
 protected:
  void SetUp() override {
    const std::string missing = internal::MissingCpuFeatures(GetParam());
    if (!missing.empty()) {
      GTEST_SKIP() << "CPUID lacks " << missing << ", which this kernel needs";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Kernels, HardwareVsPortable,
                         ::testing::Values(internal::Kernel::kAesni,
                                           internal::Kernel::kVaes),
                         [](const ::testing::TestParamInfo<internal::Kernel>& k) {
                           return k.param == internal::Kernel::kVaes ? "vaes"
                                                                     : "aesni";
                         });

// The plaintext lengths 0-1100 plus 4095, 4096, 4097 and 9000 cover every
// residue mod 16 (partial blocks), mod 64 and 256 (the four- and
// sixteen-block GHASH folds) and mod 128 and 256 (the eight- and
// sixteen-block CTR loops), at least four times over; the AAD lengths cycle
// through 0-80.
TEST_P(HardwareVsPortable, GcmSealAndOpenAgree) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1100; ++n) {
    lengths.push_back(n);
  }
  for (size_t n : {4095u, 4096u, 4097u, 9000u}) {
    lengths.push_back(n);
  }
  Xoshiro256 rng(14);
  size_t cases = 0;
  for (size_t n : lengths) {
    for (bool in_place : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " in_place=" << in_place);
      uint8_t key[16], nonce[12];
      rng.FillBytes(key, sizeof(key));
      rng.FillBytes(nonce, sizeof(nonce));
      std::vector<uint8_t> aad(cases++ % 81), pt(n);
      rng.FillBytes(aad.data(), aad.size());
      rng.FillBytes(pt.data(), n);
      const AesGcm hw = internal::OnKernel::Gcm(GetParam(), key);
      const AesGcm ref = internal::OnKernel::Gcm(internal::Kernel::kPortable, key);

      // Each side seals into a buffer of exactly n bytes, so a kernel that
      // touches a byte past either end trips ASan.
      auto seal = [&](const AesGcm& gcm, uint8_t tag[16]) {
        std::vector<uint8_t> ct = in_place ? pt : std::vector<uint8_t>(n);
        gcm.Seal(nonce, aad.data(), aad.size(), in_place ? ct.data() : pt.data(),
                 n, ct.data(), tag);
        return ct;
      };
      uint8_t hw_tag[16], ref_tag[16];
      std::vector<uint8_t> ct = seal(hw, hw_tag);
      ASSERT_EQ(ct, seal(ref, ref_tag));
      ASSERT_EQ(0, std::memcmp(hw_tag, ref_tag, 16));

      for (const AesGcm* gcm : {&hw, &ref}) {
        std::vector<uint8_t> back = in_place ? ct : std::vector<uint8_t>(n);
        ASSERT_TRUE(gcm->Open(nonce, aad.data(), aad.size(),
                              in_place ? back.data() : ct.data(), n, hw_tag,
                              back.data()));
        ASSERT_EQ(back, pt);

        std::vector<uint8_t> sink(n);
        if (n > 0) {
          std::vector<uint8_t> bad = ct;
          bad[rng.NextBelow(n)] ^= 1u << rng.NextBelow(8);
          EXPECT_FALSE(gcm->Open(nonce, aad.data(), aad.size(), bad.data(), n,
                                 hw_tag, sink.data()));
        }
        uint8_t bad_tag[16];
        std::memcpy(bad_tag, hw_tag, 16);
        bad_tag[rng.NextBelow(16)] ^= 1u << rng.NextBelow(8);
        EXPECT_FALSE(gcm->Open(nonce, aad.data(), aad.size(), ct.data(), n,
                               bad_tag, sink.data()));
        if (!aad.empty()) {
          std::vector<uint8_t> bad_aad = aad;
          bad_aad[rng.NextBelow(aad.size())] ^= 1u << rng.NextBelow(8);
          EXPECT_FALSE(gcm->Open(nonce, bad_aad.data(), bad_aad.size(), ct.data(),
                                 n, hw_tag, sink.data()));
        }
      }
    }
  }
}

// Single blocks, and the CTR loops with the 32-bit counter wrapping inside
// and across their eight- and sixteen-block groups, inside a two-block
// register and between two of them.
TEST_P(HardwareVsPortable, AesBlocksAndCtrAgree) {
  Xoshiro256 rng(15);
  uint8_t key[16];
  rng.FillBytes(key, sizeof(key));
  const Aes128 hw = internal::OnKernel::Aes(GetParam(), key);
  const Aes128 ref = internal::OnKernel::Aes(internal::Kernel::kPortable, key);
  for (int i = 0; i < 64; ++i) {
    uint8_t in[16], a[16], b[16];
    rng.FillBytes(in, sizeof(in));
    hw.EncryptBlock(in, a);
    ref.EncryptBlock(in, b);
    ASSERT_EQ(0, std::memcmp(a, b, 16));
  }
  const uint8_t iv[12] = {0xa5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  for (uint32_t c0 : {0u, 1u, 0xffffffe7u, 0xfffffff0u, 0xfffffff1u, 0xfffffff9u,
                      0xfffffffcu, 0xfffffffeu, 0xffffffffu}) {
    for (size_t n : {0u, 1u, 16u, 31u, 32u, 33u, 127u, 128u, 129u, 255u, 256u,
                     257u, 300u, 511u, 4096u}) {
      std::vector<uint8_t> pt(n), a(n), b(n);
      rng.FillBytes(pt.data(), n);
      AesCtrCrypt(hw, iv, c0, pt.data(), a.data(), n);
      AesCtrCrypt(ref, iv, c0, pt.data(), b.data(), n);
      EXPECT_EQ(a, b) << "c0=" << c0 << " n=" << n;
    }
  }
}

TEST(Sha256, KnownAnswers) {
  auto d1 = Sha256::Digest("abc", 3);
  EXPECT_EQ(ToHex(d1.data(), d1.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  auto d2 = Sha256::Digest("", 0);
  EXPECT_EQ(ToHex(d2.data(), d2.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  auto d3 = Sha256::Digest(msg, std::strlen(msg));
  EXPECT_EQ(ToHex(d3.data(), d3.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  Xoshiro256 rng(3);
  rng.FillBytes(data.data(), data.size());
  auto oneshot = Sha256::Digest(data.data(), data.size());
  Sha256 h;
  size_t off = 0;
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 800u}) {
    if (off + chunk > data.size()) {
      chunk = data.size() - off;
    }
    h.Update(data.data() + off, chunk);
    off += chunk;
  }
  h.Update(data.data() + off, data.size() - off);
  uint8_t digest[32];
  h.Final(digest);
  EXPECT_EQ(0, std::memcmp(digest, oneshot.data(), 32));
}

TEST(KeyDerivation, DistinctLabelsAndSeeds) {
  auto k1 = DeriveAesKey("a", 1);
  auto k2 = DeriveAesKey("a", 2);
  auto k3 = DeriveAesKey("b", 1);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_EQ(k1, DeriveAesKey("a", 1));
}

}  // namespace
}  // namespace eleos::crypto
