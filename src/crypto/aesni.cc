// Copyright (c) Eleos reproduction authors. MIT license.
//
// AES-NI + PCLMULQDQ and VAES + VPCLMULQDQ kernels. Every function that
// issues these instructions carries ELEOS_AESNI or ELEOS_VAES, so only they
// are compiled for the extensions and the rest of the binary runs anywhere.
// Every function that takes or returns a 256-bit value carries ELEOS_VAES and
// is internal to this file, so no such value crosses into code compiled
// without AVX (the ABI change -Wpsabi warns about).
//
// GHASH works on bit-reflected blocks: a GCM block byte-reversed with PSHUFB
// holds the coefficient of x^0 in bit 127. The 256-bit carry-less product of
// two such values is then the reflected product shifted right by one bit; it
// is shifted back and reduced modulo x^128 + x^7 + x^2 + x + 1 as in Gueron
// and Kounavis, "Intel Carry-Less Multiplication Instruction and its Usage for
// Computing the GCM Mode" (Algorithm 5). Both steps are linear, so the
// products of four blocks (sixteen, on 256-bit registers) are summed first
// and reduced once.

#include "src/crypto/aesni.h"

#include <cstring>

#if defined(__x86_64__)

#include <immintrin.h>

#define ELEOS_AESNI __attribute__((target("aes,pclmul,ssse3,sse4.1")))
#define ELEOS_VAES \
  __attribute__((target("aes,pclmul,ssse3,sse4.1,avx2,vaes,vpclmulqdq")))

namespace eleos::crypto::internal {
namespace {

ELEOS_AESNI inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

ELEOS_AESNI inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

struct RoundKeys {
  __m128i k[11];
};

// Aes128 packs each key word big-endian; AESENC wants the key bytes in
// order, so every word is byte-swapped on load.
ELEOS_AESNI inline RoundKeys LoadRoundKeys(const uint32_t* round_keys) {
  const __m128i swap_words =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  RoundKeys rk;
  for (int r = 0; r < 11; ++r) {
    rk.k[r] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 4 * r)),
        swap_words);
  }
  return rk;
}

ELEOS_AESNI inline __m128i Encrypt(const RoundKeys& rk, __m128i b) {
  b = _mm_xor_si128(b, rk.k[0]);
  for (int r = 1; r < 10; ++r) {
    b = _mm_aesenc_si128(b, rk.k[r]);
  }
  return _mm_aesenclast_si128(b, rk.k[10]);
}

// `base` with its last four bytes replaced by big-endian `counter`.
ELEOS_AESNI inline __m128i CounterBlock(__m128i base, uint32_t counter) {
  return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(counter)), 3);
}

ELEOS_AESNI inline __m128i Reflect(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

ELEOS_AESNI inline __m128i LoadReflected(const uint8_t* p) { return Reflect(Load(p)); }

// A 256-bit carry-less product kept as the low-qword product, the high-qword
// product and the sum of the two cross products.
struct Wide {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

ELEOS_AESNI inline void MulAdd(Wide* acc, __m128i a, __m128i b) {
  acc->lo = _mm_xor_si128(acc->lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc->hi = _mm_xor_si128(acc->hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc->mid = _mm_xor_si128(acc->mid, _mm_clmulepi64_si128(a, b, 0x01));
  acc->mid = _mm_xor_si128(acc->mid, _mm_clmulepi64_si128(a, b, 0x10));
}

// The 128-bit value `v` shifted right by `s` (0 < s < 64) bits.
ELEOS_AESNI inline __m128i ShiftRight128(__m128i v, int s) {
  return _mm_or_si128(_mm_srli_epi64(v, s),
                      _mm_srli_si128(_mm_slli_epi64(v, 64 - s), 8));
}

ELEOS_AESNI inline __m128i Reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  // [hi:lo] <<= 1.
  const __m128i lo_top = _mm_srli_epi64(lo, 63);
  const __m128i hi_top = _mm_srli_epi64(hi, 63);
  lo = _mm_or_si128(_mm_slli_epi64(lo, 1), _mm_slli_si128(lo_top, 8));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi64(hi, 1), _mm_slli_si128(hi_top, 8)),
                    _mm_srli_si128(lo_top, 8));

  // Fold the low half, which holds x^128..x^255, into the high half.
  const __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi64(lo, 63), _mm_slli_epi64(lo, 62)),
      _mm_slli_epi64(lo, 57));
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 8));
  const __m128i folded = _mm_xor_si128(
      _mm_xor_si128(lo, ShiftRight128(lo, 1)),
      _mm_xor_si128(ShiftRight128(lo, 2), ShiftRight128(lo, 7)));
  return _mm_xor_si128(hi, folded);
}

ELEOS_AESNI inline __m128i Mul(__m128i a, __m128i b) {
  Wide w;
  MulAdd(&w, a, b);
  return Reduce(w);
}

// Absorbs `n` bytes, the last block zero-padded, into the GHASH state `y`.
// h[i] is H^(i+1), reflected.
ELEOS_AESNI __m128i Absorb(const __m128i h[4], __m128i y, const uint8_t* p, size_t n) {
  for (; n >= 64; p += 64, n -= 64) {
    Wide w;
    MulAdd(&w, _mm_xor_si128(y, LoadReflected(p)), h[3]);
    MulAdd(&w, LoadReflected(p + 16), h[2]);
    MulAdd(&w, LoadReflected(p + 32), h[1]);
    MulAdd(&w, LoadReflected(p + 48), h[0]);
    y = Reduce(w);
  }
  for (; n >= 16; p += 16, n -= 16) {
    y = Mul(_mm_xor_si128(y, LoadReflected(p)), h[0]);
  }
  if (n > 0) {
    uint8_t last[16] = {};
    std::memcpy(last, p, n);
    y = Mul(_mm_xor_si128(y, LoadReflected(last)), h[0]);
  }
  return y;
}

// The CTR blocks left after a kernel's wide loop: whole blocks one at a time,
// then a partial one. `base` is the IV block with a zero counter.
ELEOS_AESNI inline void CtrTail(const RoundKeys& rk, __m128i base, uint32_t counter,
                                const uint8_t* in, uint8_t* out, size_t n) {
  for (; n >= 16; in += 16, out += 16, n -= 16, ++counter) {
    Store(out, _mm_xor_si128(Encrypt(rk, CounterBlock(base, counter)), Load(in)));
  }
  if (n > 0) {
    uint8_t keystream[16];
    Store(keystream, Encrypt(rk, CounterBlock(base, counter)));
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(in[i] ^ keystream[i]);
    }
  }
}

// Absorbs the length block into `y` and writes the hash as a GCM block.
ELEOS_AESNI inline void GhashFinish(__m128i h, __m128i y, size_t aad_len,
                                    size_t ct_len, uint8_t out[16]) {
  // The length block, reflected: the ciphertext's bit length lands in the low
  // qword.
  const __m128i lengths = _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                                         static_cast<long long>(ct_len * 8));
  Store(out, Reflect(Mul(_mm_xor_si128(y, lengths), h)));
}

// --- 256-bit registers: two blocks per lane pair ---

// Wide accumulators for two products at once, one per 128-bit lane.
struct Wide2 {
  __m256i lo;
  __m256i mid;
  __m256i hi;
};

ELEOS_VAES inline void MulAdd2(Wide2* acc, __m256i a, __m256i b) {
  acc->lo = _mm256_xor_si256(acc->lo, _mm256_clmulepi64_epi128(a, b, 0x00));
  acc->hi = _mm256_xor_si256(acc->hi, _mm256_clmulepi64_epi128(a, b, 0x11));
  acc->mid = _mm256_xor_si256(acc->mid, _mm256_clmulepi64_epi128(a, b, 0x01));
  acc->mid = _mm256_xor_si256(acc->mid, _mm256_clmulepi64_epi128(a, b, 0x10));
}

// The sum of the two lanes.
ELEOS_VAES inline __m128i FoldLanes(__m256i v) {
  return _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
}

// Two GCM blocks, each byte-reversed within its lane.
ELEOS_VAES inline __m256i LoadReflected2(const uint8_t* p) {
  const __m256i reverse = _mm256_setr_epi8(
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,  //
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm256_shuffle_epi8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), reverse);
}

// Absorb with sixteen blocks per reduction, then the four-block Absorb for
// the last 0-255 bytes. Block i of a group (y added into block 0) is
// multiplied by H^(16-i), so hk[j] holds H^(16-2j) in its low lane and
// H^(15-2j) in its high one.
ELEOS_VAES __m128i AbsorbWide(const __m256i hk[8], const __m128i h[4], __m128i y,
                              const uint8_t* p, size_t n) {
  for (; n >= 256; p += 256, n -= 256) {
    Wide2 w = {_mm256_setzero_si256(), _mm256_setzero_si256(),
               _mm256_setzero_si256()};
    MulAdd2(&w,
            _mm256_xor_si256(LoadReflected2(p),
                             _mm256_set_m128i(_mm_setzero_si128(), y)),
            hk[0]);
#pragma GCC unroll 8
    for (int j = 1; j < 8; ++j) {
      MulAdd2(&w, LoadReflected2(p + 32 * j), hk[j]);
    }
    Wide sum;
    sum.lo = FoldLanes(w.lo);
    sum.mid = FoldLanes(w.mid);
    sum.hi = FoldLanes(w.hi);
    y = Reduce(sum);
  }
  return Absorb(h, y, p, n);
}

}  // namespace

std::string MissingCpuFeatures(Kernel kernel) {
  __builtin_cpu_init();
  std::string missing;
  const auto need = [&missing](bool has, const char* feature) {
    if (!has) {
      missing += missing.empty() ? "" : ", ";
      missing += feature;
    }
  };
  if (kernel == Kernel::kPortable) {
    return missing;
  }
  need(__builtin_cpu_supports("aes"), "aes");
  need(__builtin_cpu_supports("pclmul"), "pclmul");
  need(__builtin_cpu_supports("ssse3"), "ssse3");
  need(__builtin_cpu_supports("sse4.1"), "sse4.1");
  if (kernel == Kernel::kVaes) {
    need(__builtin_cpu_supports("avx2"), "avx2");
    need(__builtin_cpu_supports("vaes"), "vaes");
    need(__builtin_cpu_supports("vpclmulqdq"), "vpclmulqdq");
  }
  return missing;
}

ELEOS_AESNI void AesniEncryptBlock(const uint32_t* round_keys,
                                   const uint8_t in[kAesBlockSize],
                                   uint8_t out[kAesBlockSize]) {
  Store(out, Encrypt(LoadRoundKeys(round_keys), Load(in)));
}

ELEOS_AESNI void AesniCtr(const uint32_t* round_keys, const uint8_t iv[12],
                          uint32_t counter, const uint8_t* in, uint8_t* out,
                          size_t n) {
  const RoundKeys rk = LoadRoundKeys(round_keys);
  uint8_t iv_block[16] = {};
  std::memcpy(iv_block, iv, 12);
  const __m128i base = Load(iv_block);

  constexpr int kLanes = 8;
  for (; n >= kLanes * 16; in += kLanes * 16, out += kLanes * 16,
                           n -= kLanes * 16, counter += kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(CounterBlock(base, counter + i), rk.k[0]);
    }
    for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
      for (int i = 0; i < kLanes; ++i) {
        b[i] = _mm_aesenc_si128(b[i], rk.k[r]);
      }
    }
#pragma GCC unroll 8
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], rk.k[10]);
      Store(out + 16 * i, _mm_xor_si128(b[i], Load(in + 16 * i)));
    }
  }
  CtrTail(rk, base, counter, in, out, n);
}

ELEOS_VAES void VaesCtr(const uint32_t* round_keys, const uint8_t iv[12],
                        uint32_t counter, const uint8_t* in, uint8_t* out,
                        size_t n) {
  const RoundKeys rk = LoadRoundKeys(round_keys);
  uint8_t iv_block[16] = {};
  std::memcpy(iv_block, iv, 12);
  const __m128i base = Load(iv_block);

  if (n >= 32) {
    __m256i k[11];
    for (int r = 0; r < 11; ++r) {
      k[r] = _mm256_broadcastsi128_si256(rk.k[r]);
    }
    // Counter blocks with the counter little-endian in each lane's last word,
    // so one 32-bit add steps both lanes (wrapping mod 2^32, as the
    // big-endian counter does); a byte shuffle makes it big-endian for AES.
    const __m256i big_endian = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12,  //
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12);
    const __m256i two = _mm256_setr_epi32(0, 0, 0, 2, 0, 0, 0, 2);
    __m256i next = _mm256_add_epi32(
        _mm256_broadcastsi128_si256(
            _mm_insert_epi32(base, static_cast<int>(counter), 3)),
        _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 0, 1));

    constexpr int kPairs = 8;  // sixteen blocks in flight
    for (; n >= kPairs * 32; in += kPairs * 32, out += kPairs * 32,
                             n -= kPairs * 32, counter += 2 * kPairs) {
      __m256i b[kPairs];
#pragma GCC unroll 8
      for (int i = 0; i < kPairs; ++i) {
        b[i] = _mm256_xor_si256(_mm256_shuffle_epi8(next, big_endian), k[0]);
        next = _mm256_add_epi32(next, two);
      }
      for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
        for (int i = 0; i < kPairs; ++i) {
          b[i] = _mm256_aesenc_epi128(b[i], k[r]);
        }
      }
#pragma GCC unroll 8
      for (int i = 0; i < kPairs; ++i) {
        b[i] = _mm256_aesenclast_epi128(b[i], k[10]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + 32 * i),
            _mm256_xor_si256(b[i], _mm256_loadu_si256(
                                       reinterpret_cast<const __m256i*>(in + 32 * i))));
      }
    }
    for (; n >= 32; in += 32, out += 32, n -= 32, counter += 2) {
      __m256i b = _mm256_xor_si256(_mm256_shuffle_epi8(next, big_endian), k[0]);
      next = _mm256_add_epi32(next, two);
      for (int r = 1; r < 10; ++r) {
        b = _mm256_aesenc_epi128(b, k[r]);
      }
      b = _mm256_aesenclast_epi128(b, k[10]);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out),
          _mm256_xor_si256(b, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in))));
    }
  }
  CtrTail(rk, base, counter, in, out, n);
}

ELEOS_AESNI void ClmulGhash(const uint8_t h_powers[16 * kGhashPowers],
                            const uint8_t* aad, size_t aad_len, const uint8_t* ct,
                            size_t ct_len, uint8_t out[16]) {
  __m128i h[4];
  for (int i = 0; i < 4; ++i) {
    h[i] = LoadReflected(h_powers + 16 * i);
  }
  __m128i y = Absorb(h, _mm_setzero_si128(), aad, aad_len);
  y = Absorb(h, y, ct, ct_len);
  GhashFinish(h[0], y, aad_len, ct_len, out);
}

ELEOS_VAES void VpclmulGhash(const uint8_t h_powers[16 * kGhashPowers],
                             const uint8_t* aad, size_t aad_len, const uint8_t* ct,
                             size_t ct_len, uint8_t out[16]) {
  __m128i h[kGhashPowers];
  for (size_t i = 0; i < kGhashPowers; ++i) {
    h[i] = LoadReflected(h_powers + 16 * i);
  }
  __m256i hk[kGhashPowers / 2];
  for (size_t j = 0; j < kGhashPowers / 2; ++j) {
    hk[j] = _mm256_set_m128i(h[kGhashPowers - 2 - 2 * j], h[kGhashPowers - 1 - 2 * j]);
  }
  __m128i y = AbsorbWide(hk, h, _mm_setzero_si128(), aad, aad_len);
  y = AbsorbWide(hk, h, y, ct, ct_len);
  GhashFinish(h[0], y, aad_len, ct_len, out);
}

}  // namespace eleos::crypto::internal

#else  // not x86-64: the portable path serves every object.

namespace eleos::crypto::internal {

std::string MissingCpuFeatures(Kernel kernel) {
  return kernel == Kernel::kPortable ? "" : "x86-64";
}
void AesniEncryptBlock(const uint32_t*, const uint8_t*, uint8_t*) { __builtin_trap(); }
void AesniCtr(const uint32_t*, const uint8_t*, uint32_t, const uint8_t*, uint8_t*,
              size_t) {
  __builtin_trap();
}
void VaesCtr(const uint32_t*, const uint8_t*, uint32_t, const uint8_t*, uint8_t*,
             size_t) {
  __builtin_trap();
}
void ClmulGhash(const uint8_t*, const uint8_t*, size_t, const uint8_t*, size_t,
                uint8_t*) {
  __builtin_trap();
}
void VpclmulGhash(const uint8_t*, const uint8_t*, size_t, const uint8_t*, size_t,
                  uint8_t*) {
  __builtin_trap();
}

}  // namespace eleos::crypto::internal

#endif

namespace eleos::crypto::internal {

Kernel CpuKernel() {
  static const Kernel kernel = [] {
    for (Kernel k : {Kernel::kVaes, Kernel::kAesni}) {
      if (MissingCpuFeatures(k).empty()) {
        return k;
      }
    }
    return Kernel::kPortable;
  }();
  return kernel;
}

}  // namespace eleos::crypto::internal
