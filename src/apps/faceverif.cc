// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/apps/faceverif.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace eleos::apps {
namespace {

// GCC/Clang vector extensions: SSE2 on x86-64, portable code elsewhere.
typedef uint8_t U8x16 __attribute__((vector_size(16)));
typedef float F32x2 __attribute__((vector_size(8)));
typedef double F64x2 __attribute__((vector_size(16)));

// Uniform-pattern LBP lookup: maps each 8-bit LBP code to one of 58 uniform
// patterns or the shared "non-uniform" bin 58 (Ahonen et al., the paper's
// face-description reference [6]).
struct UniformLut {
  uint8_t bin[256];

  UniformLut() {
    int next = 0;
    for (int code = 0; code < 256; ++code) {
      int transitions = 0;
      for (int b = 0; b < 8; ++b) {
        const int cur = (code >> b) & 1;
        const int nxt = (code >> ((b + 1) % 8)) & 1;
        transitions += cur != nxt;
      }
      bin[code] = transitions <= 2 ? static_cast<uint8_t>(next++)
                                   : static_cast<uint8_t>(kLbpBins - 1);
    }
  }
};

const UniformLut& Lut() {
  static const UniformLut lut;
  return lut;
}

U8x16 Load16(const uint8_t* p) {
  U8x16 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

F32x2 Load2(const float* p) {
  F32x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Bit `bit` of each lane where neighbour >= centre (unsigned).
U8x16 NeighbourBit(const uint8_t* neighbour, U8x16 centre, uint8_t bit) {
  return reinterpret_cast<U8x16>(Load16(neighbour) >= centre) & bit;
}

// Writes the LBP codes of the interior pixels of the image row at `row` to
// codes[1 .. kFaceImageDim-2], 16 per step. The last step is moved back so
// that it ends at column kFaceImageDim-2 (recomputing a few codes): no load
// reaches past the neighbouring rows, so none passes the image's last byte.
void LbpRowCodes(const uint8_t* row, uint8_t* codes) {
  constexpr size_t dim = kFaceImageDim;
  constexpr size_t kLanes = sizeof(U8x16);
  constexpr size_t kLastStep = dim - 1 - kLanes;
  const uint8_t* up = row - dim;
  const uint8_t* down = row + dim;
  for (size_t step = 0; step * kLanes < dim - 2; ++step) {
    const size_t x = std::min(1 + step * kLanes, kLastStep);
    const U8x16 c = Load16(row + x);
    const U8x16 code =
        NeighbourBit(up + x - 1, c, 1) | NeighbourBit(up + x, c, 2) |
        NeighbourBit(up + x + 1, c, 4) | NeighbourBit(row + x + 1, c, 8) |
        NeighbourBit(down + x + 1, c, 16) | NeighbourBit(down + x, c, 32) |
        NeighbourBit(down + x - 1, c, 64) | NeighbourBit(row + x - 1, c, 128);
    std::memcpy(codes + x, &code, kLanes);
  }
}

// Adds the chi-square terms of two bins to `d`, in index order. A bin whose
// float sum is not > 0 (empty in both histograms) adds +0.0, which leaves `d`
// unchanged: `d` starts at +0.0 and every term is >= +0.0.
double AddChiSquareTerms(double d, F32x2 a, F32x2 b) {
  // Sum and difference are float operations, widened afterwards: widening
  // first would round differently.
  const F64x2 s = __builtin_convertvector(a + b, F64x2);
  const F64x2 diff = __builtin_convertvector(a - b, F64x2);
  const auto live = s > 0.0;
  const F64x2 term = live ? diff * diff / (live ? s : 1.0) : 0.0;
  d += term[0];
  d += term[1];
  return d;
}

}  // namespace

FaceImage SynthesizeFace(uint64_t person_id, uint64_t variant) {
  FaceImage img(kFaceImageDim * kFaceImageDim);
  // Smooth per-person texture: a few sinusoids with person-specific phases
  // plus mild deterministic noise. Variants perturb the noise only, so the
  // same person's variants verify while different people do not.
  Xoshiro256 rng(person_id * 2654435761u + 12345);
  const double fx = 2.0 + static_cast<double>(rng.NextBelow(6));
  const double fy = 3.0 + static_cast<double>(rng.NextBelow(6));
  const double px = rng.NextDouble() * 6.28;
  const double py = rng.NextDouble() * 6.28;
  // The texture is separable: the sine depends on the column only and the
  // cosine on the row only.
  double col_sin[kFaceImageDim] = {};
  double row_cos[kFaceImageDim] = {};
  for (size_t i = 0; i < kFaceImageDim; ++i) {
    const double t = static_cast<double>(i) / kFaceImageDim;
    col_sin[i] = std::sin(fx * 6.28 * t + px);
    row_cos[i] = std::cos(fy * 6.28 * t + py);
  }
  Xoshiro256 noise(person_id ^ (variant * 0x9e3779b97f4a7c15ull) ^ 0xface);
  for (size_t y = 0; y < kFaceImageDim; ++y) {
    for (size_t x = 0; x < kFaceImageDim; ++x) {
      const double s = col_sin[x] * row_cos[y];
      const int base = static_cast<int>(128 + 90 * s);
      const int jitter = static_cast<int>(noise.NextBelow(11)) - 5;
      int val = base + jitter;
      val = val < 0 ? 0 : (val > 255 ? 255 : val);
      img[y * kFaceImageDim + x] = static_cast<uint8_t>(val);
    }
  }
  return img;
}

Histogram ComputeLbpHistogram(sim::CpuContext* cpu, const sim::CostModel& costs,
                              const FaceImage& image) {
  constexpr size_t dim = kFaceImageDim;
  if (image.size() != dim * dim) {
    throw std::invalid_argument(
        "ComputeLbpHistogram: image must hold kFaceImageDim^2 bytes");
  }
  Histogram hist(kHistogramFloats, 0.0f);
  const UniformLut& lut = Lut();
  uint8_t codes[dim] = {};
  for (size_t band = 0; band < kFaceGrid; ++band) {
    // One row of cells, counted in integers: a cell holds at most 64 pixels.
    uint8_t counts[kFaceGrid][kLbpBins] = {};
    const size_t y_end = std::min((band + 1) * kFaceCellDim, dim - 1);
    for (size_t y = std::max<size_t>(band * kFaceCellDim, 1); y < y_end; ++y) {
      LbpRowCodes(image.data() + y * dim, codes);
      for (size_t x = 1; x + 1 < dim; ++x) {
        ++counts[x / kFaceCellDim][lut.bin[codes[x]]];
      }
    }
    // Normalize per cell so distances are scale-free. A count and its
    // cell's sum are at most 64, so both are exact in float.
    for (size_t cx = 0; cx < kFaceGrid; ++cx) {
      unsigned sum = 0;
      for (size_t b = 0; b < kLbpBins; ++b) {
        sum += counts[cx][b];
      }
      if (sum > 0) {
        float* cell = &hist[(band * kFaceGrid + cx) * kLbpBins];
        for (size_t b = 0; b < kLbpBins; ++b) {
          cell[b] = static_cast<float>(counts[cx][b]) / static_cast<float>(sum);
        }
      }
    }
  }
  if (cpu != nullptr) {
    cpu->Charge(static_cast<uint64_t>(costs.lbp_cycles_per_pixel *
                                      static_cast<double>(dim * dim)));
  }
  return hist;
}

double ChiSquareDistance(const Histogram& a, const Histogram& b) {
  const size_t n = std::min(a.size(), b.size());
  double d = 0.0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    d = AddChiSquareTerms(d, Load2(a.data() + i), Load2(b.data() + i));
  }
  if (i < n) {  // odd length: pad with an empty bin
    d = AddChiSquareTerms(d, F32x2{a[i], 0.0f}, F32x2{b[i], 0.0f});
  }
  return d;
}

FaceVerifServer::FaceVerifServer(sim::Machine& machine, MemRegion& region,
                                 size_t n_people)
    : machine_(&machine), region_(&region), n_people_(n_people) {
  if (region.size() < n_people * kHistogramBytes) {
    throw std::invalid_argument("FaceVerifServer: region too small");
  }
}

void FaceVerifServer::BuildDatabase() {
  // Store each person's reference histogram; calibrate the accept threshold
  // from a couple of same-person / different-person pairs.
  for (uint64_t id = 0; id < n_people_; ++id) {
    const Histogram h =
        ComputeLbpHistogram(nullptr, machine_->costs(), SynthesizeFace(id));
    region_->Write(nullptr, EntryOff(id), h.data(), kHistogramBytes);
  }
  const Histogram ref0 =
      ComputeLbpHistogram(nullptr, machine_->costs(), SynthesizeFace(0));
  const Histogram same =
      ComputeLbpHistogram(nullptr, machine_->costs(), SynthesizeFace(0, 1));
  const Histogram other =
      ComputeLbpHistogram(nullptr, machine_->costs(), SynthesizeFace(1));
  const double d_same = ChiSquareDistance(ref0, same);
  const double d_other = ChiSquareDistance(ref0, other);
  threshold_ = (d_same + d_other) / 2.0;
}

bool FaceVerifServer::Verify(sim::CpuContext* cpu, uint64_t person_id,
                             const Histogram& query, double* distance_out) {
  if (person_id >= n_people_) {  // not enrolled: nothing to compare against
    if (distance_out != nullptr) {
      *distance_out = std::numeric_limits<double>::infinity();
    }
    return false;
  }
  // Fetch the stored histogram from secure memory — the paging-heavy part.
  Histogram stored(kHistogramFloats);
  region_->Read(cpu, EntryOff(person_id), stored.data(), kHistogramBytes);
  const double d = ChiSquareDistance(stored, query);
  if (cpu != nullptr) {
    cpu->Charge(static_cast<uint64_t>(machine_->costs().histcmp_cycles_per_byte *
                                      static_cast<double>(kHistogramBytes)));
  }
  if (distance_out != nullptr) {
    *distance_out = d;
  }
  return d < threshold_;
}

}  // namespace eleos::apps
