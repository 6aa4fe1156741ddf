// Copyright (c) Eleos reproduction authors. MIT license.
//
// Face verification: LBP properties, verification accuracy on synthetic
// identities, operation across secure-memory backends, and the face kernels
// held bit for bit to the scalar reference they replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/faceverif.h"

namespace eleos::apps {
namespace {

// --- Reference kernels -------------------------------------------------------
//
// The scalar SynthesizeFace, ComputeLbpHistogram and ChiSquareDistance that
// the vector kernels replaced, verbatim. The benchmark checks each measured
// distance against one the same kernel computed at set-up, so only these
// tests can see the kernels drift from the original results.
namespace reference {

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
  Xoshiro256 noise(person_id ^ (variant * 0x9e3779b97f4a7c15ull) ^ 0xface);
  for (size_t y = 0; y < kFaceImageDim; ++y) {
    for (size_t x = 0; x < kFaceImageDim; ++x) {
      const double u = static_cast<double>(x) / kFaceImageDim;
      const double v = static_cast<double>(y) / kFaceImageDim;
      const double s = std::sin(fx * 6.28 * u + px) * std::cos(fy * 6.28 * v + py);
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
  Histogram hist(kHistogramFloats, 0.0f);
  const UniformLut& lut = Lut();
  const size_t dim = kFaceImageDim;
  for (size_t y = 1; y + 1 < dim; ++y) {
    for (size_t x = 1; x + 1 < dim; ++x) {
      const uint8_t c = image[y * dim + x];
      int code = 0;
      code |= (image[(y - 1) * dim + (x - 1)] >= c) << 0;
      code |= (image[(y - 1) * dim + x] >= c) << 1;
      code |= (image[(y - 1) * dim + (x + 1)] >= c) << 2;
      code |= (image[y * dim + (x + 1)] >= c) << 3;
      code |= (image[(y + 1) * dim + (x + 1)] >= c) << 4;
      code |= (image[(y + 1) * dim + x] >= c) << 5;
      code |= (image[(y + 1) * dim + (x - 1)] >= c) << 6;
      code |= (image[y * dim + (x - 1)] >= c) << 7;
      const size_t cell = (y / kFaceCellDim) * kFaceGrid + (x / kFaceCellDim);
      hist[cell * kLbpBins + lut.bin[code]] += 1.0f;
    }
  }
  // Normalize per cell so distances are scale-free.
  for (size_t cell = 0; cell < kFaceGrid * kFaceGrid; ++cell) {
    float sum = 0.0f;
    for (size_t b = 0; b < kLbpBins; ++b) {
      sum += hist[cell * kLbpBins + b];
    }
    if (sum > 0) {
      for (size_t b = 0; b < kLbpBins; ++b) {
        hist[cell * kLbpBins + b] /= sum;
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
  double d = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double s = a[i] + b[i];
    if (s > 0) {
      const double diff = a[i] - b[i];
      d += diff * diff / s;
    }
  }
  return d;
}

}  // namespace reference

// Same length and the same bit pattern in every bin (so +0.0 != -0.0).
::testing::AssertionResult SameBits(const Histogram& got, const Histogram& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "bin " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

constexpr uint64_t kOraclePeople = 64;
constexpr uint64_t kOracleVariants = 3;

// Images the faces never produce: flat, saturated, and maximally textured.
std::vector<std::pair<const char*, FaceImage>> EdgeImages() {
  constexpr size_t dim = kFaceImageDim;
  std::vector<std::pair<const char*, FaceImage>> images;
  images.emplace_back("flat", FaceImage(dim * dim, 128));
  images.emplace_back("all-0", FaceImage(dim * dim, 0));
  images.emplace_back("all-255", FaceImage(dim * dim, 255));
  FaceImage checker(dim * dim), near_checker(dim * dim), columns(dim * dim),
      ramp(dim * dim), noise(dim * dim);
  Xoshiro256 rng(2017);
  for (size_t y = 0; y < dim; ++y) {
    for (size_t x = 0; x < dim; ++x) {
      const size_t i = y * dim + x;
      checker[i] = (x + y) % 2 == 0 ? 0 : 255;
      near_checker[i] = (x + y) % 2 == 0 ? 127 : 128;  // differ by one
      columns[i] = x % 2 == 0 ? 200 : 10;
      ramp[i] = static_cast<uint8_t>(x + 3 * y);
      noise[i] = static_cast<uint8_t>(rng.Next());
    }
  }
  images.emplace_back("checkerboard", checker);
  images.emplace_back("near-checkerboard", near_checker);
  images.emplace_back("columns", columns);
  images.emplace_back("ramp", ramp);
  images.emplace_back("noise", noise);
  return images;
}

TEST(Lbp, HistogramIsPerCellNormalized) {
  sim::Machine m;
  const FaceImage img = SynthesizeFace(7);
  const Histogram h = ComputeLbpHistogram(nullptr, m.costs(), img);
  ASSERT_EQ(h.size(), kHistogramFloats);
  // Interior cells sum to ~1 after normalization.
  for (size_t cell : {33u, 500u, 1000u}) {
    float sum = 0;
    for (size_t b = 0; b < kLbpBins; ++b) {
      sum += h[cell * kLbpBins + b];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-3f) << cell;
  }
}

TEST(Lbp, DeterministicAndPersonSpecific) {
  sim::Machine m;
  const Histogram a1 = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(1));
  const Histogram a2 = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(1));
  const Histogram b = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(2));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_LT(ChiSquareDistance(a1, a2), 1e-9);
  EXPECT_GT(ChiSquareDistance(a1, b), 1.0);
}

TEST(Lbp, VariantsOfSamePersonAreClose) {
  sim::Machine m;
  const Histogram ref = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(3));
  const Histogram same =
      ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(3, 1));
  const Histogram other = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(4));
  EXPECT_LT(ChiSquareDistance(ref, same), ChiSquareDistance(ref, other));
}

TEST(Lbp, ChargesPerPixel) {
  sim::Machine m;
  sim::CpuContext& cpu = m.cpu(0);
  const FaceImage img = SynthesizeFace(1);
  ComputeLbpHistogram(&cpu, m.costs(), img);
  const auto expected = static_cast<uint64_t>(
      m.costs().lbp_cycles_per_pixel * kFaceImageDim * kFaceImageDim);
  EXPECT_EQ(cpu.clock.now(), expected);
}

class FaceVerifBackends : public ::testing::TestWithParam<int> {};

TEST_P(FaceVerifBackends, VerifiesAcrossBackends) {
  const int backend = GetParam();
  sim::MachineConfig mc;
  mc.seal_mode = sim::SgxDriver::SealMode::kFast;
  sim::Machine machine(mc);
  std::unique_ptr<sim::Enclave> enclave;
  std::unique_ptr<suvm::Suvm> suvm;
  std::unique_ptr<MemRegion> region;
  const size_t people = 8;
  const size_t bytes = people * kHistogramBytes;
  if (backend == 0) {
    region = std::make_unique<UntrustedRegion>(machine, bytes);
  } else if (backend == 1) {
    enclave = std::make_unique<sim::Enclave>(machine);
    region = std::make_unique<EnclaveRegion>(*enclave, bytes);
  } else {
    enclave = std::make_unique<sim::Enclave>(machine);
    suvm::SuvmConfig sc;
    sc.epc_pp_pages = 128;  // 512 KiB: forces paging across histograms
    sc.backing_bytes = 8 << 20;
    suvm = std::make_unique<suvm::Suvm>(*enclave, sc);
    region = std::make_unique<SuvmRegion>(*suvm, bytes);
  }

  FaceVerifServer server(machine, *region, people);
  server.BuildDatabase();

  int correct = 0;
  for (uint64_t id = 0; id < people; ++id) {
    const Histogram genuine = ComputeLbpHistogram(
        nullptr, machine.costs(), SynthesizeFace(id, /*variant=*/2));
    const Histogram impostor = ComputeLbpHistogram(
        nullptr, machine.costs(), SynthesizeFace(id + 1000));
    correct += server.Verify(nullptr, id, genuine) ? 1 : 0;
    correct += server.Verify(nullptr, id, impostor) ? 0 : 1;
  }
  // Synthetic identities are easy: expect near-perfect separation.
  EXPECT_GE(correct, static_cast<int>(2 * people - 1));
  region.reset();
}

INSTANTIATE_TEST_SUITE_P(Backends, FaceVerifBackends, ::testing::Values(0, 1, 2));

TEST(FaceVerifServer, ChargesForFetchAndCompare) {
  sim::Machine machine;
  UntrustedRegion region(machine, 2 * kHistogramBytes);
  FaceVerifServer server(machine, region, 2);
  server.BuildDatabase();
  sim::CpuContext& cpu = machine.cpu(0);
  const Histogram q =
      ComputeLbpHistogram(nullptr, machine.costs(), SynthesizeFace(0, 1));
  const uint64_t t0 = cpu.clock.now();
  server.Verify(&cpu, 0, q);
  // Fetching ~236 KiB + comparing it cannot be free.
  EXPECT_GT(cpu.clock.now() - t0, 10000u);
}

TEST(FaceVerifServer, RejectsIdsThatAreNotEnrolled) {
  sim::Machine machine;
  const size_t people = 4;
  UntrustedRegion region(machine, people * kHistogramBytes);
  FaceVerifServer server(machine, region, people);
  server.BuildDatabase();
  sim::CpuContext& cpu = machine.cpu(0);
  const Histogram genuine =
      ComputeLbpHistogram(nullptr, machine.costs(), SynthesizeFace(1, 2));
  ASSERT_TRUE(server.Verify(&cpu, 1, genuine));
  // Person 1's genuine image must not pass for an id that aliases 1 modulo
  // the database size, nor for any other id past its end.
  for (uint64_t id : {uint64_t{people}, uint64_t{people + 1}, uint64_t{1} << 40,
                      std::numeric_limits<uint64_t>::max()}) {
    double distance = 0.0;
    const uint64_t t0 = cpu.clock.now();
    EXPECT_FALSE(server.Verify(&cpu, id, genuine, &distance)) << id;
    EXPECT_EQ(distance, std::numeric_limits<double>::infinity()) << id;
    EXPECT_EQ(cpu.clock.now(), t0) << "region read for id " << id;
  }
}

TEST(Lbp, RejectsImagesOfTheWrongSize) {
  sim::Machine m;
  sim::CpuContext& cpu = m.cpu(0);
  constexpr size_t pixels = kFaceImageDim * kFaceImageDim;
  for (size_t bytes : {size_t{0}, pixels - 1, pixels + 1}) {
    EXPECT_THROW(ComputeLbpHistogram(&cpu, m.costs(), FaceImage(bytes, 7)),
                 std::invalid_argument)
        << bytes;
  }
  EXPECT_EQ(cpu.clock.now(), 0u);
}

TEST(KernelOracle, SynthesisMatchesReference) {
  for (uint64_t p = 0; p < kOraclePeople; ++p) {
    for (uint64_t v = 0; v < kOracleVariants; ++v) {
      EXPECT_TRUE(SynthesizeFace(p, v) == reference::SynthesizeFace(p, v))
          << "person " << p << " variant " << v;
    }
  }
  for (uint64_t p : {uint64_t{1000}, uint64_t{7777}, ~uint64_t{0}}) {
    EXPECT_TRUE(SynthesizeFace(p, 3) == reference::SynthesizeFace(p, 3)) << p;
  }
}

TEST(KernelOracle, LbpMatchesReferenceOnFaces) {
  sim::Machine m;
  for (uint64_t p = 0; p < kOraclePeople; ++p) {
    for (uint64_t v = 0; v < kOracleVariants; ++v) {
      const FaceImage img = reference::SynthesizeFace(p, v);
      EXPECT_TRUE(SameBits(ComputeLbpHistogram(nullptr, m.costs(), img),
                           reference::ComputeLbpHistogram(nullptr, m.costs(), img)))
          << "person " << p << " variant " << v;
    }
  }
}

TEST(KernelOracle, LbpMatchesReferenceOnEdgeImages) {
  sim::Machine m;
  for (const auto& [name, img] : EdgeImages()) {
    EXPECT_TRUE(SameBits(ComputeLbpHistogram(nullptr, m.costs(), img),
                         reference::ComputeLbpHistogram(nullptr, m.costs(), img)))
        << name;
  }
}

TEST(KernelOracle, ChiSquareMatchesReferenceOnFaces) {
  sim::Machine m;
  std::vector<Histogram> h;  // h[p * kOracleVariants + v]
  for (uint64_t p = 0; p < kOraclePeople; ++p) {
    for (uint64_t v = 0; v < kOracleVariants; ++v) {
      h.push_back(ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(p, v)));
    }
  }
  const auto at = [&](uint64_t p, uint64_t v) -> const Histogram& {
    return h[(p % kOraclePeople) * kOracleVariants + v];
  };
  for (uint64_t p = 0; p < kOraclePeople; ++p) {
    const std::pair<const Histogram*, const Histogram*> pairs[] = {
        {&at(p, 0), &at(p, 1)},     {&at(p, 2), &at(p, 0)},
        {&at(p, 0), &at(p + 1, 0)}, {&at(p + 7, 2), &at(p, 1)},
    };
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(Bits(ChiSquareDistance(*a, *b)),
                Bits(reference::ChiSquareDistance(*a, *b)))
          << "person " << p;
    }
  }
}

TEST(KernelOracle, ChiSquareMatchesReferenceOnEdgeInputs) {
  sim::Machine m;
  const Histogram face = ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(5));
  const Histogram other =
      ComputeLbpHistogram(nullptr, m.costs(), SynthesizeFace(6, 1));
  std::vector<std::pair<std::string, Histogram>> hists;
  for (const auto& [name, img] : EdgeImages()) {
    hists.emplace_back(name, ComputeLbpHistogram(nullptr, m.costs(), img));
  }
  hists.emplace_back("face", face);

  // A histogram against itself is exactly +0.0.
  for (const auto& [name, hist] : hists) {
    EXPECT_EQ(Bits(ChiSquareDistance(hist, hist)), Bits(0.0)) << name;
  }
  // Flat and saturated images fill one bin per cell, so most bins are empty
  // in both histograms of a pair.
  for (const auto& [name_a, a] : hists) {
    for (const auto& [name_b, b] : hists) {
      EXPECT_EQ(Bits(ChiSquareDistance(a, b)),
                Bits(reference::ChiSquareDistance(a, b)))
          << name_a << " vs " << name_b;
    }
  }
  // Unequal and odd lengths compare the common prefix.
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, kLbpBins,
                     kLbpBins + 1, kHistogramFloats - 1}) {
    const Histogram prefix(face.begin(), face.begin() + len);
    EXPECT_EQ(Bits(ChiSquareDistance(prefix, other)),
              Bits(reference::ChiSquareDistance(prefix, other)))
        << len;
    EXPECT_EQ(Bits(ChiSquareDistance(other, prefix)),
              Bits(reference::ChiSquareDistance(other, prefix)))
        << len;
  }
  // Bins the reference skips (sum not > 0) at every lane position, between
  // bins it counts.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const Histogram a = {0.5f, 0.0f, -1.0f, 0.25f, nan, -2.0f, tiny, 3.0f, 0.0f};
  const Histogram b = {0.0f, 0.0f, 1.0f, 0.75f, 0.5f, 1.0f, tiny, 1e-30f, -0.0f};
  for (size_t shift = 0; shift < 2; ++shift) {
    const Histogram sa(a.begin() + shift, a.end());
    const Histogram sb(b.begin() + shift, b.end());
    EXPECT_EQ(Bits(ChiSquareDistance(sa, sb)),
              Bits(reference::ChiSquareDistance(sa, sb)))
        << shift;
  }
}

}  // namespace
}  // namespace eleos::apps
