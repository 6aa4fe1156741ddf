// Copyright (c) Eleos reproduction authors. MIT license.
//
// Face verification: LBP properties, verification accuracy on synthetic
// identities, operation across secure-memory backends, the face kernels
// held bit for bit to the scalar reference they replaced, and the threaded
// database build held to a serial loop of reference writes.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

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
  sim::Machine machine;
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

// --- Threaded database build -------------------------------------------------

// Restricts the calling thread to the first CPU of its affinity mask, which
// leaves BuildDatabase no worker, and restores the mask when destroyed.
class OneCpuScope {
 public:
  OneCpuScope() {
    CPU_ZERO(&saved_);
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }
  OneCpuScope(const OneCpuScope&) = delete;
  OneCpuScope& operator=(const OneCpuScope&) = delete;
  ~OneCpuScope() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
    }
  }

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// A database that pages: EPC++ of 128 pages under real AES-GCM, with the
// backing arena zeroed so that two instances can be compared byte for byte.
struct PagedDatabase {
  static suvm::SuvmConfig Config() {
    suvm::SuvmConfig sc;
    sc.epc_pp_pages = 128;
    sc.backing_bytes = 8 << 20;
    return sc;
  }

  explicit PagedDatabase(size_t people)
      : enclave(machine),
        suvm(enclave, Config()),
        region(suvm, people * kHistogramBytes) {
    suvm::BackingStore& store = suvm.backing_store();
    std::memset(store.Raw(0), 0, store.capacity());
  }

  sim::Machine machine;
  sim::Enclave enclave;
  suvm::Suvm suvm;
  SuvmRegion region;
};

// BuildDatabase against a twin machine on which a plain loop writes the
// reference histograms in id order: the nonce stream pins the order in
// which pages were sealed, so equal arenas mean equal writes in equal order.
void ExpectBuildMatchesSerialReferenceWrites() {
  constexpr size_t kPeople = 24;
  PagedDatabase built(kPeople);
  PagedDatabase serial(kPeople);
  FaceVerifServer server(built.machine, built.region, kPeople);
  server.BuildDatabase();

  const sim::CostModel& costs = serial.machine.costs();
  const auto reference_hist = [&costs](uint64_t person, uint64_t variant) {
    return reference::ComputeLbpHistogram(
        nullptr, costs, reference::SynthesizeFace(person, variant));
  };
  for (uint64_t id = 0; id < kPeople; ++id) {
    const Histogram h = reference_hist(id, 0);
    serial.region.Write(nullptr, id * kHistogramBytes, h.data(), kHistogramBytes);
  }
  const Histogram ref0 = reference_hist(0, 0);
  const double threshold =
      (reference::ChiSquareDistance(ref0, reference_hist(0, 1)) +
       reference::ChiSquareDistance(ref0, reference_hist(1, 0))) /
      2.0;
  EXPECT_EQ(Bits(server.threshold()), Bits(threshold));

  const suvm::Suvm::Stats& got = built.suvm.stats();
  const suvm::Suvm::Stats& want = serial.suvm.stats();
  ASSERT_GT(want.evictions.load(), 0u) << "the database must page";
  EXPECT_EQ(got.major_faults.load(), want.major_faults.load());
  EXPECT_EQ(got.writebacks.load(), want.writebacks.load());
  EXPECT_EQ(got.evictions.load(), want.evictions.load());
  const suvm::BackingStore& got_store = built.suvm.backing_store();
  const suvm::BackingStore& want_store = serial.suvm.backing_store();
  ASSERT_EQ(got_store.capacity(), want_store.capacity());
  EXPECT_EQ(std::memcmp(got_store.Raw(0), want_store.Raw(0), got_store.capacity()),
            0);

  for (uint64_t id = 0; id < kPeople; ++id) {
    Histogram a(kHistogramFloats), b(kHistogramFloats);
    built.region.Read(nullptr, id * kHistogramBytes, a.data(), kHistogramBytes);
    serial.region.Read(nullptr, id * kHistogramBytes, b.data(), kHistogramBytes);
    EXPECT_TRUE(SameBits(a, b)) << "person " << id;
  }
}

TEST(DatabaseBuild, WritesWhatASerialLoopWrites) {
  ExpectBuildMatchesSerialReferenceWrites();
}

TEST(DatabaseBuild, WritesWhatASerialLoopWritesOnOneCpu) {
  OneCpuScope one_cpu;
  ASSERT_TRUE(one_cpu.pinned());
  ExpectBuildMatchesSerialReferenceWrites();
}

struct WriteRefused : std::runtime_error {
  WriteRefused() : std::runtime_error("write refused") {}
};

// Host memory whose Write throws WriteRefused on one person's entry, and
// which logs the person of every write it takes.
class FailingRegion : public MemRegion {
 public:
  FailingRegion(size_t people, uint64_t fail_id)
      : data_(people * kHistogramBytes), fail_id_(fail_id) {}

  void Read(sim::CpuContext*, uint64_t off, void* dst, size_t n) override {
    std::memcpy(dst, data_.data() + off, n);
  }
  void Write(sim::CpuContext*, uint64_t off, const void* src,
             size_t n) override {
    const uint64_t id = off / kHistogramBytes;
    if (id == fail_id_) {
      throw WriteRefused();
    }
    std::memcpy(data_.data() + off, src, n);
    written.push_back(id);
  }
  size_t size() const override { return data_.size(); }

  std::vector<uint64_t> written;

 private:
  std::vector<uint8_t> data_;
  uint64_t fail_id_;
};

TEST(DatabaseBuild, RegionWriteFailureStopsTheBuild) {
  constexpr size_t kPeople = 40;
  sim::Machine machine;
  // The first id, one past the last slot of the smallest ring, one deep
  // into a cycled ring, and the last id.
  for (uint64_t fail_id : {0, 4, 29, 39}) {
    FailingRegion region(kPeople, fail_id);
    FaceVerifServer server(machine, region, kPeople);
    EXPECT_THROW(server.BuildDatabase(), WriteRefused) << fail_id;
    ASSERT_EQ(region.written.size(), fail_id);
    for (uint64_t id = 0; id < fail_id; ++id) {
      EXPECT_EQ(region.written[id], id);
      Histogram got(kHistogramFloats);
      region.Read(nullptr, id * kHistogramBytes, got.data(), kHistogramBytes);
      EXPECT_TRUE(SameBits(
          got, ComputeLbpHistogram(nullptr, machine.costs(), SynthesizeFace(id))))
          << "person " << id;
    }
  }
}

}  // namespace
}  // namespace eleos::apps
