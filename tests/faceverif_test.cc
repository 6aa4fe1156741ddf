// Copyright (c) Eleos reproduction authors. MIT license.
//
// Face verification: LBP properties, verification accuracy on synthetic
// identities, and operation across secure-memory backends.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/faceverif.h"

namespace eleos::apps {
namespace {

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

}  // namespace
}  // namespace eleos::apps
