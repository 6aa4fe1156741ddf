// Copyright (c) Eleos reproduction authors. MIT license.
//
// Face verification server (paper §5.2): a biometric identity-checking
// service storing LBP histograms in a hash table keyed by person ID. Clients
// send an encrypted {id, image}; the server computes the query's LBP
// histogram, fetches the stored histogram for that id from secure memory,
// and compares (chi-square).
//
// Substitution note: the paper uses the FERET database at 512x512; images
// here are deterministic synthetic 256x256 grayscale (licensing), with the
// cell grid chosen so the stored histogram is the same ~232 KiB value size
// the paper reports (59 uniform-LBP bins x 32x32 cells x 4 bytes).

#ifndef ELEOS_SRC_APPS_FACEVERIF_H_
#define ELEOS_SRC_APPS_FACEVERIF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/mem_region.h"
#include "src/common/rng.h"
#include "src/sim/enclave.h"

namespace eleos::apps {

inline constexpr size_t kFaceImageDim = 256;             // pixels per side
inline constexpr size_t kFaceCellDim = 8;                // pixels per cell side
inline constexpr size_t kFaceGrid = kFaceImageDim / kFaceCellDim;  // 32
inline constexpr size_t kLbpBins = 59;                   // uniform LBP
inline constexpr size_t kHistogramFloats = kLbpBins * kFaceGrid * kFaceGrid;
inline constexpr size_t kHistogramBytes = kHistogramFloats * 4;  // ~236 KiB

using FaceImage = std::vector<uint8_t>;  // kFaceImageDim^2 grayscale
using Histogram = std::vector<float>;    // kHistogramFloats

// Deterministic synthetic "face" for a person id: smooth per-person texture
// so different ids produce genuinely different LBP histograms.
FaceImage SynthesizeFace(uint64_t person_id, uint64_t variant = 0);

// Uniform-LBP histogram over an 8-neighbor LBP code map, per cell. `cpu` is
// charged lbp_cycles_per_pixel per pixel. The image comes from the client:
// throws std::invalid_argument unless it holds exactly kFaceImageDim^2 bytes.
Histogram ComputeLbpHistogram(sim::CpuContext* cpu, const sim::CostModel& costs,
                              const FaceImage& image);

// Chi-square distance between histograms; lower = more similar.
double ChiSquareDistance(const Histogram& a, const Histogram& b);

class FaceVerifServer {
 public:
  // `region` must hold n_people * kHistogramBytes.
  FaceVerifServer(sim::Machine& machine, MemRegion& region, size_t n_people);

  // Precomputes and stores every person's reference histogram (unmeasured).
  // The histograms are computed on host threads, one pinned to each CPU in
  // the calling thread's affinity mask besides its own (at most 8), while
  // the calling thread writes them to the region in id order; with one CPU
  // it computes them itself. Throws what a region write or a computation
  // threw, after every worker has stopped; the ids before the failing one
  // are written.
  void BuildDatabase();

  // The measured op: histogram of the query image is already computed by the
  // caller (the request handler); fetch + compare against person_id's entry.
  // An id that is not enrolled (>= n_people) is rejected without reading the
  // region, with an infinite distance.
  bool Verify(sim::CpuContext* cpu, uint64_t person_id, const Histogram& query,
              double* distance_out = nullptr);

  double threshold() const { return threshold_; }

 private:
  uint64_t EntryOff(uint64_t person_id) const {
    return person_id * kHistogramBytes;
  }

  sim::Machine* machine_;
  MemRegion* region_;
  size_t n_people_;
  double threshold_ = 0.0;
};

}  // namespace eleos::apps

#endif  // ELEOS_SRC_APPS_FACEVERIF_H_
