// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/apps/faceverif.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

namespace eleos::apps {
namespace {

// GCC/Clang vector extensions: SSE2 on x86-64, portable code elsewhere.
typedef uint8_t U8x4 __attribute__((vector_size(4)));
typedef uint8_t U8x16 __attribute__((vector_size(16)));
typedef float F32x2 __attribute__((vector_size(8)));
typedef float F32x4 __attribute__((vector_size(16)));
typedef double F64x2 __attribute__((vector_size(16)));

// A cell's bin counts in ComputeLbpHistogram: kLbpBins, then empty bins up
// to a whole number of U8x16 vectors.
constexpr size_t kPaddedBins = 64;
using BandCounts = uint8_t[kFaceGrid][kPaddedBins];

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

F32x4 Widen4(const uint8_t* p) {
  U8x4 v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_convertvector(v, F32x4);
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

// Writes one cell's normalized histogram from its even- and odd-column
// counts: each bin's count over the cell's total, four lanes per division.
// IEEE division rounds every lane exactly, so each bin gets the bits of the
// scalar float division. A cell with no pixels stays all zero.
void NormalizeCell(const uint8_t* even, const uint8_t* odd, float* cell) {
  uint8_t counts[kPaddedBins];
  U8x16 lane_sums = {};
  for (size_t i = 0; i < kPaddedBins; i += sizeof(U8x16)) {
    const U8x16 c = Load16(even + i) + Load16(odd + i);
    std::memcpy(counts + i, &c, sizeof c);
    lane_sums += c;  // a lane adds distinct bins of one cell: at most 64
  }
  unsigned sum = 0;
  for (size_t i = 0; i < sizeof(U8x16); ++i) {
    sum += lane_sums[i];
  }
  if (sum == 0) {
    return;
  }
  const float s = static_cast<float>(sum);
  const F32x4 total = {s, s, s, s};
  constexpr size_t kWhole = kLbpBins / 4 * 4;
  for (size_t b = 0; b < kWhole; b += 4) {
    const F32x4 q = Widen4(counts + b) / total;
    std::memcpy(cell + b, &q, sizeof q);
  }
  // The last bins and padding: only the bins are stored.
  const F32x4 q = Widen4(counts + kWhole) / total;
  std::memcpy(cell + kWhole, &q, (kLbpBins - kWhole) * sizeof(float));
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

Histogram StoredHistogram(const sim::CostModel& costs, uint64_t person_id) {
  return ComputeLbpHistogram(nullptr, costs, SynthesizeFace(person_id));
}

// CPUs for BuildDatabase's workers, one worker each: those in the calling
// thread's affinity mask other than the one it runs on, at most 8. Each
// worker is pinned to its CPU: threads started together otherwise stayed on
// their creator's CPU for hundreds of milliseconds on a 4-vCPU VM.
std::vector<int> WorkerCpus() {
  constexpr size_t kMaxWorkers = 8;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0) {
    return {};
  }
  const size_t workers =
      std::min(static_cast<size_t>(CPU_COUNT(&allowed)) - 1, kMaxWorkers);
  const int own = sched_getcpu();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < workers; ++c) {
    if (CPU_ISSET(c, &allowed) && c != own) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

// Stored histograms of people 0..n-1, computed on worker threads ahead of
// the caller, who takes them in id order. A worker claims the next id only
// while it is fewer than kSlotsPerWorker * workers ids ahead of the one the
// caller takes next, and blocks otherwise: the ring holds at most that many
// histograms, plus the one the caller has taken.
class HistogramRing {
 public:
  // One worker on each of `cpus`, which must not be empty.
  HistogramRing(const sim::CostModel& costs, uint64_t n,
                const std::vector<int>& cpus)
      : costs_(costs), n_(n), slots_(kSlotsPerWorker * cpus.size()) {
    try {
      for (const int cpu : cpus) {
        threads_.emplace_back([this, cpu] { Work(cpu); });
      }
    } catch (...) {
      Stop();
      throw;
    }
  }
  HistogramRing(const HistogramRing&) = delete;
  HistogramRing& operator=(const HistogramRing&) = delete;
  ~HistogramRing() { Stop(); }

  // Person `id`'s histogram, for ids 0, 1, 2, ... in turn. Blocks until it
  // is ready and rethrows what computing it threw.
  Histogram Take(uint64_t id) {
    std::unique_lock lock(mu_);
    Slot& slot = slots_[id % slots_.size()];
    filled_.wait(lock, [&] { return slot.ready; });
    slot.ready = false;
    if (slot.error) {
      std::rethrow_exception(slot.error);
    }
    Histogram h = std::move(slot.hist);
    taken_ = id + 1;
    lock.unlock();
    freed_.notify_one();
    return h;
  }

 private:
  static constexpr size_t kSlotsPerWorker = 4;

  struct Slot {
    bool ready = false;
    Histogram hist;
    std::exception_ptr error;
  };

  void Work(int cpu) {
    cpu_set_t mine;
    CPU_ZERO(&mine);
    CPU_SET(cpu, &mine);
    // Best effort: an unpinned worker computes the same histograms.
    pthread_setaffinity_np(pthread_self(), sizeof mine, &mine);
    std::unique_lock lock(mu_);
    for (;;) {
      freed_.wait(lock, [&] {
        return stop_ || next_ == n_ || next_ < taken_ + slots_.size();
      });
      if (stop_ || next_ == n_) {
        return;
      }
      const uint64_t id = next_++;
      lock.unlock();
      Histogram h;
      std::exception_ptr error;
      try {
        h = StoredHistogram(costs_, id);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      Slot& slot = slots_[id % slots_.size()];
      slot.hist = std::move(h);
      slot.error = error;
      slot.ready = true;
      filled_.notify_one();  // the caller is the only waiter
    }
  }

  // Stops claiming ids and joins every worker.
  void Stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    freed_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  const sim::CostModel& costs_;
  const uint64_t n_;
  std::mutex mu_;                   // guards everything below but threads_
  std::condition_variable filled_;  // a slot became ready
  std::condition_variable freed_;   // the caller took a slot, or stop_
  std::vector<Slot> slots_;
  uint64_t next_ = 0;   // the next id a worker claims
  uint64_t taken_ = 0;  // ids the caller has taken
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

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
    // One row of cells, counted in integers. Odd and even columns count into
    // two tables, so neighbouring pixels with the same code do not wait on
    // one counter; a table holds at most 32 pixels of a cell.
    BandCounts odd = {};
    BandCounts even = {};
    const size_t y_end = std::min((band + 1) * kFaceCellDim, dim - 1);
    for (size_t y = std::max<size_t>(band * kFaceCellDim, 1); y < y_end; ++y) {
      LbpRowCodes(image.data() + y * dim, codes);
      for (size_t x = 1; x + 1 < dim; x += 2) {
        ++odd[x / kFaceCellDim][lut.bin[codes[x]]];
        ++even[(x + 1) / kFaceCellDim][lut.bin[codes[x + 1]]];
      }
    }
    // Normalize per cell so distances are scale-free. A count and its
    // cell's sum are at most 64, so both are exact in float.
    for (size_t cx = 0; cx < kFaceGrid; ++cx) {
      NormalizeCell(even[cx], odd[cx],
                    &hist[(band * kFaceGrid + cx) * kLbpBins]);
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
  // from a couple of same-person / different-person pairs. Only this thread
  // writes the region, in id order, so paging sees what a serial loop makes
  // it see. An exception leaves only after `ring` has joined its workers.
  const sim::CostModel& costs = machine_->costs();
  std::optional<HistogramRing> ring;
  if (const std::vector<int> cpus = WorkerCpus(); !cpus.empty()) {
    ring.emplace(costs, n_people_, cpus);
  }
  for (uint64_t id = 0; id < n_people_; ++id) {
    const Histogram h = ring ? ring->Take(id) : StoredHistogram(costs, id);
    region_->Write(nullptr, EntryOff(id), h.data(), kHistogramBytes);
  }
  const Histogram ref0 = StoredHistogram(costs, 0);
  const Histogram same =
      ComputeLbpHistogram(nullptr, costs, SynthesizeFace(0, /*variant=*/1));
  const Histogram other = StoredHistogram(costs, 1);
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
