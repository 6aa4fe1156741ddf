// Copyright (c) Eleos reproduction authors. MIT license.
//
// The Enclave Page Cache: a fixed pool of 4 KiB frames inside the processor
// reserved memory (PRM).
//
// Real hardware reserves 128 MiB of PRM of which ~90 MiB is usable for
// application pages; the remainder holds the EPCM and version arrays (§2.3).
// The simulator backs the usable frames with one large allocation on huge
// host pages (src/common/huge_buffer.h) and hands out frame ids; frame
// *contents* are real bytes so eviction/reload and the crypto around them can
// be tested end to end.

#ifndef ELEOS_SRC_SIM_EPC_H_
#define ELEOS_SRC_SIM_EPC_H_

#include <cstdint>
#include <vector>

#include "src/common/huge_buffer.h"

namespace eleos::sim {

inline constexpr size_t kPageSize = 4096;
inline constexpr uint32_t kInvalidFrame = UINT32_MAX;

using FrameId = uint32_t;

class Epc {
 public:
  explicit Epc(size_t usable_frames);

  Epc(const Epc&) = delete;
  Epc& operator=(const Epc&) = delete;

  // Allocates a frame, or returns kInvalidFrame when the EPC is full (the
  // caller — the SGX driver — must then evict).
  FrameId Alloc();
  void Free(FrameId frame);

  uint8_t* FrameData(FrameId frame) {
    return storage_.get() + static_cast<size_t>(frame) * kPageSize;
  }
  const uint8_t* FrameData(FrameId frame) const {
    return storage_.get() + static_cast<size_t>(frame) * kPageSize;
  }

  size_t total_frames() const { return total_frames_; }
  size_t free_frames() const { return free_list_.size(); }
  size_t used_frames() const { return total_frames_ - free_list_.size(); }

 private:
  size_t total_frames_;
  HugeBuffer storage_;
  std::vector<FrameId> free_list_;
};

}  // namespace eleos::sim

#endif  // ELEOS_SRC_SIM_EPC_H_
