// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/sim/epc.h"

#include <cstring>

namespace eleos::sim {

Epc::Epc(size_t usable_frames)
    : total_frames_(usable_frames),
      storage_(AllocHugeBuffer(usable_frames * kPageSize)) {
  free_list_.reserve(usable_frames);
  // Pop order is from the back; push frames reversed so allocation starts at 0.
  for (size_t i = usable_frames; i > 0; --i) {
    free_list_.push_back(static_cast<FrameId>(i - 1));
  }
}

FrameId Epc::Alloc() {
  if (free_list_.empty()) {
    return kInvalidFrame;
  }
  const FrameId f = free_list_.back();
  free_list_.pop_back();
  std::memset(FrameData(f), 0, kPageSize);
  return f;
}

void Epc::Free(FrameId frame) { free_list_.push_back(frame); }

}  // namespace eleos::sim
