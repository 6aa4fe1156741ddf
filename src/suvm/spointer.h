// Copyright (c) Eleos reproduction authors. MIT license.
//
// spointer<T> — the secure active pointer (paper §3.2.2, §3.2.3).
//
// A spointer encapsulates SUVM address translation behind regular pointer
// semantics. On first dereference it "links": the page is pinned in EPC++
// (reference-counted) and the translation is cached in the spointer, so
// subsequent accesses to the same page skip the page-table lookup entirely —
// one lookup per page, which is what keeps fault-free overhead at 15-25%.
// The spointer unlinks (drops the pin) when destroyed, reassigned, or moved
// across a page boundary; copies start unlinked (heuristics of §3.2.2 that
// keep the number of pinned pages small, e.g. inside data containers).
//
// Dirty tracking (§3.2.4): C++ cannot distinguish read from write
// dereference, so operator*/operator[] conservatively assume writes; use
// Get()/Set() to keep read-only accesses from marking the page dirty (which
// would force a write-back on eviction).
//
// Pointer semantics leave no room for a Status: a dereference whose page-in
// fails after the fault handler's retry (persistent corruption, EPC++
// exhaustion, a crashed instance) throws via ThrowIfError.

#ifndef ELEOS_SRC_SUVM_SPOINTER_H_
#define ELEOS_SRC_SUVM_SPOINTER_H_

#include <cstddef>
#include <stdexcept>

#include "src/sim/machine.h"
#include "src/suvm/suvm.h"

namespace eleos::suvm {

template <typename T>
class spointer {
  static_assert(sizeof(T) <= sim::kPageSize, "element must fit in one page");

 public:
  spointer() = default;
  spointer(Suvm* suvm, uint64_t addr) : suvm_(suvm), addr_(addr) {}

  // Copies start unlinked (pin-minimizing heuristic #1).
  spointer(const spointer& other) : suvm_(other.suvm_), addr_(other.addr_) {}
  spointer& operator=(const spointer& other) {
    if (this != &other) {
      Unlink();
      suvm_ = other.suvm_;
      addr_ = other.addr_;
    }
    return *this;
  }

  spointer(spointer&& other) noexcept
      : suvm_(other.suvm_),
        addr_(other.addr_),
        slot_(other.slot_),
        linked_page_(other.linked_page_),
        dirty_(other.dirty_) {
    other.slot_ = -1;
    other.suvm_ = nullptr;
  }
  spointer& operator=(spointer&& other) noexcept {
    if (this != &other) {
      Unlink();
      suvm_ = other.suvm_;
      addr_ = other.addr_;
      slot_ = other.slot_;
      linked_page_ = other.linked_page_;
      dirty_ = other.dirty_;
      other.slot_ = -1;
      other.suvm_ = nullptr;
    }
    return *this;
  }

  ~spointer() { Unlink(); }

  // --- Pointer semantics ---

  T& operator*() { return RefAt(addr_, /*write=*/true); }
  T& operator[](ptrdiff_t i) {
    return RefAt(addr_ + static_cast<uint64_t>(i) * sizeof(T), /*write=*/true);
  }

  // Read-only / write accessors that drive the dirty-bit optimization.
  T Get() { return RefAt(addr_, /*write=*/false); }
  T GetAt(ptrdiff_t i) {
    return RefAt(addr_ + static_cast<uint64_t>(i) * sizeof(T), /*write=*/false);
  }
  void Set(const T& v) { RefAt(addr_, /*write=*/true) = v; }
  void SetAt(ptrdiff_t i, const T& v) {
    RefAt(addr_ + static_cast<uint64_t>(i) * sizeof(T), /*write=*/true) = v;
  }

  // --- Arithmetic (unlinks when crossing the linked page; the lazy check
  //     happens on the next dereference) ---
  spointer& operator+=(ptrdiff_t n) {
    addr_ += static_cast<uint64_t>(n) * sizeof(T);
    return *this;
  }
  spointer& operator-=(ptrdiff_t n) {
    addr_ -= static_cast<uint64_t>(n) * sizeof(T);
    return *this;
  }
  spointer& operator++() { return *this += 1; }
  spointer& operator--() { return *this -= 1; }
  spointer operator+(ptrdiff_t n) const {
    return spointer(suvm_, addr_ + static_cast<uint64_t>(n) * sizeof(T));
  }
  spointer operator-(ptrdiff_t n) const {
    return spointer(suvm_, addr_ - static_cast<uint64_t>(n) * sizeof(T));
  }
  ptrdiff_t operator-(const spointer& other) const {
    return static_cast<ptrdiff_t>(addr_ - other.addr_) /
           static_cast<ptrdiff_t>(sizeof(T));
  }

  bool operator==(const spointer& o) const {
    return suvm_ == o.suvm_ && addr_ == o.addr_;
  }
  bool operator!=(const spointer& o) const { return !(*this == o); }
  explicit operator bool() const { return suvm_ != nullptr; }

  // Explicitly drop the pin (heuristic #2 applies this automatically on
  // destruction and page-crossing).
  void Unlink() {
    if (slot_ >= 0) {
      suvm_->UnpinPage(linked_page_, slot_, dirty_);
      slot_ = -1;
      dirty_ = false;
    }
  }

  bool linked() const { return slot_ >= 0; }
  uint64_t addr() const { return addr_; }
  Suvm* suvm() const { return suvm_; }

 private:
  T& RefAt(uint64_t addr, bool write) {
    sim::CpuContext* cpu = sim::CurrentCpu();
    const uint64_t page = addr / sim::kPageSize;
    const size_t off = addr % sim::kPageSize;
    if (off + sizeof(T) > sim::kPageSize) {
      // Paper §4.2: misaligned data straddling entries is unsupported. The
      // deref-check charge lands only on accesses that pass validation — a
      // throwing access must not advance the virtual clock.
      throw std::logic_error("spointer: element straddles a page boundary");
    }
    if (cpu != nullptr) {
      cpu->Charge(suvm_->enclave().machine().costs().suvm_deref_check_cycles);
    }
    if (slot_ < 0 || page != linked_page_) {
      Unlink();
      ThrowIfError(suvm_->PinPage(cpu, page, &slot_));
      linked_page_ = page;
    }
    if (write) {
      dirty_ = true;
    }
    uint8_t* data = suvm_->SlotData(cpu, slot_, off, sizeof(T), write);
    return *reinterpret_cast<T*>(data);
  }

  Suvm* suvm_ = nullptr;
  uint64_t addr_ = 0;
  int slot_ = -1;
  uint64_t linked_page_ = UINT64_MAX;
  bool dirty_ = false;
};

// suvm_malloc-style factory: allocates `count` elements and returns the
// spointer to the first.
template <typename T>
spointer<T> SuvmAlloc(Suvm& suvm, size_t count = 1) {
  return spointer<T>(&suvm, ValueOrThrow(suvm.Malloc(count * sizeof(T))));
}

template <typename T>
void SuvmFree(spointer<T>& p) {
  p.Unlink();
  p.suvm()->Free(p.addr());
}

}  // namespace eleos::suvm

#endif  // ELEOS_SRC_SUVM_SPOINTER_H_
