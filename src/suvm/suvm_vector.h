// Copyright (c) Eleos reproduction authors. MIT license.
//
// SuvmVector<T>: a dynamic array whose elements live in SUVM — the "data
// containers of arbitrarily large sizes, whose content is stored securely in
// the backing store" use case of §3.2.2.
//
// The container itself (size, capacity, the base spointer) is tiny enclave
// state; every element access goes through an unlinked spointer copy, so no
// page stays pinned between calls (heuristic #1), while a sequential Scan()
// uses one linked iterator and pays one page-table lookup per page.

#ifndef ELEOS_SRC_SUVM_SUVM_VECTOR_H_
#define ELEOS_SRC_SUVM_SUVM_VECTOR_H_

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "src/suvm/spointer.h"

namespace eleos::suvm {

template <typename T>
class SuvmVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SUVM stores raw bytes; element types must be trivially copyable");
  static_assert(sim::kPageSize % sizeof(T) == 0 || sizeof(T) % 2 == 0 ||
                    sizeof(T) == 1,
                "element size should not straddle page boundaries");

 public:
  explicit SuvmVector(Suvm& suvm) : suvm_(&suvm) {}

  SuvmVector(const SuvmVector&) = delete;
  SuvmVector& operator=(const SuvmVector&) = delete;

  SuvmVector(SuvmVector&& other) noexcept
      : suvm_(other.suvm_),
        base_(other.base_),
        size_(other.size_),
        capacity_(other.capacity_) {
    other.base_ = kInvalidAddr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  ~SuvmVector() {
    if (base_ != kInvalidAddr) {
      suvm_->Free(base_);
    }
  }

  void PushBack(const T& value) {
    if (size_ == capacity_) {
      Grow();
    }
    ThrowIfError(suvm_->Write(sim::CurrentCpu(), ElemAddr(size_), &value,
                              sizeof(T)));
    ++size_;
  }

  T Get(size_t index) const {
    CheckBounds(index);
    T out;
    ThrowIfError(suvm_->Read(sim::CurrentCpu(), ElemAddr(index), &out,
                             sizeof(T)));
    return out;
  }

  void Set(size_t index, const T& value) {
    CheckBounds(index);
    ThrowIfError(suvm_->Write(sim::CurrentCpu(), ElemAddr(index), &value,
                              sizeof(T)));
  }

  void PopBack() {
    if (size_ == 0) {
      throw std::out_of_range("SuvmVector::PopBack on empty vector");
    }
    --size_;
  }

  // Sequential scan with a *linked* spointer: one page-table lookup per page
  // rather than per element. `fn(index, value)` for each element.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    spointer<T> it(suvm_, base_);
    for (size_t i = 0; i < size_; ++i) {
      fn(i, it.GetAt(static_cast<ptrdiff_t>(i)));
    }
  }

  // In-place mutation scan (marks pages dirty only when fn returns true).
  template <typename Fn>
  void Transform(Fn&& fn) {
    spointer<T> it(suvm_, base_);
    for (size_t i = 0; i < size_; ++i) {
      T v = it.GetAt(static_cast<ptrdiff_t>(i));
      if (fn(i, &v)) {
        it.SetAt(static_cast<ptrdiff_t>(i), v);
      }
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n) {
    if (n > capacity_) {
      Relocate(n);
    }
  }

  void Clear() { size_ = 0; }

 private:
  uint64_t ElemAddr(size_t index) const {
    return base_ + static_cast<uint64_t>(index) * sizeof(T);
  }

  void CheckBounds(size_t index) const {
    if (index >= size_) {
      throw std::out_of_range("SuvmVector: index out of range");
    }
  }

  void Grow() { Relocate(capacity_ == 0 ? 64 : capacity_ * 2); }

  void Relocate(size_t new_capacity) {
    const uint64_t new_base =
        ValueOrThrow(suvm_->Malloc(new_capacity * sizeof(T)));
    if (base_ != kInvalidAddr) {
      if (size_ > 0) {
        ThrowIfError(suvm_->Memcpy(sim::CurrentCpu(), new_base, base_,
                                   size_ * sizeof(T)));
      }
      suvm_->Free(base_);
    }
    base_ = new_base;
    capacity_ = new_capacity;
  }

  Suvm* suvm_;
  uint64_t base_ = kInvalidAddr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace eleos::suvm

#endif  // ELEOS_SRC_SUVM_SUVM_VECTOR_H_
