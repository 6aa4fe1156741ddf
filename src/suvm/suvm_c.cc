// Copyright (c) Eleos reproduction authors. MIT license.

#include "src/suvm/suvm_c.h"

#include <stdexcept>

#include "src/sim/vclock.h"
#include "src/suvm/suvm.h"

namespace {

eleos::suvm::Suvm* Unwrap(suvm_ctx* ctx) {
  return reinterpret_cast<eleos::suvm::Suvm*>(ctx);
}

suvm_status_t ToC(const eleos::Status& status) {
  return static_cast<suvm_status_t>(status.code());
}

}  // namespace

extern "C" {

suvm_ctx* suvm_ctx_from(eleos::suvm::Suvm* suvm) {
  return reinterpret_cast<suvm_ctx*>(suvm);
}

suvm_status_t suvm_malloc(suvm_ctx* ctx, size_t bytes, suvm_addr_t* out) {
  eleos::StatusOr<uint64_t> addr = Unwrap(ctx)->Malloc(bytes);
  if (addr.ok()) {
    *out = *addr;
  }
  return ToC(addr.status());
}

suvm_status_t suvm_free(suvm_ctx* ctx, suvm_addr_t addr) {
  try {
    Unwrap(ctx)->Free(addr);
  } catch (const std::logic_error&) {
    return SUVM_ERR_FAILED_PRECONDITION;  // never unwind into C
  }
  return SUVM_OK;
}

suvm_status_t suvm_get_bytes(suvm_ctx* ctx, suvm_addr_t addr, void* dst,
                             size_t len) {
  return ToC(Unwrap(ctx)->Read(eleos::sim::CurrentCpu(), addr, dst, len));
}

suvm_status_t suvm_set_bytes(suvm_ctx* ctx, suvm_addr_t addr, const void* src,
                             size_t len) {
  return ToC(Unwrap(ctx)->Write(eleos::sim::CurrentCpu(), addr, src, len));
}

suvm_status_t suvm_memset(suvm_ctx* ctx, suvm_addr_t addr, int value,
                          size_t len) {
  return ToC(Unwrap(ctx)->Memset(eleos::sim::CurrentCpu(), addr,
                                 static_cast<uint8_t>(value), len));
}

suvm_status_t suvm_memcpy(suvm_ctx* ctx, suvm_addr_t dst, suvm_addr_t src,
                          size_t len) {
  return ToC(Unwrap(ctx)->Memcpy(eleos::sim::CurrentCpu(), dst, src, len));
}

suvm_status_t suvm_memcmp(suvm_ctx* ctx, suvm_addr_t addr, const void* other,
                          size_t len, int* result) {
  eleos::StatusOr<int> c =
      Unwrap(ctx)->Memcmp(eleos::sim::CurrentCpu(), addr, other, len);
  if (c.ok()) {
    *result = *c;
  }
  return ToC(c.status());
}

suvm_status_t suvm_read_direct(suvm_ctx* ctx, suvm_addr_t addr, void* dst,
                               size_t len) {
  return ToC(
      Unwrap(ctx)->ReadDirect(eleos::sim::CurrentCpu(), addr, dst, len));
}

suvm_status_t suvm_write_direct(suvm_ctx* ctx, suvm_addr_t addr,
                                const void* src, size_t len) {
  return ToC(
      Unwrap(ctx)->WriteDirect(eleos::sim::CurrentCpu(), addr, src, len));
}

}  // extern "C"
