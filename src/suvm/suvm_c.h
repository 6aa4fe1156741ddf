// Copyright (c) Eleos reproduction authors. MIT license.
//
// The C-level SUVM interface (paper §3.2.3): for applications written in C
// (memcached in the paper, KvCache here) that cannot use the spointer<T>
// template. Operates on raw SUVM addresses; the GET/SET entry points keep
// the dirty-bit optimization available to C code.

#ifndef ELEOS_SRC_SUVM_SUVM_C_H_
#define ELEOS_SRC_SUVM_SUVM_C_H_

#include <cstddef>
#include <cstdint>

namespace eleos::suvm {
class Suvm;
}  // namespace eleos::suvm

extern "C" {

typedef uint64_t suvm_addr_t;

// An opaque handle (a Suvm*). C applications receive it from the embedding
// C++ runtime.
typedef struct suvm_ctx suvm_ctx;

suvm_ctx* suvm_ctx_from(eleos::suvm::Suvm* suvm);

// Every fallible entry point returns a status and never throws across the C
// boundary, so C callers (and KvCache) can degrade gracefully on a hostile
// host (quarantined pages, exhausted EPC++, a crashed instance) instead of
// dying. Values mirror eleos::StatusCode exactly: a range past the backing
// store, for one, is SUVM_ERR_INVALID_ARGUMENT.
typedef int suvm_status_t;
#define SUVM_OK 0
#define SUVM_ERR_INVALID_ARGUMENT 1
#define SUVM_ERR_FAILED_PRECONDITION 2
#define SUVM_ERR_RESOURCE_EXHAUSTED 3
#define SUVM_ERR_DATA_CORRUPTION 4
#define SUVM_ERR_UNAVAILABLE 5
#define SUVM_ERR_NOT_FOUND 6
#define SUVM_ERR_INTERNAL 7
#define SUVM_ERR_ROLLBACK_DETECTED 8

// On failure `*out` is untouched.
[[nodiscard]] suvm_status_t suvm_malloc(suvm_ctx* ctx, size_t bytes,
                                        suvm_addr_t* out);
// SUVM_ERR_FAILED_PRECONDITION when a C++ spointer still pins a page of the
// block.
[[nodiscard]] suvm_status_t suvm_free(suvm_ctx* ctx, suvm_addr_t addr);

// Read ("get") and write ("set") accessors; reads never mark pages dirty.
// Partial-progress caveat: a multi-page transfer that fails mid-way has
// already transferred the earlier pages (reads filled part of dst, writes
// dirtied part of the range).
[[nodiscard]] suvm_status_t suvm_get_bytes(suvm_ctx* ctx, suvm_addr_t addr,
                                           void* dst, size_t len);
[[nodiscard]] suvm_status_t suvm_set_bytes(suvm_ctx* ctx, suvm_addr_t addr,
                                           const void* src, size_t len);

// Optimized buffer operations (§3.2.3). suvm_memcmp stores the memcmp
// result in *result on success.
[[nodiscard]] suvm_status_t suvm_memset(suvm_ctx* ctx, suvm_addr_t addr,
                                        int value, size_t len);
[[nodiscard]] suvm_status_t suvm_memcpy(suvm_ctx* ctx, suvm_addr_t dst,
                                        suvm_addr_t src, size_t len);
[[nodiscard]] suvm_status_t suvm_memcmp(suvm_ctx* ctx, suvm_addr_t addr,
                                        const void* other, size_t len,
                                        int* result);

// Direct (sub-page, O_DIRECT-style) access; requires a direct-mode context.
[[nodiscard]] suvm_status_t suvm_read_direct(suvm_ctx* ctx, suvm_addr_t addr,
                                             void* dst, size_t len);
[[nodiscard]] suvm_status_t suvm_write_direct(suvm_ctx* ctx, suvm_addr_t addr,
                                              const void* src, size_t len);

}  // extern "C"

#endif  // ELEOS_SRC_SUVM_SUVM_C_H_
