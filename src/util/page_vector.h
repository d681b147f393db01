// Storage for the large per-snapshot arrays: the CSR arrays, the edge lists
// they are built from, relabeled copies and transposes.
//
// PageAllocator serves every request of kPageMapThreshold bytes or more with
// its own anonymous mapping from the OS and unmaps it on deallocation, so
// dropping a snapshot returns its memory at once, on whatever thread drops
// it. Through malloc it would not: freeing one large block raises glibc's
// dynamic mmap threshold, after which arrays of tens of MB land in the brk
// heap or in per-thread arenas, whose pages stay resident after the free.
// Smaller requests go to operator new.
//
// Fresh storage reads as zero on either backend (mapped pages are zero
// already; operator-new storage is cleared). Elements that PageVector creates
// without a value — PageVector<T>(n), resize(n) — are not constructed: they
// keep the bytes of the storage, so a large array stays untouched until its
// first writer faults the pages in, and parallel fills fault them in
// parallel. Hence T must be trivially copyable, and an element created this
// way reads as zero bytes, not as T's default member values. Growing back
// into capacity that an earlier shrink left behind exposes the old bytes;
// pass a value to resize where that matters.
//
// Under AddressSanitizer every request goes to operator new: ASan cannot see
// into memory mapped behind its back, and would stop bounds-checking the
// graph arrays.

#ifndef HYTGRAPH_UTIL_PAGE_VECTOR_H_
#define HYTGRAPH_UTIL_PAGE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hytgraph {

/// Requests of at least this many bytes are mapped from the OS.
inline constexpr size_t kPageMapThreshold = size_t{1} << 20;

namespace page_vector_internal {

/// False under AddressSanitizer: every request then goes to operator new.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kMapPages = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kMapPages = false;
#else
inline constexpr bool kMapPages = true;
#endif
#else
inline constexpr bool kMapPages = true;
#endif

/// Zeroed storage of `bytes` bytes; throws std::bad_alloc on failure.
void* Allocate(size_t bytes);
void Deallocate(void* p, size_t bytes);

}  // namespace page_vector_internal

template <typename T>
class PageAllocator {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "PageAllocator leaves elements created without a value "
                "unconstructed");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  using value_type = T;
  using is_always_equal = std::true_type;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  T* allocate(size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    return static_cast<T*>(page_vector_internal::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    page_vector_internal::Deallocate(p, n * sizeof(T));
  }

  /// Value-less construction leaves the storage's bytes as they are.
  template <typename U>
  void construct(U* /*p*/) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const PageAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace hytgraph

#endif  // HYTGRAPH_UTIL_PAGE_VECTOR_H_
