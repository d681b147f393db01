// PageVector: the backend each request size goes to, zeroed fresh storage,
// value semantics across the mapping threshold, and a free on a thread other
// than the allocating one.

#include "util/page_vector.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>

// The largest request the calling thread made through operator new since the
// last reset: tells which backend a PageVector allocation went to.
namespace {
thread_local size_t largest_new_request = 0;
}  // namespace

void* operator new(size_t bytes) {
  largest_new_request = std::max(largest_new_request, bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t /*bytes*/) noexcept { std::free(p); }

namespace hytgraph {
namespace {

constexpr bool kMapPages = page_vector_internal::kMapPages;

/// True when the page holding `p` is mapped in this process.
bool PageMapped(const void* p) {
  const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  void* start = reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(p) /
                                        page * page);
  return msync(start, page, MS_ASYNC) == 0 || errno != ENOMEM;
}

/// Bytes of operator-new storage a PageVector<char> of `size` requested.
size_t OperatorNewBytesFor(size_t size) {
  largest_new_request = 0;
  PageVector<char> v(size);
  return largest_new_request;
}

TEST(PageVectorTest, ThresholdPicksTheBackend) {
  EXPECT_EQ(OperatorNewBytesFor(kPageMapThreshold - 1), kPageMapThreshold - 1);
  if (kMapPages) {
    EXPECT_LT(OperatorNewBytesFor(kPageMapThreshold), kPageMapThreshold);
    EXPECT_LT(OperatorNewBytesFor(4 * kPageMapThreshold), kPageMapThreshold);
  } else {
    // AddressSanitizer builds keep every array on operator new.
    EXPECT_EQ(OperatorNewBytesFor(kPageMapThreshold), kPageMapThreshold);
  }
}

TEST(PageVectorTest, MappedStorageIsUnmappedOnFree) {
  const char* data = nullptr;
  {
    PageVector<char> v(kPageMapThreshold);
    data = v.data();
    EXPECT_TRUE(PageMapped(data));
  }
  if (kMapPages) {
    EXPECT_FALSE(PageMapped(data));
  }
}

TEST(PageVectorTest, FreshStorageReadsZeroOnBothBackends) {
  for (const size_t bytes : {size_t{4096}, kPageMapThreshold - 4,
                             kPageMapThreshold, 3 * kPageMapThreshold}) {
    SCOPED_TRACE(bytes);
    const size_t n = bytes / sizeof(uint32_t);
    for (int round = 0; round < 2; ++round) {
      PageVector<uint32_t> v(n);
      EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                              [](uint32_t x) { return x == 0; }));
      // Dirty the storage so the next round's allocation, which may reuse
      // it, shows whether fresh storage is cleared.
      std::fill(v.begin(), v.end(), 0xdeadbeefu);
    }
  }
}

TEST(PageVectorTest, ResizeCopyMoveAndSwapCrossTheThreshold) {
  constexpr size_t kSmall = 1000;
  constexpr size_t kLarge = 2 * kPageMapThreshold / sizeof(uint64_t);
  PageVector<uint64_t> v(kSmall);
  for (size_t i = 0; i < kSmall; ++i) v[i] = i * 3;

  v.resize(kLarge);  // grows across the threshold: the values move along
  for (size_t i = 0; i < kSmall; ++i) ASSERT_EQ(v[i], i * 3);
  for (size_t i = kSmall; i < kLarge; ++i) ASSERT_EQ(v[i], 0u);
  v[kLarge - 1] = 7;

  PageVector<uint64_t> copy = v;
  EXPECT_EQ(copy, v);
  EXPECT_NE(copy.data(), v.data());

  v.resize(kSmall);
  v.shrink_to_fit();  // shrinks back below it
  ASSERT_EQ(v.size(), kSmall);
  for (size_t i = 0; i < kSmall; ++i) ASSERT_EQ(v[i], i * 3);

  const uint64_t* large_data = copy.data();
  PageVector<uint64_t> moved = std::move(copy);
  EXPECT_EQ(moved.data(), large_data);
  EXPECT_EQ(moved.size(), kLarge);
  EXPECT_EQ(moved[kLarge - 1], 7u);

  // Each side is freed by the backend that allocated it, wherever it ends up.
  moved.swap(v);
  EXPECT_EQ(v.size(), kLarge);
  EXPECT_EQ(v.data(), large_data);
  EXPECT_EQ(moved.size(), kSmall);
  EXPECT_EQ(moved[kSmall - 1], (kSmall - 1) * 3);
  PageVector<uint64_t> small_copy = moved;
  EXPECT_EQ(small_copy, moved);
}

TEST(PageVectorTest, ArraysCanBeFreedOnAnotherThread) {
  PageVector<uint32_t> large(kPageMapThreshold);
  PageVector<uint32_t> small(16, 5);
  const uint32_t* large_data = large.data();
  std::thread dropper(
      [large = std::move(large), small = std::move(small)]() mutable {
        EXPECT_EQ(small[15], 5u);
        PageVector<uint32_t>().swap(large);
        PageVector<uint32_t>().swap(small);
      });
  dropper.join();
  if (kMapPages) {
    EXPECT_FALSE(PageMapped(large_data));
  }
}

}  // namespace
}  // namespace hytgraph
