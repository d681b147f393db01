#include "util/page_vector.h"

#include <sys/mman.h>

#include <cstring>

namespace hytgraph {
namespace page_vector_internal {
namespace {

/// True when requests of `bytes` are mapped rather than served by operator
/// new.
bool Mapped(size_t bytes) { return kMapPages && bytes >= kPageMapThreshold; }

}  // namespace

void* Allocate(size_t bytes) {
  if (!Mapped(bytes)) {
    void* p = ::operator new(bytes);
    std::memset(p, 0, bytes);
    return p;
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void Deallocate(void* p, size_t bytes) {
  if (p == nullptr) return;
  if (Mapped(bytes)) {
    munmap(p, bytes);
  } else {
    ::operator delete(p, bytes);
  }
}

}  // namespace page_vector_internal
}  // namespace hytgraph
