//===- interp/SimMemory.h - Sparse simulated memory -------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse 64-bit byte-addressable memory for the interpreter, plus the
/// bump allocator the synthetic workloads use to lay out their data. The
/// bump allocator is the stand-in for the "program maintains its own memory
/// allocation" behaviour (paper Section 1) that creates stride patterns in
/// pointer-chasing code: objects allocated in traversal order produce
/// constant strides, and controlled amounts of out-of-order allocation
/// produce the paper's 94%/29%/48%-style stride mixes.
///
/// A run's memory is an overlay on an immutable, shared base image: reads
/// go through to the base's pages, and the first write to a page copies it
/// into the overlay (a write to a page the base does not map gets a private
/// zeroed page). A workload build writes into a memory with no base;
/// SimMemory::freeze turns that into the base, so every run of one build
/// request can read one copy of its image while each writes only its own
/// pages (driver/RunMemo.h).
///
/// Page lookup is the single hottest operation of a simulated run (every
/// Load/Store/SpecLoad pays it), so translation is served by a two-level
/// software TLB in front of the page maps: a last-page pointer (hit by the
/// streaming/pointer-chasing access patterns the paper studies) backed by a
/// small direct-mapped translation table. It caches the overlay's pages,
/// the base's, and unmapped ones as a shared zero page (workloads read
/// untouched tables a lot); page-data pointers stay valid while the
/// memory object is alive because pages are carved from append-only slabs
/// and never removed, so the cache needs invalidation only on copy/move
/// (the page map is cloned or abandoned wholesale). Each entry records
/// whether its page is the overlay's own, and only such an entry, or the
/// last page written, serves a write, so a base page a read cached is
/// still copied on its first write.
/// The base has no translation cache: overlays on other threads only look
/// up its page map.
///
/// Page storage is slab-pooled rather than one heap allocation per page:
/// a build's pages are carved in order from 2 MB slabs that are aligned to
/// their own size and (on Linux) advised MADV_HUGEPAGE. Randomly-indexed
/// multi-MB tables -- the workloads' "unprefetchable" access patterns --
/// then touch a handful of host huge pages instead of thousands of
/// scattered 4 KB pages, which takes host-dTLB misses out of the
/// simulated-load path for both execution engines. An overlay, which
/// writes few pages if any, takes its pages one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_SIMMEMORY_H
#define SPROF_INTERP_SIMMEMORY_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sprof {

/// The pages of a memory image: a page map over zeroed 64 KB pages carved
/// from slabs. Shared as the immutable base of SimMemory overlays, and the
/// page store of each SimMemory itself.
class MemoryImage {
public:
  static constexpr unsigned PageShift = 16;
  static constexpr uint64_t PageBytes = 1ull << PageShift;
  /// Pages per slab of a build's image: one 2 MB, THP-sized slab.
  static constexpr unsigned BuildSlabPages = (2u << 20) / PageBytes;

  explicit MemoryImage(unsigned SlabPages = BuildSlabPages)
      : SlabPages(SlabPages), SlabFill(SlabPages) {}
  MemoryImage(const MemoryImage &Other) : MemoryImage(Other.SlabPages) {
    copyPagesFrom(Other);
  }
  MemoryImage(MemoryImage &&Other) noexcept
      : Pages(std::move(Other.Pages)), Slabs(std::move(Other.Slabs)),
        SlabPages(Other.SlabPages), SlabFill(Other.SlabFill) {
    Other.Pages.clear();
    Other.SlabFill = Other.SlabPages;
  }
  MemoryImage &operator=(const MemoryImage &Other) {
    if (this != &Other)
      *this = MemoryImage(Other);
    return *this;
  }
  MemoryImage &operator=(MemoryImage &&Other) noexcept {
    if (this != &Other) {
      Pages = std::move(Other.Pages);
      Slabs = std::move(Other.Slabs);
      SlabPages = Other.SlabPages;
      SlabFill = Other.SlabFill;
      Other.Pages.clear();
      Other.SlabFill = Other.SlabPages;
    }
    return *this;
  }

  /// The data of page \p Page (an address >> PageShift), or nullptr when
  /// it is unmapped.
  const uint8_t *find(uint64_t Page) const {
    auto It = Pages.find(Page);
    return It == Pages.end() ? nullptr : It->second;
  }
  uint8_t *find(uint64_t Page) {
    auto It = Pages.find(Page);
    return It == Pages.end() ? nullptr : It->second;
  }

  /// Maps the unmapped page \p Page to a zeroed page and returns its data.
  uint8_t *map(uint64_t Page) {
    uint8_t *P = allocPage();
    Pages.emplace(Page, P);
    return P;
  }

  /// Copies in every page of \p Other that this image does not map.
  void copyPagesFrom(const MemoryImage &Other) {
    Pages.reserve(Pages.size() + Other.Pages.size());
    for (const auto &[Page, Data] : Other.Pages)
      if (!find(Page))
        std::memcpy(map(Page), Data, PageBytes);
  }

  size_t numPages() const { return Pages.size(); }

  /// The mapped page indices, in ascending order.
  std::vector<uint64_t> pages() const {
    std::vector<uint64_t> Indices;
    Indices.reserve(Pages.size());
    for (const auto &Entry : Pages)
      Indices.push_back(Entry.first);
    std::sort(Indices.begin(), Indices.end());
    return Indices;
  }

  /// Number of pages mapped here and not in \p Other.
  size_t numPagesNotIn(const MemoryImage &Other) const {
    size_t N = 0;
    for (const auto &Entry : Pages)
      N += !Other.find(Entry.first);
    return N;
  }

private:
  /// Hands out the next zeroed page from the slab pool, growing the pool by
  /// one slab when the current one is exhausted. Slabs are aligned to their
  /// own size so the kernel can back 2 MB ones with transparent huge pages,
  /// and are zeroed (and thereby faulted in) up front.
  uint8_t *allocPage() {
    if (SlabFill == SlabPages) {
      const uint64_t Bytes = uint64_t(SlabPages) * PageBytes;
      auto *Raw = static_cast<uint8_t *>(
          ::operator new(Bytes, std::align_val_t(Bytes)));
#if defined(__linux__)
      if (SlabPages == BuildSlabPages)
        ::madvise(Raw, Bytes, MADV_HUGEPAGE);
#endif
      std::memset(Raw, 0, Bytes);
      Slabs.emplace_back(Raw, SlabDeleter{Bytes});
      SlabFill = 0;
    }
    return Slabs.back().get() + uint64_t(SlabFill++) * PageBytes;
  }

  struct SlabDeleter {
    uint64_t Bytes; ///< the slab's size, which is also its alignment
    void operator()(uint8_t *P) const {
      ::operator delete(P, std::align_val_t(Bytes));
    }
  };

  std::unordered_map<uint64_t, uint8_t *> Pages;
  std::vector<std::unique_ptr<uint8_t[], SlabDeleter>> Slabs;
  unsigned SlabPages;
  unsigned SlabFill; ///< pages carved from the last slab
};

/// Sparse paged memory: an overlay on an optional shared base image. Reads
/// of unmapped pages return zero without allocating; writes allocate, or
/// copy the base's page. Copyable: a copy shares the base and copies the
/// overlay's own pages.
class SimMemory {
public:
  static constexpr unsigned PageShift = MemoryImage::PageShift;
  static constexpr uint64_t PageBytes = MemoryImage::PageBytes;

  SimMemory() = default;
  /// An overlay on \p Base, which it reads until it writes a page.
  explicit SimMemory(std::shared_ptr<const MemoryImage> Base)
      : Base(std::move(Base)), Own(/*SlabPages=*/1) {}
  SimMemory(const SimMemory &Other) : Base(Other.Base), Own(Other.Own) {}
  SimMemory(SimMemory &&Other) noexcept
      : Base(std::move(Other.Base)), Own(std::move(Other.Own)) {
    // The moved-from map no longer owns the cached pages; a stale write
    // through Other's cache would corrupt this object's image.
    Other.resetTranslationCache();
  }
  SimMemory &operator=(const SimMemory &Other) {
    if (this != &Other) {
      Base = Other.Base;
      Own = Other.Own;
      resetTranslationCache();
    }
    return *this;
  }
  SimMemory &operator=(SimMemory &&Other) noexcept {
    if (this != &Other) {
      Base = std::move(Other.Base);
      Own = std::move(Other.Own);
      resetTranslationCache();
      Other.resetTranslationCache();
    }
    return *this;
  }

  /// \p M's contents as an immutable image, for overlays to share.
  static std::shared_ptr<const MemoryImage> freeze(SimMemory M) {
    if (M.Base)
      M.Own.copyPagesFrom(*M.Base);
    return std::make_shared<const MemoryImage>(std::move(M.Own));
  }

  int64_t read64(uint64_t Addr) const {
    const uint8_t *P = translate(Addr);
    if (!P)
      return 0;
    int64_t V;
    std::memcpy(&V, P + (Addr & (PageBytes - 1)), sizeof(V));
    return V;
  }

  void write64(uint64_t Addr, int64_t Value) {
    uint8_t *P = translateForWrite(Addr);
    std::memcpy(P + (Addr & (PageBytes - 1)), &Value, sizeof(Value));
  }

  /// Issues a host-CPU prefetch for the backing storage of \p Addr, if it
  /// is mapped. Purely a host-latency hint: no simulated state changes, so
  /// callers can issue it speculatively for values that look like future
  /// load addresses. (Warming the translation cache is also free -- the
  /// cache is semantically invisible.)
  void prefetchHost(uint64_t Addr) const {
    const uint8_t *P = translate(Addr);
#if defined(__GNUC__) || defined(__clang__)
    if (P)
      __builtin_prefetch(P + (Addr & (PageBytes - 1)));
#else
    (void)P;
#endif
  }

  /// Number of mapped pages, the base's included (for tests).
  size_t numPages() const {
    return Base ? Base->numPages() + Own.numPagesNotIn(*Base)
                : Own.numPages();
  }

  /// The pages this memory holds itself, in ascending order: with a base,
  /// its copies of base pages and the pages it mapped on a write (for
  /// tests).
  std::vector<uint64_t> ownPages() const { return Own.pages(); }

private:
  /// Direct-mapped translation table size; a power of two. 512 entries
  /// cover 32 MB of simulated address space: the largest randomly-indexed
  /// tables the workloads allocate (8 MB, 128 pages) fit with room to
  /// spare, so the table almost never falls through to the page map. The
  /// table itself is 8 KB -- small enough to stay cache-resident.
  static constexpr size_t TlbSize = 512;

  /// What an unmapped page reads as.
  alignas(64) static inline const uint8_t ZeroPage[PageBytes] = {};

  struct TlbEntry {
    uint64_t Page = ~0ull; ///< page index; ~0 is unreachable (addr >> 16)
    const uint8_t *Data = nullptr;
  };
  static_assert(sizeof(TlbEntry) == 16);

  const uint8_t *translate(uint64_t Addr) const {
    uint64_t Page = Addr >> PageShift;
    if (Page == LastPage)
      return LastData;
    const TlbEntry &E = Tlb[Page & (TlbSize - 1)];
    if (E.Page == Page) {
      LastPage = Page;
      LastData = E.Data;
      return E.Data;
    }
    return translateSlow(Addr);
  }

  /// The table miss path, kept out of line so that every inlined copy of
  /// translate() stays the two compares above.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  const uint8_t *translateSlow(uint64_t Addr) const {
    uint64_t Page = Addr >> PageShift;
    if (const uint8_t *P = Own.find(Page)) {
      insertTranslation(Page, P, /*Owned=*/true);
      return P;
    }
    const uint8_t *P = Base ? Base->find(Page) : nullptr;
    // An unmapped page reads as the shared zero page until a write maps
    // it; not owned, so that write still maps a page of its own.
    insertTranslation(Page, P ? P : ZeroPage, /*Owned=*/false);
    return P ? P : ZeroPage;
  }

  uint8_t *translateForWrite(uint64_t Addr) {
    uint64_t Page = Addr >> PageShift;
    if (Page == LastWritePage)
      return LastWriteData;
    // An owned translation points into Own, which this object may write.
    const size_t Slot = Page & (TlbSize - 1);
    uint8_t *P = Tlb[Slot].Page == Page && TlbOwned[Slot]
                     ? const_cast<uint8_t *>(Tlb[Slot].Data)
                     : nullptr;
    if (!P) {
      P = Own.find(Page);
      if (!P) {
        P = Own.map(Page);
        if (const uint8_t *Shared = Base ? Base->find(Page) : nullptr)
          std::memcpy(P, Shared, PageBytes);
      }
      insertTranslation(Page, P, /*Owned=*/true);
    }
    LastWritePage = Page;
    LastWriteData = P;
    return P;
  }

  void insertTranslation(uint64_t Page, const uint8_t *Data,
                         bool Owned) const {
    const size_t Slot = Page & (TlbSize - 1);
    Tlb[Slot].Page = Page;
    Tlb[Slot].Data = Data;
    TlbOwned[Slot] = Owned;
    LastPage = Page;
    LastData = Data;
  }

  void resetTranslationCache() {
    for (TlbEntry &E : Tlb)
      E = TlbEntry();
    LastPage = LastWritePage = ~0ull;
    LastData = nullptr;
    LastWriteData = nullptr;
  }

  /// The shared image this memory reads through to; null for a memory a
  /// build writes.
  std::shared_ptr<const MemoryImage> Base;
  /// The pages this memory wrote; all of them when there is no base.
  MemoryImage Own;

  // Translation cache; mutable because reads warm it. Never copied: a
  // copied/moved-into memory starts cold (pointers would alias or dangle).
  mutable TlbEntry Tlb[TlbSize];
  /// Whether each entry's page is Own's, and so may be written; a reset
  /// entry matches no page, whatever its flag.
  mutable bool TlbOwned[TlbSize] = {};
  mutable uint64_t LastPage = ~0ull;
  mutable const uint8_t *LastData = nullptr;
  /// The last page written, always Own's: reads never set it, so it never
  /// holds a base page.
  uint64_t LastWritePage = ~0ull;
  uint8_t *LastWriteData = nullptr;
};

/// Sequential ("program-owned") allocator over SimMemory address space.
/// Does not touch memory; it only hands out addresses.
class BumpAllocator {
public:
  explicit BumpAllocator(uint64_t Base = 0x10000000ull) : Next(Base) {}

  /// Allocates \p Bytes with the given alignment and returns the address.
  uint64_t alloc(uint64_t Bytes, uint64_t Align = 8) {
    Next = (Next + Align - 1) & ~(Align - 1);
    uint64_t Result = Next;
    Next += Bytes;
    return Result;
  }

  /// Wastes \p Bytes of address space, emulating allocation of unrelated
  /// objects between two allocations (this is what breaks perfect strides).
  void skip(uint64_t Bytes) { Next += Bytes; }

  uint64_t next() const { return Next; }

private:
  uint64_t Next;
};

} // namespace sprof

#endif // SPROF_INTERP_SIMMEMORY_H
