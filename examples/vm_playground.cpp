// vm_playground: a tour of the simulated VM subsystem (§5) — watch VMAs split, merge
// and boundary-move, and see the speculative mprotect path in action.
//
// Build & run:  ./build/examples/vm_playground
#include <iostream>
#include <thread>

#include "src/metis/arena_allocator.h"
#include "src/vm/address_space.h"

namespace {

void Dump(srl::vm::AddressSpace& as, const char* label) {
  std::cout << label << ":\n";
  for (const auto& v : as.SnapshotVmas()) {
    std::cout << "  [" << std::hex << v.start << ", " << v.end << std::dec << ")  "
              << ((v.prot & srl::vm::kProtRead) ? "r" : "-")
              << ((v.prot & srl::vm::kProtWrite) ? "w" : "-")
              << ((v.prot & srl::vm::kProtExec) ? "x" : "-") << "\n";
  }
}

}  // namespace

int main() {
  using namespace srl::vm;
  constexpr uint64_t kPage = AddressSpace::kPageSize;

  // The refined variant: speculative mprotect + page-granular fault locking.
  AddressSpace as(VmVariant::kListRefined);

  // mmap an 8-page region and carve it up.
  const uint64_t base = as.Mmap(8 * kPage, kProtNone);
  Dump(as, "after mmap(8 pages, PROT_NONE)");

  as.Mprotect(base, 2 * kPage, kProtRead | kProtWrite);
  Dump(as, "after mprotect(first 2 pages, RW)  — structural split, full-range lock");

  as.Mprotect(base + 2 * kPage, 2 * kPage, kProtRead | kProtWrite);
  Dump(as, "after mprotect(next 2 pages, RW)   — Figure 2 boundary move, SPECULATIVE");

  as.Mprotect(base + 2 * kPage, 2 * kPage, kProtNone);
  Dump(as, "after shrinking back               — tail boundary move, SPECULATIVE");

  std::cout << "\npage faults: touching committed memory succeeds, PROT_NONE faults:\n";
  std::cout << "  write to page 0: " << (as.PageFault(base, true) ? "ok" : "SIGSEGV")
            << "\n";
  std::cout << "  write to page 5: " << (as.PageFault(base + 5 * kPage, true) ? "ok" : "SIGSEGV")
            << "\n";

  // The fault path is trylock-first (mmap_read_trylock in the kernel): uncontended
  // faults get in without ever preparing to block. Demonstrate the fallback by faulting
  // while another thread holds the full-range write lock, as an mmap would.
  std::cout << "\ntrylock-first faulting: a full-range writer forces the fault path "
               "onto the blocking fallback:\n";
  {
    void* wh = as.Lock().LockFullWrite();
    std::thread faulter([&] { as.PageFault(base, false); });
    // Give the faulter a moment to hit the trylock and fail it.
    while (as.Stats().fault_try_fallback.load() == 0) {
      std::this_thread::yield();
    }
    as.Lock().Unlock(wh);  // the blocked fault now admits
    faulter.join();
  }
  std::cout << "  faults admitted without blocking: " << as.Stats().fault_try_ok.load()
            << "\n  faults that fell back to blocking: "
            << as.Stats().fault_try_fallback.load() << "\n";

  // The glibc-arena pattern at a larger scale, via the allocator simulation.
  std::cout << "\nrunning a glibc-style arena through 2000 allocations...\n";
  {
    srl::metis::ArenaAllocator arena(as, /*arena_pages=*/512, /*grow_chunk_pages=*/4);
    for (int i = 0; i < 2000; ++i) {
      arena.Alloc(700);
      if (i % 500 == 499) {
        arena.Reset();  // trim: shrink mprotect + MADV_DONTNEED
      }
    }
  }

  const VmStats& st = as.Stats();
  std::cout << "VM operation counts:\n"
            << "  mmaps:           " << st.mmaps.load() << "\n"
            << "  mprotects:       " << st.mprotects.load() << "\n"
            << "  page faults:     " << st.Faults() << " (" << st.MajorFaults()
            << " major)\n"
            << "  speculative ok:  " << st.spec_success.load() << "\n"
            << "  spec fallbacks:  " << st.spec_fallback.load() << "\n"
            << "  spec retries:    " << st.spec_retries.load() << "\n"
            << "  speculation rate: " << st.SpeculationSuccessRate() * 100.0 << "%  "
            << "(the paper reports >99% for this pattern)\n";
  return as.CheckInvariants() ? 0 : 1;
}
