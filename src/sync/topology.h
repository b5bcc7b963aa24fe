// The machine's core count, the one topology fact this tree uses: the admission
// gate's default cap, the default stripe count of scoped address spaces, and the
// epoch layer's derived batch sizes and watchdog threshold all scale with it.
//
// Computed once per process. glibc answers hardware_concurrency() by reading sysfs
// (microseconds per call), and every gated lock reads the count at construction, so
// an uncached count would put a sysfs read on every lock set-up.
#ifndef SRL_SYNC_TOPOLOGY_H_
#define SRL_SYNC_TOPOLOGY_H_

#include <thread>

namespace srl {

// Online CPUs as hardware_concurrency() reports them, or 1 when it cannot say.
inline unsigned CpuCount() {
  static const unsigned n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }();
  return n;
}

}  // namespace srl

#endif  // SRL_SYNC_TOPOLOGY_H_
