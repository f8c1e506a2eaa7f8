// NR — no reclamation (leaky baseline).
//
// Retired nodes are counted but never freed during the run; the paper uses
// NR as the zero-overhead upper bound ("a rough baseline"). Everything is
// drained when the domain is destroyed so tests do not leak.
#pragma once

#include <atomic>

#include "smr/domain_base.hpp"

namespace pop::smr {

class NrDomain : public DomainBase<NrDomain> {
 public:
  static constexpr const char* kName = "NR";
  using DomainBase::DomainBase;

  void begin_op() { attach(); }
  void end_op() {}

  template <class T>
  T* protect(int /*slot*/, const std::atomic<T*>& src) {
    return src.load(std::memory_order_acquire);
  }
  void copy_slot(int /*dst*/, int /*src*/) {}
  void clear() {}

  void retire(Reclaimable* n) { core_.retire(runtime::my_tid(), n); }

 private:
  friend DomainBase;

  void neutralize(int /*tid*/) {}
};

}  // namespace pop::smr
