#include "ds/ab_tree.hpp"
#include "ds/set_factory_detail.hpp"

namespace pop::ds {

namespace {
struct Maker {
  const SetConfig& cfg;
  template <class S>
  std::unique_ptr<IKV> make() const {
    return std::make_unique<detail::SetAdapter<AbTree<S>>>("ABT", cfg.smr);
  }
};
}  // namespace

std::unique_ptr<IKV> make_ab_tree(const std::string& smr,
                                   const SetConfig& cfg) {
  return detail::dispatch_smr(smr, Maker{cfg});
}

}  // namespace pop::ds
