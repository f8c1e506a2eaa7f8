#include "ds/hm_list.hpp"
#include "ds/set_factory_detail.hpp"

namespace pop::ds {

namespace {
struct Maker {
  const SetConfig& cfg;
  template <class S>
  std::unique_ptr<IKV> make() const {
    return std::make_unique<detail::SetAdapter<HmList<S>>>("HML", cfg.smr);
  }
};
}  // namespace

std::unique_ptr<IKV> make_hm_list(const std::string& smr,
                                   const SetConfig& cfg) {
  return detail::dispatch_smr(smr, Maker{cfg});
}

}  // namespace pop::ds
