#include "ds/resizable_hash_table.hpp"
#include "ds/set_factory_detail.hpp"

namespace pop::ds {

namespace {
struct Maker {
  const SetConfig& cfg;
  template <class S>
  std::unique_ptr<IKV> make() const {
    return std::make_unique<detail::SetAdapter<ResizableHashTable<S>>>(
        "RHHT", cfg.capacity, cfg.load_factor, cfg.smr);
  }
};
}  // namespace

std::unique_ptr<IKV> make_resizable_hash_table(const std::string& smr,
                                                const SetConfig& cfg) {
  return detail::dispatch_smr(smr, Maker{cfg});
}

}  // namespace pop::ds
