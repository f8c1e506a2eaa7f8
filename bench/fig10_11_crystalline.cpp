// Appendix Figures 10-11: HML (2K) and HMHT, update-heavy and read-heavy,
// comparing the POP algorithms against the Crystalline family.
//
// Substitution (README, under the scheme table): Crystalline itself is
// replaced by BRC, a batched reference-counting scheme with the same
// reader profile (no per-read work, one announcement per op, batch frees
// after grace periods). The comparison of interest — POP vs a fast
// low-memory non-reservation scheme — is preserved.
#include "cli.hpp"
#include "driver.hpp"

int main(int argc, char** argv) {
  pop::bench::apply_bench_cli(argc, argv);
  using namespace pop::bench;
  struct DsCase {
    const char* ds;
    uint64_t range;
    const char* fig;
  };
  const DsCase cases[] = {{"HML", 2048, "Figure 10"},
                          {"HMHT", 16384, "Figure 11"}};
  struct Mix {
    const char* name;
    uint32_t ins, del;
  };
  const Mix mixes[] = {{"update-heavy 50i/50d", 50, 50},
                       {"read-heavy 5i/5d/90c", 5, 5}};
  const char* smrs[] = {"NR",           "BRC",          "EBR",
                        "HazardPtrPOP", "HazardEraPOP", "EpochPOP"};
  const auto threads = bench_thread_list("1,2,4");
  const uint64_t dur = bench_duration_ms(200);

  for (const auto& c : cases) {
    for (const auto& m : mixes) {
      print_table_header(std::string(c.fig) + ": " + c.ds + ", " + m.name +
                         " — POP vs BRC (Crystalline substitute)");
      for (int t : threads) {
        for (const char* smr : smrs) {
          WorkloadConfig cfg;
          cfg.ds = c.ds;
          cfg.smr = smr;
          cfg.threads = t;
          cfg.key_range = c.range;
          cfg.pct_insert = m.ins;
          cfg.pct_erase = m.del;
          cfg.duration_ms = dur;
          cfg.smr_cfg.retire_threshold = 512;
          print_row(cfg, run_workload(cfg));
        }
      }
    }
  }
  return 0;
}
