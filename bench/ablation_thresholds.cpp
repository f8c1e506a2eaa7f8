// Design ablations of the SmrConfig knobs (README scheme table):
//  (a) retire_threshold (the paper's reclaimFreq; 24K in the main
//      experiments, 2K in Figure 4): lower = more signals per op for the
//      POP family, higher = more garbage held.
//  (b) EpochPOP's C multiplier: how aggressively the POP fallback fires.
//  (c) epoch_freq for the epoch-based schemes.
#include "cli.hpp"
#include "driver.hpp"

int main(int argc, char** argv) {
  pop::bench::apply_bench_cli(argc, argv);
  using namespace pop::bench;
  const uint64_t dur = bench_duration_ms(150);
  const int threads = static_cast<int>(bench_thread_list("4").front());

  print_table_header(
      "Ablation (a): retire_threshold sweep, HML 2K update-heavy");
  for (uint64_t thr : {32ull, 128ull, 512ull, 2048ull, 8192ull}) {
    for (const char* smr : {"HazardPtrPOP", "EpochPOP", "HP", "NBR"}) {
      WorkloadConfig cfg;
      cfg.ds = "HML";
      cfg.smr = smr;
      cfg.threads = threads;
      cfg.key_range = 2048;
      cfg.pct_insert = 50;
      cfg.pct_erase = 50;
      cfg.duration_ms = dur;
      cfg.smr_cfg.retire_threshold = thr;
      std::printf("thr=%-6llu ", static_cast<unsigned long long>(thr));
      print_row(cfg, run_workload(cfg));
    }
  }

  print_table_header(
      "Ablation (b): EpochPOP C multiplier, HMHT update-heavy with one "
      "slow epoch");
  for (uint64_t c_mult : {2ull, 4ull, 8ull}) {
    WorkloadConfig cfg;
    cfg.ds = "HMHT";
    cfg.smr = "EpochPOP";
    cfg.threads = threads;
    cfg.key_range = 16384;
    cfg.pct_insert = 50;
    cfg.pct_erase = 50;
    cfg.duration_ms = dur;
    cfg.smr_cfg.retire_threshold = 256;
    cfg.smr_cfg.pop_multiplier = c_mult;
    std::printf("C=%-8llu ", static_cast<unsigned long long>(c_mult));
    print_row(cfg, run_workload(cfg));
  }

  print_table_header("Ablation (c): epoch_freq sweep, EBR vs EpochPOP, DGT");
  for (uint64_t ef : {1ull, 16ull, 64ull, 256ull}) {
    for (const char* smr : {"EBR", "EpochPOP"}) {
      WorkloadConfig cfg;
      cfg.ds = "DGT";
      cfg.smr = smr;
      cfg.threads = threads;
      cfg.key_range = 8192;
      cfg.pct_insert = 50;
      cfg.pct_erase = 50;
      cfg.duration_ms = dur;
      cfg.smr_cfg.retire_threshold = 512;
      cfg.smr_cfg.epoch_freq = ef;
      std::printf("ef=%-7llu ", static_cast<unsigned long long>(ef));
      print_row(cfg, run_workload(cfg));
    }
  }
  return 0;
}
