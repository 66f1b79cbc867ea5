// paper_figures: prints the paper's Figs 3-11 (bench/figures.h) and
// reports every printed number as a derived key fig<k>_..., which CI
// gates at quick scale against bench/baselines/.
#include "bench/common.h"
#include "bench/figures.h"
#include "bench/reporter.h"

#include "util/contract.h"

int main() {
  NP_REPORT_AFFECTING();
  namespace bench = np::bench;
  const bool quick = bench::QuickScale();
  bench::Reporter reporter("paper_figures");
  bench::Stopwatch watch;
  const auto phase = [&](const std::string& name) {
    reporter.RecordPhase(name, watch.ElapsedMs(), 0.0);
    watch.Reset();
  };
  const auto emit = [&](const bench::Figure& figure) {
    phase(figure.name);
    bench::PrintHeader(figure.name, figure.paper);
    std::cout << figure.body;
    for (const auto& [key, value] : figure.values) {
      reporter.Derive(key, value);
    }
  };

  const auto dns = bench::BuildDnsStudy(quick);
  phase("dns_study");
  emit(bench::Fig3(dns));
  emit(bench::Fig4(dns));
  emit(bench::Fig5(dns));
  const auto azureus = bench::BuildAzureusStudy(quick);
  phase("azureus_study");
  emit(bench::Fig6(azureus));
  emit(bench::Fig7(azureus));
  emit(bench::Fig8(quick));
  emit(bench::Fig9(quick));
  emit(bench::Fig10(azureus));
  emit(bench::Fig11(azureus));
  reporter.Write();
  return 0;
}
