// The paper's Figs 3-11, one definition each: `paper_figures` prints
// them and tests/integration/reproduction_test.cc asserts their shapes
// at quick scale. A study family is built once and shared by its
// figures; each study inside it probes through its own fresh Tools.
#pragma once

#include <map>
#include <string>

#include "measure/azureus_study.h"
#include "measure/dns_study.h"
#include "measure/heuristic_eval.h"
#include "net/topology.h"

namespace np::bench {

struct Figure {
  std::string name;   // "bench:" line
  std::string paper;  // "paper:" line
  std::string body;   // the scalar, "row:" and "note:" lines, as printed
  int rows = 0;       // table rows in `body`
  /// Every printed number at full precision, keyed fig<k>_<metric>
  /// (scalars) or fig<k>_<row>_<column> (table cells).
  std::map<std::string, double> values;
};

/// Figs 3-5 (§3.1): the DNS-server topology and its RunDnsStudy.
struct DnsStudy {
  net::Topology topology;
  measure::DnsStudyResult result;
};
DnsStudy BuildDnsStudy(bool quick);

/// Figs 6-7 (§3.2) and 10-11 (§5): the Azureus topology, its
/// clustering study, and the traceroute path graph's close-peer sets.
struct AzureusStudy {
  net::Topology topology;
  measure::AzureusStudyResult clusters;
  measure::PathGraph graph;
  measure::CloseSets close_sets;
};
AzureusStudy BuildAzureusStudy(bool quick);

Figure Fig3(const DnsStudy& study);
Figure Fig4(const DnsStudy& study);
Figure Fig5(const DnsStudy& study);
Figure Fig6(const AzureusStudy& study);
Figure Fig7(const AzureusStudy& study);
Figure Fig8(bool quick);  // Figs 8-9 (§4) build their own worlds
Figure Fig9(bool quick);
Figure Fig10(const AzureusStudy& study);
Figure Fig11(const AzureusStudy& study);

}  // namespace np::bench
