// Synthetic dataset catalog mirroring Table 1.
//
// The paper's crawls are not redistributable; each profile records the
// published statistics and generates an R-MAT graph whose node count, arc
// count and directedness match at the selected scale. `kPaper` reproduces
// the published sizes (hours of generation and GBs of RAM for the largest
// four); `kBench` (default) shrinks each profile so that every harness
// finishes on a small machine while preserving the degree-distribution
// shape, which is what drives the behaviors the study measures; `kTiny` is
// for unit tests.
#ifndef IMBENCH_FRAMEWORK_DATASETS_H_
#define IMBENCH_FRAMEWORK_DATASETS_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/weights.h"

namespace imbench {

enum class DatasetScale { kTiny, kBench, kPaper };

DatasetScale ParseDatasetScale(const std::string& name);  // aborts if bad
const char* DatasetScaleName(DatasetScale scale);

struct DatasetProfile {
  std::string name;        // lower-case key: "nethept", "hepph", ...
  uint64_t paper_nodes;    // Table 1 "n"
  uint64_t paper_edges;    // Table 1 "m"
  bool directed;           // Table 1 "Type"
  double paper_avg_degree; // Table 1 "Avg. Degree"
  double paper_diameter;   // Table 1 "90-%ile Diameter"
  bool large;              // one of the four "large datasets" (Sec. 5.5)

  // Sizes after scaling.
  NodeId NodesAt(DatasetScale scale) const;
  uint64_t EdgesAt(DatasetScale scale) const;
};

// The eight profiles of Table 1, in the paper's order.
const std::vector<DatasetProfile>& DatasetCatalog();

const DatasetProfile* FindDataset(const std::string& name);

// Generates the profile's graph at the given scale. Undirected profiles
// are made bidirectional exactly as the study does (Sec. 5). Topology
// only: assign weights with graph/weights.h. Deterministic in `seed`.
Graph MakeDataset(const DatasetProfile& profile, DatasetScale scale,
                  uint64_t seed = 7);
Graph MakeDataset(const std::string& name, DatasetScale scale,
                  uint64_t seed = 7);  // aborts on unknown name

// The one weighting rule (`p` applies to kIcConstant only): every driver
// weights with it, so each sees one graph for the same inputs. Random
// weights draw from Rng(WeightSeed(seed)), which dataset_gen also hands the
// .imgrf writer.
void AssignSeededWeights(Graph& graph, WeightModel model, double p,
                         uint64_t seed);
uint64_t WeightSeed(uint64_t seed);
// MakeDataset, then AssignSeededWeights with the same seed.
Graph MakeWeightedDataset(const std::string& name, DatasetScale scale,
                          WeightModel model, double p, uint64_t seed);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_DATASETS_H_
