#include "framework/datasets.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace imbench {
namespace {

// Per-profile shrink factors: small profiles shrink 10x, the paper's
// "large datasets" shrink harder so k=200 runs stay tractable.
struct ScaleFactors {
  double bench;
  double tiny;
};

ScaleFactors FactorsFor(const DatasetProfile& profile) {
  // Aim for <= ~14K nodes / ~420K arcs at bench scale, shrinking at least
  // 10x; tiny is a further 6x for unit tests.
  const double by_nodes = static_cast<double>(profile.paper_nodes) / 14000.0;
  const double by_edges = static_cast<double>(profile.paper_edges) / 420000.0;
  const double bench = std::max({10.0, by_nodes, by_edges});
  return ScaleFactors{bench, bench * 6.0};
}

double FactorAt(const DatasetProfile& profile, DatasetScale scale) {
  switch (scale) {
    case DatasetScale::kPaper:
      return 1.0;
    case DatasetScale::kBench:
      return FactorsFor(profile).bench;
    case DatasetScale::kTiny:
      return FactorsFor(profile).tiny;
  }
  return 1.0;
}

}  // namespace

DatasetScale ParseDatasetScale(const std::string& name) {
  if (name == "tiny") return DatasetScale::kTiny;
  if (name == "bench") return DatasetScale::kBench;
  if (name == "paper") return DatasetScale::kPaper;
  IMBENCH_CHECK_MSG(false, "unknown scale '%s' (tiny|bench|paper)",
                    name.c_str());
  return DatasetScale::kBench;
}

const char* DatasetScaleName(DatasetScale scale) {
  switch (scale) {
    case DatasetScale::kTiny:
      return "tiny";
    case DatasetScale::kBench:
      return "bench";
    case DatasetScale::kPaper:
      return "paper";
  }
  return "?";
}

NodeId DatasetProfile::NodesAt(DatasetScale scale) const {
  const double f = FactorAt(*this, scale);
  return static_cast<NodeId>(
      std::max<uint64_t>(64, static_cast<uint64_t>(paper_nodes / f)));
}

uint64_t DatasetProfile::EdgesAt(DatasetScale scale) const {
  const double f = FactorAt(*this, scale);
  return std::max<uint64_t>(128, static_cast<uint64_t>(paper_edges / f));
}

const std::vector<DatasetProfile>& DatasetCatalog() {
  static const std::vector<DatasetProfile>& catalog =
      *new std::vector<DatasetProfile>{
          // name, n, m, directed, avg degree, 90% diameter, large
          {"nethept", 15'000, 31'000, false, 2.06, 8.8, false},
          {"hepph", 12'000, 118'000, false, 9.83, 5.8, false},
          {"dblp", 317'000, 1'050'000, false, 3.31, 8.0, false},
          {"youtube", 1'130'000, 2'990'000, false, 2.65, 6.5, false},
          {"livejournal", 4'850'000, 69'000'000, true, 14.23, 6.5, true},
          {"orkut", 3'070'000, 117'100'000, false, 38.14, 4.8, true},
          {"twitter", 41'600'000, 1'500'000'000, true, 36.06, 5.1, true},
          {"friendster", 65'600'000, 1'800'000'000, false, 27.69, 5.8, true},
      };
  return catalog;
}

const DatasetProfile* FindDataset(const std::string& name) {
  for (const DatasetProfile& profile : DatasetCatalog()) {
    if (profile.name == name) return &profile;
  }
  return nullptr;
}

Graph MakeDataset(const DatasetProfile& profile, DatasetScale scale,
                  uint64_t seed) {
  const NodeId n = profile.NodesAt(scale);
  const uint64_t m = profile.EdgesAt(scale);
  Rng rng = Rng::ForStream(seed, std::hash<std::string>{}(profile.name));
  EdgeList list = Rmat(n, m, RmatParams{}, rng);
  GraphOptions options;
  options.make_bidirectional = !profile.directed;
  return Graph::FromArcs(list.num_nodes, std::move(list.arcs), options);
}

Graph MakeDataset(const std::string& name, DatasetScale scale,
                  uint64_t seed) {
  const DatasetProfile* profile = FindDataset(name);
  IMBENCH_CHECK_MSG(profile != nullptr, "unknown dataset '%s'", name.c_str());
  return MakeDataset(*profile, scale, seed);
}

void AssignSeededWeights(Graph& graph, WeightModel model, double p,
                         uint64_t seed) {
  Rng rng(WeightSeed(seed));
  AssignWeights(graph, model, p, rng);
}

uint64_t WeightSeed(uint64_t seed) { return Rng::StreamSeed(seed, 0x8e1); }

Graph MakeWeightedDataset(const std::string& name, DatasetScale scale,
                          WeightModel model, double p, uint64_t seed) {
  Graph graph = MakeDataset(name, scale, seed);
  AssignSeededWeights(graph, model, p, seed);
  return graph;
}

}  // namespace imbench
