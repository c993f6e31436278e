// Domain example: why settlements are hard to extend (the paper's Section
// 5 analysis). Wikipedia already covers almost every legally recognized
// settlement, so few new entities exist, and the dominant error source is
// conflicting values — outdated population numbers and alternate isPartOf
// assignments that prevent an entity from matching its KB instance. This
// example runs new detection over gold-cluster entities of the Settlement
// class and audits the disagreements between fused facts and KB facts.

#include <cstdio>

#include "fusion/entity_creator.h"
#include "newdetect/new_detector.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "types/type_similarity.h"
#include "synth/dataset.h"

int main() {
  using namespace ltee;

  synth::DatasetOptions data_options;
  data_options.scale = 0.004;
  data_options.seed = 909;
  auto dataset = synth::BuildDataset(data_options);

  const eval::GoldStandard* gold = nullptr;
  for (const auto& gs : dataset.gold) {
    if (dataset.kb.cls(gs.cls).name == "Settlement") gold = &gs;
  }
  if (gold == nullptr) return 1;

  auto dict = std::make_shared<util::TokenDictionary>();
  auto kb_index = pipeline::BuildKbLabelIndex(dataset.kb, dict);
  webtable::PreparedCorpus prepared(dataset.gs_corpus, dict);
  auto mapping = pipeline::GoldSchemaMapping(dataset.gs_corpus, dataset.gold);
  auto rows = rowcluster::BuildClassRowSet(prepared, mapping,
                                           gold->cls, dataset.kb, kb_index);
  std::vector<int> assignment(rows.rows.size(), -1);
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    assignment[i] = gold->ClusterOfRow(rows.rows[i].ref);
  }
  fusion::EntityCreator creator(dataset.kb);
  auto entities = creator.Create(rows, assignment, mapping, prepared);

  // Train new detection on all gold clusters, then audit.
  std::vector<fusion::CreatedEntity> train;
  std::vector<newdetect::DetectionLabel> labels;
  std::vector<const eval::GsCluster*> clusters;
  for (size_t k = 0; k < entities.size() && k < gold->clusters.size(); ++k) {
    if (entities[k].rows.empty()) continue;
    clusters.push_back(&gold->clusters[k]);
    labels.push_back({gold->clusters[k].is_new,
                      gold->clusters[k].kb_instance});
    train.push_back(std::move(entities[k]));
  }
  newdetect::NewDetector detector(dataset.kb, kb_index);
  util::Rng rng(3);
  detector.Train(train, labels, rng);
  auto detections = detector.Detect(train);

  size_t correct = 0, conflict_errors = 0, other_errors = 0;
  const types::TypeSimilarityOptions sim;
  std::printf("Settlement new-detection audit (%zu entities):\n\n",
              train.size());
  for (size_t e = 0; e < train.size(); ++e) {
    const bool ok = detections[e].is_new == labels[e].is_new &&
                    (labels[e].is_new ||
                     detections[e].instance == labels[e].instance);
    if (ok) {
      ++correct;
      continue;
    }
    // Audit: does the entity disagree with its true KB instance's facts?
    size_t conflicts = 0, overlaps = 0;
    if (!labels[e].is_new) {
      for (const auto& fact : train[e].facts) {
        const types::Value* kb_fact =
            dataset.kb.FactOf(labels[e].instance, fact.property);
        if (kb_fact == nullptr) continue;
        ++overlaps;
        if (!types::ValuesEqual(fact.value, *kb_fact, sim)) ++conflicts;
      }
    }
    const bool conflicting = overlaps > 0 && 2 * conflicts >= overlaps;
    (conflicting ? conflict_errors : other_errors) += 1;
    if (conflict_errors + other_errors <= 5 && !labels[e].is_new) {
      std::printf("  missed match: \"%s\" (%zu/%zu overlapping facts "
                  "conflict with the KB)\n",
                  train[e].labels.empty() ? "?" : train[e].labels[0].c_str(),
                  conflicts, overlaps);
      for (const auto& fact : train[e].facts) {
        const types::Value* kb_fact =
            dataset.kb.FactOf(labels[e].instance, fact.property);
        if (kb_fact == nullptr ||
            types::ValuesEqual(fact.value, *kb_fact, sim)) {
          continue;
        }
        std::printf("    %-16s table says %-14s KB says %s\n",
                    dataset.kb.property(fact.property).name.c_str(),
                    fact.value.ToString().c_str(),
                    kb_fact->ToString().c_str());
      }
    }
  }
  std::printf("\naccuracy: %.2f (%zu/%zu)\n",
              static_cast<double>(correct) / train.size(), correct,
              train.size());
  std::printf("errors dominated by conflicting values: %zu of %zu "
              "(paper: 36%% of settlement errors)\n",
              conflict_errors, conflict_errors + other_errors);
  return 0;
}
