#ifndef LTEE_PIPELINE_GOLD_ARTIFACTS_H_
#define LTEE_PIPELINE_GOLD_ARTIFACTS_H_

#include <vector>

#include "eval/gold_standard.h"
#include "fusion/entity_creator.h"
#include "matching/schema_mapping.h"
#include "rowcluster/row_features.h"
#include "webtable/prepared_corpus.h"
#include "webtable/web_table.h"

namespace ltee::pipeline {

/// Gold-truth schema mapping for the tables of one gold standard: the
/// class is the gold class, column-to-property correspondences come from
/// the annotations (score 1.0), the label column from label-attribute
/// detection, and row-instance matches from the existing clusters.
/// The result is sized to `corpus` with non-gold tables left unmapped.
matching::SchemaMapping GoldSchemaMapping(const webtable::TableCorpus& corpus,
                                          const eval::GoldStandard& gold);

/// The gold schema mappings of every class merged into one; a table mapped
/// by several classes keeps the first class's entry.
matching::SchemaMapping GoldSchemaMapping(
    const webtable::TableCorpus& corpus,
    const std::vector<eval::GoldStandard>& gold);

/// Entities of the gold clusters `cluster_indices` of `gold`, each created
/// from the rows of `rows` annotated with it. Clusters without rows in
/// `rows` are dropped; `clusters[k]` is the gold cluster of `entities[k]`.
struct GoldEntities {
  std::vector<fusion::CreatedEntity> entities;
  std::vector<int> clusters;
};
GoldEntities GoldClusterEntities(const rowcluster::ClassRowSet& rows,
                                 const eval::GoldStandard& gold,
                                 const std::vector<int>& cluster_indices,
                                 const matching::SchemaMapping& mapping,
                                 const fusion::EntityCreator& creator,
                                 const webtable::PreparedCorpus& prepared);

/// Row -> instance correspondences implied by the existing gold clusters.
matching::RowInstanceMap GoldRowInstances(const eval::GoldStandard& gold);

/// Row -> cluster ids implied by the gold clusters, offset by `id_offset`
/// (so that several classes' clusters stay disjoint).
matching::RowClusterMap GoldRowClusters(const eval::GoldStandard& gold,
                                        int id_offset = 0);

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_GOLD_ARTIFACTS_H_
