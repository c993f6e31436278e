#include "pipeline/gold_artifacts.h"

#include "matching/label_attribute.h"

namespace ltee::pipeline {

matching::SchemaMapping GoldSchemaMapping(const webtable::TableCorpus& corpus,
                                          const eval::GoldStandard& gold) {
  matching::SchemaMapping mapping;
  mapping.tables.resize(corpus.size());
  for (webtable::TableId tid : gold.tables) {
    const webtable::WebTable& table = corpus.table(tid);
    matching::TableMapping& tm = mapping.tables[tid];
    tm.table = tid;
    tm.cls = gold.cls;
    tm.class_score = 1.0;
    const auto column_types = matching::DetectColumnTypes(table);
    tm.columns.resize(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      tm.columns[c].detected = column_types[c];
    }
    tm.label_column = matching::DetectLabelColumn(table, column_types);
    tm.row_instance.assign(table.num_rows(), kb::kInvalidInstance);
  }
  for (const auto& attr : gold.attributes) {
    matching::TableMapping& tm = mapping.tables[attr.table];
    tm.columns[attr.column].property = attr.property;
    tm.columns[attr.column].score = 1.0;
  }
  for (const auto& cluster : gold.clusters) {
    if (cluster.is_new || cluster.kb_instance == kb::kInvalidInstance) {
      continue;
    }
    for (const auto& row : cluster.rows) {
      auto& tm = mapping.tables[row.table];
      if (row.row < static_cast<int>(tm.row_instance.size())) {
        tm.row_instance[row.row] = cluster.kb_instance;
      }
    }
  }
  return mapping;
}

matching::SchemaMapping GoldSchemaMapping(
    const webtable::TableCorpus& corpus,
    const std::vector<eval::GoldStandard>& gold) {
  matching::SchemaMapping merged;
  merged.tables.resize(corpus.size());
  for (const auto& gs : gold) {
    matching::SchemaMapping mapping = GoldSchemaMapping(corpus, gs);
    for (size_t t = 0; t < mapping.tables.size(); ++t) {
      if (mapping.tables[t].table >= 0 && merged.tables[t].table < 0) {
        merged.tables[t] = std::move(mapping.tables[t]);
      }
    }
  }
  return merged;
}

GoldEntities GoldClusterEntities(const rowcluster::ClassRowSet& rows,
                                 const eval::GoldStandard& gold,
                                 const std::vector<int>& cluster_indices,
                                 const matching::SchemaMapping& mapping,
                                 const fusion::EntityCreator& creator,
                                 const webtable::PreparedCorpus& prepared) {
  std::vector<int> position(gold.clusters.size(), -1);
  for (size_t k = 0; k < cluster_indices.size(); ++k) {
    position[cluster_indices[k]] = static_cast<int>(k);
  }
  std::vector<int> assignment(rows.rows.size(), -1);
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    const int g = gold.ClusterOfRow(rows.rows[i].ref);
    if (g >= 0) assignment[i] = position[g];
  }
  auto created = creator.Create(rows, assignment, mapping, prepared);
  GoldEntities out;
  for (size_t k = 0; k < created.size(); ++k) {
    if (created[k].rows.empty()) continue;
    out.entities.push_back(std::move(created[k]));
    out.clusters.push_back(cluster_indices[k]);
  }
  return out;
}

matching::RowInstanceMap GoldRowInstances(const eval::GoldStandard& gold) {
  matching::RowInstanceMap out;
  for (const auto& cluster : gold.clusters) {
    if (cluster.is_new || cluster.kb_instance == kb::kInvalidInstance) {
      continue;
    }
    for (const auto& row : cluster.rows) out[row] = cluster.kb_instance;
  }
  return out;
}

matching::RowClusterMap GoldRowClusters(const eval::GoldStandard& gold,
                                        int id_offset) {
  matching::RowClusterMap out;
  for (size_t c = 0; c < gold.clusters.size(); ++c) {
    for (const auto& row : gold.clusters[c].rows) {
      out[row] = id_offset + static_cast<int>(c);
    }
  }
  return out;
}

}  // namespace ltee::pipeline
