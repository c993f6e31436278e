// Domain example: the homonym problem for songs (the paper's hardest
// class). Two different songs frequently share a title — sometimes even
// similar descriptions (cover versions). This example trains the row
// clusterer on the Song gold standard and inspects how rows of homonym
// groups are split into clusters, comparing label-only clustering against
// the full six-metric aggregation.

#include <cstdio>
#include <map>
#include <set>

#include "eval/clustering_eval.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "rowcluster/row_clusterer.h"
#include "synth/dataset.h"

int main() {
  using namespace ltee;

  synth::DatasetOptions data_options;
  data_options.scale = 0.004;
  data_options.seed = 77;
  auto dataset = synth::BuildDataset(data_options);

  // Locate the Song gold standard.
  const eval::GoldStandard* song_gold = nullptr;
  for (const auto& gs : dataset.gold) {
    if (dataset.kb.cls(gs.cls).name == "Song") song_gold = &gs;
  }
  if (song_gold == nullptr) {
    std::fprintf(stderr, "no Song gold standard\n");
    return 1;
  }

  // Gold schema mapping + row features for the Song class.
  auto dict = std::make_shared<util::TokenDictionary>();
  auto kb_index = pipeline::BuildKbLabelIndex(dataset.kb, dict);
  webtable::PreparedCorpus prepared(dataset.gs_corpus, dict);
  auto mapping = pipeline::GoldSchemaMapping(dataset.gs_corpus, dataset.gold);
  auto rows = rowcluster::BuildClassRowSet(prepared, mapping,
                                           song_gold->cls, dataset.kb,
                                           kb_index);
  std::vector<int> gold_assignment(rows.rows.size(), -1);
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    gold_assignment[i] = song_gold->ClusterOfRow(rows.rows[i].ref);
  }

  // Train and run two clusterers: LABEL-only vs all six metrics.
  util::Rng rng(5);
  auto evaluate = [&](int num_metrics) {
    rowcluster::RowClustererOptions options;
    options.enabled_metrics = rowcluster::FirstKMetrics(num_metrics);
    rowcluster::RowClusterer clusterer(options);
    clusterer.Train(rows, gold_assignment, rng);
    auto result = clusterer.Cluster(rows);
    std::vector<webtable::RowRef> refs;
    for (const auto& row : rows.rows) refs.push_back(row.ref);
    auto grouped = eval::GroupRows(refs, result.cluster_of);
    auto metrics = eval::EvaluateClustering(grouped, *song_gold);
    std::printf("  %-28s clusters=%-4d PCP=%.2f AR=%.2f F1=%.2f\n",
                num_metrics == 1 ? "LABEL only" : "all six metrics",
                result.num_clusters, metrics.penalized_precision,
                metrics.average_recall, metrics.f1);
    return result;
  };

  std::printf("Song row clustering (%zu rows, %zu gold clusters):\n",
              rows.rows.size(), song_gold->clusters.size());
  auto label_only = evaluate(1);
  auto full = evaluate(6);

  // Inspect one homonym group: same title, different songs.
  std::map<int64_t, std::vector<size_t>> homonym_clusters;
  for (size_t c = 0; c < song_gold->clusters.size(); ++c) {
    if (song_gold->clusters[c].homonym_group >= 0) {
      homonym_clusters[song_gold->clusters[c].homonym_group].push_back(c);
    }
  }
  for (const auto& [group, clusters] : homonym_clusters) {
    if (clusters.size() < 2) continue;
    const auto& world_entity =
        dataset.world.entity(song_gold->clusters[clusters[0]].world_entity);
    std::printf("\nhomonym group \"%s\" (%zu distinct songs):\n",
                world_entity.label.c_str(), clusters.size());
    for (size_t c : clusters) {
      const auto& cluster = song_gold->clusters[c];
      std::printf("  gold cluster %zu (%s): ", c,
                  cluster.is_new ? "new" : "existing");
      std::set<int> label_ids, full_ids;
      for (const auto& ref : cluster.rows) {
        for (size_t i = 0; i < rows.rows.size(); ++i) {
          if (rows.rows[i].ref == ref) {
            label_ids.insert(label_only.cluster_of[i]);
            full_ids.insert(full.cluster_of[i]);
          }
        }
      }
      std::printf("%zu rows -> %zu cluster(s) with LABEL only, %zu with all "
                  "metrics\n",
                  cluster.rows.size(), label_ids.size(), full_ids.size());
    }
    break;  // one example group suffices
  }
  return 0;
}
