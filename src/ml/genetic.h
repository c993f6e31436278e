#ifndef LTEE_ML_GENETIC_H_
#define LTEE_ML_GENETIC_H_

#include <functional>
#include <vector>

#include "util/random.h"
#include "util/thread_pool.h"

namespace ltee::ml {

/// Options for the real-coded genetic optimizer used to learn metric
/// weights and thresholds (Section 3.2, "we utilize a genetic algorithm
/// that attempts to maximize the matching performance on the learning
/// set").
struct GeneticOptions {
  int population_size = 32;
  int generations = 36;
  int tournament_size = 3;
  double crossover_rate = 0.9;
  double mutation_rate = 0.15;
  double mutation_sigma = 0.12;
  int elitism = 2;
};

/// Maximizes `fitness` over vectors in [0,1]^dim with tournament selection,
/// blend (BLX-alpha) crossover and Gaussian mutation. Returns the best
/// genome found.
///
/// Each generation's population is scored with util::ParallelFor on `pool`
/// (inline when null), so `fitness` must be safe to call concurrently.
/// Selection, crossover and mutation draw from `rng` serially, so the
/// result is the same for any pool size.
std::vector<double> GeneticMaximize(
    size_t dim, const std::function<double(const std::vector<double>&)>& fitness,
    util::Rng& rng, const GeneticOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace ltee::ml

#endif  // LTEE_ML_GENETIC_H_
