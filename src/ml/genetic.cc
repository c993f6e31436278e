#include "ml/genetic.h"

#include <algorithm>

namespace ltee::ml {

namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

}  // namespace

std::vector<double> GeneticMaximize(
    size_t dim,
    const std::function<double(const std::vector<double>&)>& fitness,
    util::Rng& rng, const GeneticOptions& options, util::ThreadPool* pool) {
  const int pop_size = options.population_size;
  std::vector<std::vector<double>> population(pop_size);
  std::vector<double> scores(pop_size);
  for (auto& genome : population) {
    genome.resize(dim);
    for (auto& g : genome) g = rng.NextDouble();
  }
  auto score_population = [&] {
    util::ParallelFor(pool, population.size(),
                      [&](size_t i) { scores[i] = fitness(population[i]); });
  };
  score_population();

  auto tournament = [&]() -> int {
    int best = static_cast<int>(rng.NextBounded(pop_size));
    for (int t = 1; t < options.tournament_size; ++t) {
      int cand = static_cast<int>(rng.NextBounded(pop_size));
      if (scores[cand] > scores[best]) best = cand;
    }
    return best;
  };

  for (int gen = 0; gen < options.generations; ++gen) {
    // Elitism: carry the best genomes over unchanged.
    std::vector<int> order(pop_size);
    for (int i = 0; i < pop_size; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return scores[a] > scores[b]; });

    std::vector<std::vector<double>> next;
    next.reserve(pop_size);
    for (int e = 0; e < options.elitism && e < pop_size; ++e) {
      next.push_back(population[order[e]]);
    }
    while (static_cast<int>(next.size()) < pop_size) {
      const auto& a = population[tournament()];
      const auto& b = population[tournament()];
      std::vector<double> child(dim);
      if (rng.NextBool(options.crossover_rate)) {
        // BLX-alpha blend crossover.
        constexpr double kAlpha = 0.3;
        for (size_t d = 0; d < dim; ++d) {
          double lo = std::min(a[d], b[d]), hi = std::max(a[d], b[d]);
          double span = hi - lo;
          double sample_lo = lo - kAlpha * span, sample_hi = hi + kAlpha * span;
          child[d] = Clamp01(sample_lo +
                             rng.NextDouble() * (sample_hi - sample_lo));
        }
      } else {
        child = a;
      }
      for (size_t d = 0; d < dim; ++d) {
        if (rng.NextBool(options.mutation_rate)) {
          child[d] = Clamp01(child[d] +
                             rng.NextGaussian() * options.mutation_sigma);
        }
      }
      next.push_back(std::move(child));
    }
    population = std::move(next);
    score_population();
  }

  int best = 0;
  for (int i = 1; i < pop_size; ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return population[best];
}

}  // namespace ltee::ml
