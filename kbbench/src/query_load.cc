#include "query_load.h"

#include <sched.h>

#include <chrono>

#include "util/json_parse.h"
#include "util/random.h"
#include "util/string_util.h"

namespace kbbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSearchK = 10;
constexpr size_t kMaxFailureNotes = 5;
/// Samples reserved up front, so growing the sample vectors rarely lands
/// in the middle of the schedule.
constexpr size_t kReserve = 1 << 16;

bool HasLabel(const ltee::util::JsonValue& entity, const std::string& want) {
  const ltee::util::JsonValue* labels = entity.Find("labels");
  if (labels == nullptr || !labels->is_array()) return false;
  for (const auto& label : labels->items()) {
    if (label.is_string() && ltee::util::NormalizeLabel(label.as_string()) ==
                                 want) {
      return true;
    }
  }
  return false;
}

/// Checks one answer; returns an empty string when it is valid.
/// kind: 0 = id lookup of `id`, 1 = label lookup of `text`, 2 = search.
std::string CheckAnswer(int kind, int64_t id, const std::string& text,
                        const ltee::serve::QueryResult& result) {
  if (result.status != 200) {
    return "status " + std::to_string(result.status);
  }
  ltee::util::JsonValue doc;
  std::string error;
  if (!ltee::util::ParseJson(result.body, &doc, &error)) {
    return "unparsable answer: " + error;
  }
  if (kind == 0) {
    const ltee::util::JsonValue* entity = doc.Find("entity");
    if (entity == nullptr || entity->NumberOr("id", -1.0) !=
                                 static_cast<double>(id)) {
      return "id lookup " + std::to_string(id) + " returned another entity";
    }
    return "";
  }
  if (kind == 1) {
    const ltee::util::JsonValue* entities = doc.Find("entities");
    if (entities == nullptr || !entities->is_array() ||
        entities->items().empty()) {
      return "label lookup '" + text + "' returned nothing";
    }
    const std::string want = ltee::util::NormalizeLabel(text);
    for (const auto& entity : entities->items()) {
      if (!HasLabel(entity, want)) {
        return "label lookup '" + text + "' returned another label";
      }
    }
    return "";
  }
  const ltee::util::JsonValue* hits = doc.Find("hits");
  if (hits == nullptr || !hits->is_array() || hits->items().empty() ||
      hits->items().size() > kSearchK) {
    return "search '" + text + "' returned a bad hit list";
  }
  return "";
}

}  // namespace

QueryLoad::QueryLoad(ltee::serve::QueryEngine* engine, QueryPool pool,
                     double rate, uint64_t seed, int cpu)
    : engine_(engine),
      pool_(std::move(pool)),
      rate_(rate),
      seed_(seed),
      cpu_(cpu) {}

QueryLoad::~QueryLoad() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void QueryLoad::Start() { thread_ = std::thread([this] { Loop(); }); }

QueryLoadResult QueryLoad::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return std::move(result_);
}

void QueryLoad::Loop() {
  if (cpu_ >= 0) {
    cpu_set_t only;
    CPU_ZERO(&only);
    CPU_SET(cpu_, &only);
    sched_setaffinity(0, sizeof(only), &only);
  }
  ltee::util::Rng rng(seed_);
  result_.latency_us.reserve(kReserve);
  result_.late_ms.reserve(kReserve);
  const Clock::time_point origin = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / rate_);
  for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    const Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(period * i);
    // Spin, not sleep: a wake-up would add scheduler latency to the
    // schedule, and the CPU is the generator's alone.
    Clock::time_point start = Clock::now();
    while (start < due) start = Clock::now();
    result_.late_ms.push_back(
        std::chrono::duration<double, std::milli>(start - due).count());

    const uint64_t pick = rng.NextBounded(10);
    const int kind = pick < 6 ? 0 : (pick < 9 ? 1 : 2);
    int64_t id = -1;
    std::string text;
    ltee::serve::QueryResult answer;
    if (kind == 0) {
      id = pool_.ids[rng.NextBounded(pool_.ids.size())];
      answer = engine_->EntityById(id);
    } else {
      text = pool_.labels[rng.NextBounded(pool_.labels.size())];
      answer = kind == 1 ? engine_->EntityByLabel(text)
                         : engine_->Search(text, kSearchK);
    }
    const Clock::time_point end = Clock::now();
    result_.latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    ++result_.attempted;
    std::string failure = CheckAnswer(kind, id, text, answer);
    if (!failure.empty()) {
      ++result_.failed;
      if (result_.failures.size() < kMaxFailureNotes) {
        result_.failures.push_back(std::move(failure));
      }
    }
  }
}

}  // namespace kbbench
