#include "spans.h"

#include <cstdio>
#include <fstream>

#include "util/json.h"
#include "util/trace.h"

namespace kbbench {

namespace {

thread_local int t_current_span = -1;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans()) {
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_s\":%.9f,\"end_s\":%.9f",
                  span.start_s, span.end_s);
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":" << ltee::util::JsonQuote(span.name) << ","
        << times << ",\"thread\":" << span.thread << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer::Scope::Scope(Tracer* tracer, std::string name)
    : Scope(tracer, std::move(name), t_current_span) {}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int parent)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      start_(std::chrono::steady_clock::now()) {
  if (tracer_->enabled()) {
    id_ = tracer_->NextId();
    previous_ = t_current_span;
    t_current_span = id_;
  }
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled()) return;
  const auto end = std::chrono::steady_clock::now();
  t_current_span = previous_;
  using Seconds = std::chrono::duration<double>;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.name = std::move(name_);
  span.start_s = Seconds(start_ - tracer_->origin_).count();
  span.end_s = Seconds(end - tracer_->origin_).count();
  span.thread = static_cast<int>(ltee::util::trace::CurrentThreadId());
  tracer_->Record(std::move(span));
}

double Tracer::Scope::Elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace kbbench
