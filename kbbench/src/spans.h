// Span recorder of the benchmark's traced run. Spans are recorded from the
// benchmark's own code, around calls into the layers' public functions,
// kept in memory and written out as JSON lines when the run ends.
#ifndef KBBENCH_SPANS_H_
#define KBBENCH_SPANS_H_

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace kbbench {

/// One recorded call: name, start and end (seconds since the tracer was
/// created), the span that caused it (-1 for a root) and the recording
/// thread's ordinal.
struct Span {
  int id = -1;
  int parent = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int thread = 0;
};

/// Thread-safe span store. A disabled tracer records nothing; its scopes
/// still measure their own duration, so callers time a call the same way
/// whether tracing is on or off.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. The parent defaults to the innermost open scope of the
  /// calling thread; work handed to another thread passes it explicitly.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    Scope(Tracer* tracer, std::string name, int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }
    /// Seconds since the scope opened.
    double Elapsed() const;

   private:
    Tracer* tracer_;
    std::string name_;
    int id_ = -1;
    int parent_ = -1;
    int previous_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  std::vector<Span> spans() const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int NextId();
  void Record(Span span);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  int next_id_ = 0;
};

}  // namespace kbbench

#endif  // KBBENCH_SPANS_H_
