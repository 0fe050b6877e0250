// The benchmark's own span recorder. Spans are taken in the benchmark's
// files around each call into a simulator layer, kept in memory, and
// written as JSONL once the run ends. A null `Tracer*` turns every span
// site into a no-op, which is how the untraced (measured) runs execute.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perf {

/// Seconds on the steady clock since the first call in this process.
double now_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int id = 0;
  int parent = -1;   ///< -1 for a root span
  std::int64_t op = -1;  ///< operation the span belongs to; -1 outside ops
};

class Tracer {
 public:
  /// Open a span as a child of the innermost open span.
  int begin(std::string name, std::int64_t op);
  void end(int id);
  /// Record a finished span measured elsewhere (the engine's recorder).
  int add(std::string name, double start, double end, int parent, std::int64_t op);
  /// The innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: duration minus the union of its children's intervals.
  std::vector<double> self_seconds() const;
  /// One JSON object per span: name, start, end, span_id, parent_id, op_id, self.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that costs nothing when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t op = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perf
