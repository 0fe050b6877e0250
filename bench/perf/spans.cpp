#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace perf {

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

int Tracer::begin(std::string name, std::int64_t op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_seconds(), 0.0, id, current(), op});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_seconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, double start, double end, int parent, std::int64_t op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), start, end, id, parent, op});
  return id;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    auto& kids = children[static_cast<std::size_t>(span.id)];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent: children of
    // a parallel section overlap, and must not be subtracted twice.
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[static_cast<std::size_t>(span.id)] = (span.end - span.start) - covered;
  }
  return self;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const std::vector<double> self = self_seconds();
  for (const Span& span : spans_) {
    scc::obs::Json line = scc::obs::Json::object();
    line.set("name", span.name);
    line.set("start", span.start);
    line.set("end", span.end);
    line.set("span_id", span.id);
    line.set("parent_id", span.parent);
    line.set("op_id", span.op);
    line.set("self", self[static_cast<std::size_t>(span.id)]);
    out << line.dump() << '\n';
  }
}

}  // namespace perf
