// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each jsched layer. Two kinds exist:
//
//  * stored spans (one simulation, one grid cell, one validation pass) keep
//    a full record — name, start, end, parent and run id — and are written
//    out at exit;
//  * leaf calls (one scheduler callback, one JobSource::next, one
//    RecordSink::on_record, one Feed::poll) happen millions of times per
//    run, so each is folded on the spot into the aggregate of its
//    (parent span, name) pair: calls, total time, self time and a latency
//    histogram. That keeps memory bounded whatever the run length.
//
// A span's self time is its duration minus the time its children (stored
// spans and leaf calls) cover. The recorder is single-threaded: every
// workload runs on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/latency.h"

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns() noexcept;

class Tracer {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNone = ~0u;

  /// A leaf call site: caches the aggregate slot it last folded into, so
  /// the per-call cost is two clock reads and a few additions.
  struct LeafSite {
    explicit LeafSite(NameId n) : name(n) {}
    NameId name;
    std::uint32_t parent = kNone;
    std::uint32_t slot = kNone;
  };

  struct Span {
    NameId name;
    std::uint32_t parent;
    std::uint32_t run;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
  };

  struct LeafAggregate {
    std::uint32_t parent;
    NameId name;
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    jsched::util::LatencyHistogram latency_ns;
  };

  /// Totals of every span and leaf call carrying one name.
  struct NameTotals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    jsched::util::LatencyHistogram latency_ns;  // leaf calls only
  };

  struct Summary {
    std::map<std::string, NameTotals> by_name;
    double wall_s = 0.0;          // summed duration of the root spans
    double unattributed_s = 0.0;  // summed self time of the root spans
  };

  Tracer();

  NameId intern(std::string_view name);

  /// Run id stamped on spans opened from now on.
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Open a stored span under the innermost open span.
  void open_span(NameId name);
  /// Close the innermost open stored span.
  void close_span();

  void open_leaf(LeafSite& site);
  void close_leaf();

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<LeafAggregate>& leaves() const noexcept { return leaves_; }

  /// Per-name totals and the root-span wall time. Throws std::logic_error
  /// unless every span was closed exactly once, in nesting order. Root spans' self time is the benchmark's own glue and is
  /// reported as unattributed, so the self times of the layers plus
  /// `unattributed_s` equal `wall_s`.
  Summary summarize() const;

  /// Write every stored span and leaf aggregate as JSON. `header` is a JSON
  /// object body (without braces) placed at the top. Throws
  /// std::runtime_error when the file cannot be written.
  void write_json(const std::string& path, const std::string& header) const;

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t index;  // span index or leaf slot
    bool leaf;
  };

  std::uint32_t innermost_span() const noexcept;
  void close_frame(bool leaf);

  std::int64_t origin_ns_;
  std::uint32_t run_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
  std::vector<Span> spans_;
  std::vector<LeafAggregate> leaves_;
  std::unordered_map<std::uint64_t, std::uint32_t> leaf_slots_;
  std::vector<Frame> stack_;
  bool unbalanced_ = false;
};

/// RAII stored span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Tracer::NameId name) : tracer_(tracer) {
    tracer_.open_span(name);
  }
  ~ScopedSpan() { tracer_.close_span(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// RAII leaf call.
class ScopedLeaf {
 public:
  ScopedLeaf(Tracer& tracer, Tracer::LeafSite& site) : tracer_(tracer) {
    tracer_.open_leaf(site);
  }
  ~ScopedLeaf() { tracer_.close_leaf(); }
  ScopedLeaf(const ScopedLeaf&) = delete;
  ScopedLeaf& operator=(const ScopedLeaf&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
