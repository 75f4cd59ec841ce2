#include "tracer.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : origin_ns_(now_ns()) {}

Tracer::NameId Tracer::intern(std::string_view name) {
  const std::string key(name);
  if (const auto it = name_ids_.find(key); it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<NameId>(names_.size());
  names_.push_back(key);
  name_ids_.emplace(key, id);
  return id;
}

std::uint32_t Tracer::innermost_span() const noexcept {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (!it->leaf) return it->index;
  }
  return kNone;
}

void Tracer::open_span(NameId name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, innermost_span(), run_, t, t, 0});
  stack_.push_back(Frame{t, 0, index, false});
}

void Tracer::open_leaf(LeafSite& site) {
  const std::uint32_t parent = innermost_span();
  if (site.slot == kNone || site.parent != parent) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(parent) << 32) | site.name;
    auto [it, inserted] = leaf_slots_.try_emplace(
        key, static_cast<std::uint32_t>(leaves_.size()));
    if (inserted) {
      LeafAggregate agg;
      agg.parent = parent;
      agg.name = site.name;
      leaves_.push_back(std::move(agg));
    }
    site.parent = parent;
    site.slot = it->second;
  }
  stack_.push_back(Frame{now_ns(), 0, site.slot, true});
}

void Tracer::close_frame(bool leaf) {
  const std::int64_t t = now_ns();
  if (stack_.empty() || stack_.back().leaf != leaf) {
    unbalanced_ = true;  // reported by summarize(); closers run in destructors
    return;
  }
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - f.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (leaf) {
    LeafAggregate& agg = leaves_[f.index];
    ++agg.calls;
    agg.total_ns += duration;
    agg.child_ns += f.child_ns;
    agg.latency_ns.record(static_cast<std::uint64_t>(duration));
  } else {
    Span& s = spans_[f.index];
    s.end_ns = t;
    s.child_ns = f.child_ns;
  }
}

void Tracer::close_span() { close_frame(false); }

void Tracer::close_leaf() { close_frame(true); }

Tracer::Summary Tracer::summarize() const {
  if (unbalanced_ || !stack_.empty()) {
    throw std::logic_error("tracer: unbalanced spans");
  }
  Summary out;
  for (const Span& s : spans_) {
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    NameTotals& n = out.by_name[names_[s.name]];
    ++n.calls;
    n.total_s += total;
    n.self_s += self;
    if (s.parent == kNone) {
      out.wall_s += total;
      out.unattributed_s += self;
    }
  }
  for (const LeafAggregate& l : leaves_) {
    NameTotals& n = out.by_name[names_[l.name]];
    n.calls += l.calls;
    n.total_s += static_cast<double>(l.total_ns) * 1e-9;
    n.self_s += static_cast<double>(l.total_ns - l.child_ns) * 1e-9;
    n.latency_ns.merge(l.latency_ns);
  }
  return out;
}

void Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{%s,\n\"names\": [", header.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  // Times are nanoseconds since the tracer was created; parent -1 = root.
  std::fprintf(f, "],\n\"span_fields\": [\"name\", \"parent\", \"run\", "
                  "\"start_ns\", \"end_ns\"],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%u, %lld, %u, %lld, %lld]", i == 0 ? "" : ",",
                 s.name, s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.run, static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_));
  }
  std::fprintf(f, "],\n\"leaf_fields\": [\"parent\", \"name\", \"calls\", "
                  "\"total_ns\", \"self_ns\"],\n\"leaves\": [");
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const LeafAggregate& l = leaves_[i];
    std::fprintf(f, "%s\n[%lld, %u, %llu, %lld, %lld]", i == 0 ? "" : ",",
                 l.parent == kNone ? -1LL : static_cast<long long>(l.parent),
                 l.name, static_cast<unsigned long long>(l.calls),
                 static_cast<long long>(l.total_ns),
                 static_cast<long long>(l.total_ns - l.child_ns));
  }
  std::fprintf(f, "]\n}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
