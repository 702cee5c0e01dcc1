#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.hpp"
#include "util/fnv.hpp"

namespace pnrbench {

using pnr::util::fnv1a;

int Tracer::open(const char* name) {
  const std::int64_t start = now_ns();
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
  const std::int32_t index = store(Span{name, start, start, parent, round_});
  stack_.push_back(Open{name, start, 0, index});
  return static_cast<int>(stack_.size()) - 1;
}

void Tracer::close(int handle) {
  // Spans close in LIFO order (Scope is RAII); a handle above the top would
  // mean an earlier span was never closed, which is a harness bug.
  if (handle != static_cast<int>(stack_.size()) - 1) {
    std::fprintf(stderr, "tracer: span closed out of order\n");
    std::abort();
  }
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - o.start_ns;
  aggregate(o.name, dur, dur - o.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].end_ns = end;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, bool keep) {
  if (!enabled_) return;
  const std::int64_t dur = end_ns - start_ns;
  aggregate(name, dur, dur);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (!keep) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
  store(Span{name, start_ns, end_ns, parent, round_});
}

std::int32_t Tracer::store(const Span& span) {
  if (spans_.size() >= kMaxStored) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size()) - 1;
}

void Tracer::aggregate(const char* name, std::int64_t dur, std::int64_t self) {
  Aggregate& a = agg_[name];
  ++a.calls;
  a.total_ns += dur;
  a.self_ns += self;
}

std::map<std::string, Tracer::Aggregate> Tracer::aggregates() const {
  std::map<std::string, Aggregate> out;
  for (const auto& [name, a] : agg_) {
    Aggregate& o = out[name];
    o.calls += a.calls;
    o.total_ns += a.total_ns;
    o.self_ns += a.self_ns;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"round\":%d}\n",
                 i, s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3, s.parent, s.round);
  }
  return std::fclose(f) == 0;
}

void QualityAcc::add(std::int64_t cut, std::int64_t migrated,
                     std::int64_t elements, double imbalance) {
  cut_.push_back(static_cast<double>(cut));
  mig_frac_.push_back(elements > 0 ? static_cast<double>(migrated) /
                                         static_cast<double>(elements)
                                   : 0.0);
  imbalance_.push_back(imbalance);
}

namespace {
double sorted_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}
}  // namespace

void QualityAcc::merge(const QualityAcc& other) {
  cut_.insert(cut_.end(), other.cut_.begin(), other.cut_.end());
  mig_frac_.insert(mig_frac_.end(), other.mig_frac_.begin(),
                   other.mig_frac_.end());
  imbalance_.insert(imbalance_.end(), other.imbalance_.begin(),
                    other.imbalance_.end());
}

void QualityAcc::finish(Result& result) const {
  result.cut_mean = sorted_mean(cut_);
  result.migrated_frac_mean = sorted_mean(mig_frac_);
  result.imbalance_p99 = quantile(imbalance_, 0.99);
  result.imbalance_max = quantile(imbalance_, 1.0);
}

void Variants::complete(Result& result, int pass, std::uint64_t fp,
                        const QualityAcc& quality) {
  const auto v = static_cast<std::size_t>(pass % count());
  if (!seen_[v]) {
    seen_[v] = true;
    fp_[v] = fp;
    quality_.merge(quality);
  } else if (fp_[v] != fp) {
    result.fail_check("pass " + std::to_string(pass) +
                      " does not reproduce the first pass of its inputs");
  }
}

void Variants::finish(Result& result) const {
  for (std::size_t v = 0; v < seen_.size(); ++v) {
    if (!seen_[v]) {
      result.fail_check("input variant " + std::to_string(v) +
                        " never completed a pass");
      return;
    }
  }
  quality_.finish(result);
  result.fingerprint = fnv1a(fp_.data(), fp_.size() * sizeof(fp_[0]));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace pnrbench
