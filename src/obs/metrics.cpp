#include "obs/metrics.h"

#include <cmath>

#include "common/check.h"
#include "obs/text.h"

namespace lp::obs {

using detail::fmt_double;

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)) {
  LP_CHECK_MSG(buckets > 0, "histogram needs at least one bucket");
  LP_CHECK_MSG(hi > lo, "histogram range must be non-empty");
  LP_CHECK_MSG(!std::isnan(lo) && !std::isnan(hi), "histogram edge is NaN");
  bins_.assign(buckets, 0);
}

void Histogram::record(double x) {
  LP_CHECK_MSG(!std::isnan(x), "histogram sample is NaN");
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto i = static_cast<std::size_t>((x - lo_) / width_);
    // Guard the edge where (x - lo) / width rounds up to the bucket count
    // (x just below hi with an inexact width).
    if (i >= bins_.size()) i = bins_.size() - 1;
    ++bins_[i];
  }
}

double Histogram::edge(std::size_t i) const {
  LP_CHECK(i <= bins_.size());
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::percentile(double q) const {
  LP_CHECK_MSG(count_ > 0, "percentile of an empty histogram");
  LP_CHECK_MSG(!std::isnan(q), "percentile quantile is NaN");
  q = std::min(100.0, std::max(0.0, q));
  // Target rank under the same linear convention as lp::percentile:
  // rank = q/100 * (n - 1), interpolated between order statistics. With
  // only bucket counts we place a bucket's mass uniformly across it.
  const double rank = q / 100.0 * static_cast<double>(count_ - 1);
  double below = static_cast<double>(underflow_);
  if (rank < below) return lo_;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double in_bucket = static_cast<double>(bins_[i]);
    if (in_bucket > 0.0 && rank < below + in_bucket) {
      const double frac = (rank - below) / in_bucket;
      return edge(i) + frac * width_;
    }
    below += in_bucket;
  }
  return max();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  LP_CHECK_MSG(gauges_.find(name) == gauges_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "metric registered as a different kind: " + name);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  LP_CHECK_MSG(counters_.find(name) == counters_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "metric registered as a different kind: " + name);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t buckets) {
  LP_CHECK_MSG(counters_.find(name) == counters_.end() &&
                   gauges_.find(name) == gauges_.end(),
               "metric registered as a different kind: " + name);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, Histogram(lo, hi, buckets)).first;
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  auto emit = [&](const std::string& name, const std::string& body) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + name + "\": " + body;
  };
  // Kinds interleave in one global name order via a three-way merge over
  // the already-sorted maps.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  while (c != counters_.end() || g != gauges_.end() ||
         h != histograms_.end()) {
    const std::string* cn = c != counters_.end() ? &c->first : nullptr;
    const std::string* gn = g != gauges_.end() ? &g->first : nullptr;
    const std::string* hn = h != histograms_.end() ? &h->first : nullptr;
    auto lesser = [](const std::string* a, const std::string* b) {
      return b == nullptr || (a != nullptr && *a < *b);
    };
    if (cn != nullptr && lesser(cn, gn) && lesser(cn, hn)) {
      emit(*cn, "{\"kind\": \"counter\", \"value\": " +
                    std::to_string(c->second.value()) + "}");
      ++c;
    } else if (gn != nullptr && lesser(gn, hn)) {
      emit(*gn, "{\"kind\": \"gauge\", \"value\": " +
                    fmt_double(g->second.value()) +
                    ", \"max\": " + fmt_double(g->second.max()) + "}");
      ++g;
    } else {
      const Histogram& hist = h->second;
      std::string body = "{\"kind\": \"histogram\", \"count\": " +
                         std::to_string(hist.count()) +
                         ", \"sum\": " + fmt_double(hist.sum()) +
                         ", \"min\": " + fmt_double(hist.min()) +
                         ", \"max\": " + fmt_double(hist.max()) +
                         ", \"lo\": " + fmt_double(hist.lo()) +
                         ", \"hi\": " + fmt_double(hist.hi()) +
                         ", \"underflow\": " +
                         std::to_string(hist.underflow()) +
                         ", \"overflow\": " + std::to_string(hist.overflow()) +
                         ", \"buckets\": [";
      for (std::size_t i = 0; i < hist.buckets(); ++i) {
        if (i > 0) body += ", ";
        body += std::to_string(hist.bucket_count(i));
      }
      body += "]}";
      emit(h->first, body);
      ++h;
    }
  }
  out += "\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  return detail::write_file(path, to_json());
}

}  // namespace lp::obs
