#include "obs/metrics.hpp"

#include <algorithm>

#include "simbase/assert.hpp"
#include "simbase/json.hpp"

namespace han::obs {

using sim::append_json_string;
using sim::json_number;

// ---- Gauge ----------------------------------------------------------------

double Gauge::pending_integral(sim::Time now) const {
  return started_ && now > last_ ? value_ * (now - last_) : 0.0;
}

void Gauge::set(sim::Time now, double value) {
  if (!started_) {
    started_ = true;
    t0_ = now;
    last_ = now;
  } else {
    const sim::Time dt = now - last_;
    if (dt > 0.0) {
      integral_ += value_ * dt;
      if (value_ != 0.0) nonzero_ += dt;
      last_ = now;
    }
  }
  value_ = value;
  max_ = std::max(max_, value);
  if (owner_ != nullptr && owner_->tracer() != nullptr &&
      (!emitted_ || value != last_emitted_)) {
    owner_->tracer()->counter(name_, now, value);
    emitted_ = true;
    last_emitted_ = value;
  }
}

double Gauge::mean(sim::Time now) const {
  if (!started_ || now <= t0_) return value_;
  return (integral_ + pending_integral(now)) / (now - t0_);
}

double Gauge::active_seconds(sim::Time now) const {
  double active = nonzero_;
  if (started_ && value_ != 0.0 && now > last_) active += now - last_;
  return active;
}

double Gauge::mean_active(sim::Time now) const {
  const double active = active_seconds(now);
  if (active <= 0.0) return 0.0;
  return (integral_ + pending_integral(now)) / active;
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    for (double b = 1.0; b <= 65536.0; b *= 4.0) bounds_.push_back(b);
  }
  HAN_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
  weights_.assign(bounds_.size() + 1, 0.0);
}

void Histogram::observe(double value, double weight) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  weights_[static_cast<std::size_t>(it - bounds_.begin())] += weight;
  total_weight_ += weight;
  weighted_sum_ += value * weight;
}

double Histogram::weighted_mean() const {
  return total_weight_ > 0.0 ? weighted_sum_ / total_weight_ : 0.0;
}

double Histogram::quantile(double q) const {
  if (total_weight_ <= 0.0) return 0.0;
  const double target = q * total_weight_;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i];
    if (acc >= target) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

// ---- MetricsRegistry ------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
    it->second.owner_ = this;
    it->second.name_ = it->first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

void MetricsRegistry::set_meta(std::string_view key, std::string_view value) {
  meta_[std::string(key)] = std::string(value);
}

void MetricsRegistry::merge_counters(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).add(c.value());
  }
}

std::string MetricsRegistry::to_json(sim::Time now) const {
  std::string out = "{\n\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_json_string(out, v);
  }
  out += "},\n\"sim_seconds\":" + json_number(now) + ",\n\"counters\":{";
  first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    append_json_string(out, name);
    out += ':' + json_number(c.value());
  }
  out += "},\n\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    append_json_string(out, name);
    out += ":{\"value\":" + json_number(g.value()) +
           ",\"mean\":" + json_number(g.mean(now)) +
           ",\"mean_active\":" + json_number(g.mean_active(now)) +
           ",\"active_seconds\":" + json_number(g.active_seconds(now)) +
           ",\"max\":" + json_number(g.max()) + '}';
  }
  out += "},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    append_json_string(out, name);
    out += ":{\"weight\":" + json_number(h.total_weight()) +
           ",\"mean\":" + json_number(h.weighted_mean()) +
           ",\"p50\":" + json_number(h.quantile(0.5)) +
           ",\"p99\":" + json_number(h.quantile(0.99)) + ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ',';
      out += json_number(h.bounds()[i]);
    }
    out += "],\"weights\":[";
    for (std::size_t i = 0; i < h.weights().size(); ++i) {
      if (i > 0) out += ',';
      out += json_number(h.weights()[i]);
    }
    out += "]}";
  }
  out += "}\n}\n";
  return out;
}

std::string MetricsRegistry::to_csv(sim::Time now) const {
  // Cells never contain commas/quotes (metric names are code-chosen), so
  // no CSV quoting is needed.
  std::string out = "type,name,field,value\n";
  auto row = [&out](std::string_view type, std::string_view name,
                    std::string_view field, double v) {
    out += type;
    out += ',';
    out += name;
    out += ',';
    out += field;
    out += ',';
    out += json_number(v);
    out += '\n';
  };
  for (const auto& [k, v] : meta_) {
    out += "meta," + k + ",value," + v + '\n';
  }
  row("run", "sim_seconds", "value", now);
  for (const auto& [name, c] : counters_) row("counter", name, "value",
                                              c.value());
  for (const auto& [name, g] : gauges_) {
    row("gauge", name, "value", g.value());
    row("gauge", name, "mean", g.mean(now));
    row("gauge", name, "mean_active", g.mean_active(now));
    row("gauge", name, "active_seconds", g.active_seconds(now));
    row("gauge", name, "max", g.max());
  }
  for (const auto& [name, h] : histograms_) {
    row("histogram", name, "weight", h.total_weight());
    row("histogram", name, "mean", h.weighted_mean());
    row("histogram", name, "p50", h.quantile(0.5));
    row("histogram", name, "p99", h.quantile(0.99));
  }
  return out;
}

}  // namespace han::obs
