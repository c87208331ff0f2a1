#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace stepbench {

Percentile percentile(std::vector<double> samples, double q) {
  DCT_CHECK_MSG(!samples.empty(), "percentile of no samples");
  DCT_CHECK(q >= 0.0 && q <= 100.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {samples[lo] + (samples[hi] - samples[lo]) * frac, samples.size()};
}

Quartiles quartiles(std::vector<double> samples) {
  const auto ld = static_cast<std::int64_t>(samples.size());
  DCT_CHECK_MSG(ld >= 2, "quartiles need at least two samples, got " << ld);
  std::sort(samples.begin(), samples.end());
  constexpr std::int64_t n = 4;
  const std::int64_t m = ld + 1;
  double cut[3] = {};
  for (std::int64_t i = 1; i < n; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / n, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2], samples.size()};
}

std::vector<std::size_t> fastest_half(const std::vector<Block>& blocks) {
  const auto mean_step = [&](std::size_t i) {
    return blocks[i].wall_s / static_cast<double>(blocks[i].steps);
  };
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return mean_step(a) < mean_step(b);
  });
  order.resize((blocks.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

CounterSet select_counters(const dct::obs::MetricsSnapshot& snap,
                           const std::vector<std::string>& prefixes) {
  CounterSet out;
  for (const auto& row : snap.counters) {
    for (const auto& p : prefixes) {
      if (row.name.compare(0, p.size(), p) == 0) {
        out[row.name] = row.value;
        break;
      }
    }
  }
  return out;
}

CounterSet counter_delta(const CounterSet& before, const CounterSet& after) {
  CounterSet out;
  for (const auto& [name, value] : after) {
    const std::uint64_t base = count_of(before, name);
    DCT_CHECK_MSG(value >= base, "counter " << name << " went backwards ("
                                            << base << " -> " << value << ")");
    out[name] = value - base;
  }
  return out;
}

CounterSet subtract(const CounterSet& window, const CounterSet& overhead) {
  CounterSet out;
  for (const auto& [name, value] : window) {
    const std::uint64_t cost = count_of(overhead, name);
    DCT_CHECK_MSG(value >= cost, "fence overhead of " << name << " (" << cost
                                                      << ") exceeds window ("
                                                      << value << ")");
    out[name] = value - cost;
  }
  return out;
}

std::uint64_t count_of(const CounterSet& set, std::string_view name) {
  const auto it = set.find(std::string(name));
  return it == set.end() ? 0 : it->second;
}

std::uint32_t float_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

std::string check_outputs(const RunOutputs& out,
                          std::optional<std::uint32_t> reference_loss_bits) {
  const auto& params = out.params;
  std::ostringstream why;
  if (params.empty()) return "no parameter snapshots";
  for (std::size_t r = 1; r < params.size(); ++r) {
    if (params[r].size() != params[0].size() ||
        std::memcmp(params[r].data(), params[0].data(),
                    params[0].size() * sizeof(float)) != 0) {
      why << "rank " << r << " parameters differ from rank 0's";
      return why.str();
    }
  }
  if (!std::isfinite(out.final_loss)) {
    why << "final loss " << out.final_loss << " is not finite";
    return why.str();
  }
  if (reference_loss_bits &&
      float_bits(out.check_loss) != *reference_loss_bits) {
    why << "check-window loss " << out.check_loss << " (bits 0x" << std::hex
        << float_bits(out.check_loss)
        << ") differs from the recorded reference (bits 0x"
        << *reference_loss_bits << ")";
    return why.str();
  }
  return "";
}

int SpanRecorder::begin(std::string name, int parent, std::int64_t step) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.step = step;
  s.start_ns = dct::obs::Tracer::now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = dct::obs::Tracer::now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream os(path);
  DCT_CHECK_MSG(os.good(), "cannot write " << path);
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"step\": " << s.step << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  DCT_CHECK_MSG(os.good(), "failed writing " << path);
}

std::vector<double> self_times_ms(
    const std::vector<dct::obs::ReportEvent>& events, int rank,
    std::string_view name, std::string_view cat) {
  using Kind = dct::obs::ReportEvent::Kind;
  // Only spans of this rank and category can be parents or children; a
  // traced run holds far more spans of other kinds.
  std::vector<const dct::obs::ReportEvent*> same;
  for (const auto& e : events) {
    if (e.kind == Kind::kSpan && e.rank == rank && e.cat == cat) {
      same.push_back(&e);
    }
  }
  std::sort(same.begin(), same.end(),
            [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
  std::vector<double> out;
  for (const auto* p : same) {
    if (p->name != name) continue;
    const double lo = p->ts_us, hi = p->ts_us + p->dur_us;
    std::vector<std::pair<double, double>> kids;
    for (const auto* e : same) {
      if (e->ts_us > hi) break;
      if (e != p && e->tid == p->tid && e->ts_us >= lo &&
          e->ts_us + e->dur_us <= hi) {
        kids.emplace_back(e->ts_us, e->ts_us + e->dur_us);
      }
    }
    // Union of the child intervals (nested children lie inside their
    // own parents, so the union counts each covered instant once).
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [a, b] : kids) {
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back((p->dur_us - covered) * 1e-3);
  }
  return out;
}

}  // namespace stepbench
