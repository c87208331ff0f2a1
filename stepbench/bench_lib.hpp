// Statistics, counter bookkeeping, correctness checks and the span
// recorder of the step benchmark. Kept apart from the harness so the
// unit tests can exercise them without building a training world.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace stepbench {

// ---- order statistics -------------------------------------------------

/// A percentile with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// q-th percentile (q in [0, 100]) by linear interpolation between the
/// closest ranks (numpy's default). Throws CheckError on no samples.
Percentile percentile(std::vector<double> samples, double q);

/// Quartiles as Python's statistics.quantiles(samples, n=4) gives them
/// (the "exclusive" method). Needs at least two samples.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  std::size_t samples = 0;

  /// Inter-quartile distance as a share of the median.
  double relative_spread() const { return (q3 - q1) / median; }
};
Quartiles quartiles(std::vector<double> samples);

// ---- interference ------------------------------------------------------

/// A run of consecutive timed steps, about half a second long.
struct Block {
  std::size_t first_step = 0;
  std::size_t steps = 0;
  double wall_s = 0.0;
};

/// Indices, in step order, of the fastest half of `blocks` (at least one
/// when there are any) by mean step time. On a shared host a neighbour's
/// burst slows every lockstepped rank for seconds at a time; the fastest
/// half's figures, printed beside the whole loop's, show how much of a
/// run such bursts took. They are a diagnostic only: a slowdown of the
/// program's own that grows with step count or clusters in some blocks
/// would also be dropped from them.
std::vector<std::size_t> fastest_half(const std::vector<Block>& blocks);

// ---- counters ---------------------------------------------------------

/// Counter name -> value for the counters whose name starts with one of
/// `prefixes`.
using CounterSet = std::map<std::string, std::uint64_t>;
CounterSet select_counters(const dct::obs::MetricsSnapshot& snap,
                           const std::vector<std::string>& prefixes);

/// after - before, per counter. A counter missing from `before` counts
/// from zero; one that went backwards throws CheckError (counters only
/// grow between resets, so that means the window was not fenced).
CounterSet counter_delta(const CounterSet& before, const CounterSet& after);

/// `window - overhead` per counter: removes the fixed cost of the fences
/// around a counted window. Throws CheckError when the overhead exceeds
/// the window.
CounterSet subtract(const CounterSet& window, const CounterSet& overhead);

/// Value of `name`, 0 when absent.
std::uint64_t count_of(const CounterSet& set, std::string_view name);

// ---- correctness --------------------------------------------------------

/// What a run leaves behind for the correctness check.
struct RunOutputs {
  std::vector<std::vector<float>> params;  ///< one snapshot per rank
  float final_loss = 0.0f;  ///< rank 0's loss at the last timed step
  float check_loss = 0.0f;  ///< rank 0's loss at the last check-window step
};

/// Empty when the run's outputs are correct, otherwise the reason:
///  * every rank's parameter snapshot must be bit-identical to rank 0's;
///  * the final loss must be finite;
///  * when `reference_loss_bits` is set, the check-window loss's bit
///    pattern must equal it exactly (the check window is a fixed step
///    count from construction, so its loss is reproducible; the timed
///    loop's length is not).
std::string check_outputs(const RunOutputs& out,
                          std::optional<std::uint32_t> reference_loss_bits);

std::uint32_t float_bits(float f);

// ---- spans --------------------------------------------------------------

/// The benchmark's own spans around its calls into each layer: name,
/// start, end, parent span and step id, kept in memory and written out
/// when the run ends. Single-threaded: only the harness's main thread or
/// one rank thread records at a time.
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = kNoParent;
    std::int64_t step = -1;
  };

  /// Opens a span now and returns its id.
  int begin(std::string name, int parent = kNoParent, std::int64_t step = -1);
  /// Closes span `id` now and returns its duration in seconds.
  double end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in milliseconds of the closed spans named `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  /// {"spans": [{"id", "name", "start_ns", "end_ns", "parent", "step"}]}
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-step self time, in milliseconds, of the spans named `name` (any
/// category `cat`) recorded on `rank`: each span's duration minus the
/// part of its interval covered by other spans of the same thread and
/// category that lie inside it (a phase nested in another phase). One
/// value per span, in start order.
std::vector<double> self_times_ms(
    const std::vector<dct::obs::ReportEvent>& events, int rank,
    std::string_view name, std::string_view cat);

}  // namespace stepbench
