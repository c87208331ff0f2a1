// dctrain step benchmark: real 4-rank DistributedTrainer steps in one
// process pinned to one core, on three workloads that each load a
// different layer (see README.md in this directory for why each workload
// exists and which per-layer metric should move which end-to-end
// metric).
//
//   stepbench --workload NAME --seed N --seconds S --trace 0|1
//             [--timed 0|1] [--out-dir DIR]
//
// One process builds one training world (the set-up: Runtime creation,
// trainer construction on every rank, warm-up steps), runs a fixed,
// fenced check window of steps to take exact counter deltas, and prints
// them on a "stepbench-world" line. With --timed 1 (the default) it then
// runs the timed closed loop; with --trace 1 that loop alternates
// untraced and traced blocks, and each layer's public entry point is
// replayed at the workload's shapes. The last stdout line is the JSON
// result. run.py runs several set-up-only processes before the timed
// one and compares their worlds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "allreduce/algorithm.hpp"
#include "bench_lib.hpp"
#include "data/dimd.hpp"
#include "data/synthetic.hpp"
#include "dpt/data_parallel_table.hpp"
#include "kernels/kernels.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/ops.hpp"
#include "trainer/distributed_trainer.hpp"
#include "util/rng.hpp"

#include <sched.h>
#include <sys/resource.h>

namespace {

using namespace dct;
using stepbench::CounterSet;
using stepbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
/// ThreadPool::global()'s size, through its DCTRAIN_THREADS variable:
/// the process runs on one core (pin_to_one_core), so tensor ops run
/// inline on the SimGpu thread instead of on pool workers that could
/// only take turns with it.
constexpr const char* kThreads = "1";
/// Generous: a step never legitimately waits this long on a peer, so a
/// deadline hit means a hung collective, which counts as a failed step.
constexpr auto kRecvDeadline = std::chrono::seconds(60);
/// p90 needs at least ten samples beyond it, counting only the untraced
/// half of a traced run's loop.
constexpr std::int64_t kMinTimedSteps = 200;
/// Length of one block of the timed loop.
constexpr double kBlockSeconds = 0.5;

const std::vector<std::string> kCounterPrefixes = {"simmpi.", "kernels.",
                                                   "comm.", "dimd."};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// The seed whose check-window loss each workload records.
constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string name;
  /// Bit pattern of rank 0's loss at the last check-window step at
  /// kDefaultSeed (recorded on x86-64, Release, portable codegen).
  std::uint32_t reference_loss_bits = 0;
  int warmup_steps = 0;
  int check_steps = 0;
  trainer::TrainerConfig cfg;
};

trainer::TrainerConfig base_config(std::uint64_t seed, int classes,
                                   std::int64_t images) {
  trainer::TrainerConfig cfg;
  cfg.model.classes = classes;
  cfg.model.image = 16;
  cfg.dataset.classes = classes;
  cfg.dataset.images = images;
  cfg.dataset.image = data::ImageDef{3, 16, 16};
  cfg.dataset.seed = seed;
  cfg.seed = seed;
  cfg.allreduce = "multicolor";
  cfg.shuffle_every = 0;
  return cfg;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "cnn_compute") {
    // Conv compute through the DPT intra-node path (2 SimGpus per rank),
    // monolithic blocking allreduce of a small payload, no shuffle.
    w.reference_loss_bits = 0x3b5d5cf1;
    w.warmup_steps = 8;
    w.check_steps = 16;
    w.cfg = base_config(seed, 10, 4096);
    w.cfg.gpus_per_node = 2;
    w.cfg.batch_per_gpu = 32;
  } else if (name == "grad_allreduce") {
    // A ~1 M-parameter linear head on a 1-image batch: the 4 MB gradient
    // dominates, through dctrain train's default bucketed, overlapped
    // multicolor path. No shuffle.
    w.reference_loss_bits = 0x41090fb2;
    w.warmup_steps = 8;
    w.check_steps = 16;
    w.cfg = base_config(seed, 4000, 1024);
    w.cfg.gpus_per_node = 1;
    w.cfg.batch_per_gpu = 1;
    w.cfg.comm.bucket_bytes = std::size_t{4} << 20;
    w.cfg.comm.codec = "none";
    w.cfg.comm.overlap = true;
  } else if (name == "dimd_shuffle") {
    // Algorithm-2 shuffle of a large in-memory store every step; tiny
    // batch and model, so pack/alltoallv/unpack dominate.
    w.reference_loss_bits = 0x3f622b11;
    w.warmup_steps = 4;
    w.check_steps = 8;
    w.cfg = base_config(seed, 10, 32768);
    w.cfg.gpus_per_node = 1;
    w.cfg.batch_per_gpu = 2;
    w.cfg.shuffle_every = 1;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---- one training world ------------------------------------------------

/// Rank 0's view of a timed loop: every step's metrics, in blocks.
struct TimedLoop {
  std::vector<trainer::StepMetrics> steps;
  std::vector<stepbench::Block> blocks;
};

/// Steps of some of a loop's blocks and the wall time they took.
struct LoopPart {
  std::vector<trainer::StepMetrics> steps;
  double wall_s = 0.0;
  std::size_t blocks = 0;
};

LoopPart part_of(const TimedLoop& loop,
                 const std::vector<std::size_t>& blocks) {
  LoopPart q;
  for (const std::size_t b : blocks) {
    const auto& block = loop.blocks[b];
    const auto first = loop.steps.begin() +
                       static_cast<std::ptrdiff_t>(block.first_step);
    q.steps.insert(q.steps.end(), first,
                   first + static_cast<std::ptrdiff_t>(block.steps));
    q.wall_s += block.wall_s;
    ++q.blocks;
  }
  return q;
}

LoopPart whole(const TimedLoop& loop) {
  std::vector<std::size_t> all(loop.blocks.size());
  for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
  return part_of(loop, all);
}

/// Rank-0 observations of one world build. Only rank 0 writes the
/// scalar fields; `params` has one slot per rank.
struct WorldResult {
  double setup_s = 0.0;
  CounterSet window;  ///< counter deltas over the check window
  float check_loss = 0.0f;
  TimedLoop untraced;
  TimedLoop traced;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  float final_loss = 0.0f;
  std::vector<std::vector<float>> params;
  std::vector<obs::ReportEvent> events;
  double mean_message_bytes = 0.0;
};

/// One step; with a recorder (rank 0 only), one span around the call.
trainer::StepMetrics recorded_step(trainer::DistributedTrainer& tr,
                                   SpanRecorder* rec, int parent) {
  const int id = rec != nullptr
                     ? rec->begin("bench.step", parent,
                                  static_cast<std::int64_t>(tr.iteration()))
                     : -1;
  const auto m = tr.step();
  if (rec != nullptr) rec->end(id);
  return m;
}

/// Runs `steps` steps. Rank 0 records every step's metrics, cuts the
/// loop into blocks of about kBlockSeconds, and counts a step with a
/// non-finite loss as failed.
void run_steps(trainer::DistributedTrainer& tr, bool rank0, std::int64_t steps,
               SpanRecorder& rec, int parent, TimedLoop& loop,
               WorldResult& res) {
  auto block_start = Clock::now();
  stepbench::Block block;
  block.first_step = loop.steps.size();
  const auto close_block = [&] {
    const auto now = Clock::now();
    block.wall_s = std::chrono::duration<double>(now - block_start).count();
    loop.blocks.push_back(block);
    block = {};
    block.first_step = loop.steps.size();
    block_start = now;
  };
  for (std::int64_t i = 0; i < steps; ++i) {
    if (rank0) ++res.attempted;
    const auto m = recorded_step(tr, rank0 ? &rec : nullptr, parent);
    if (!rank0) continue;
    if (!std::isfinite(m.loss)) ++res.failed;
    loop.steps.push_back(m);
    res.final_loss = m.loss;
    ++block.steps;
    if (i + 1 == steps || seconds_since(block_start) >= kBlockSeconds) {
      close_block();
    }
  }
}

/// Builds a world, warms it up, counts a fenced check window, and when
/// `timed` continues into the timed loop. `res` keeps what was recorded
/// if a step throws.
void run_world(const Workload& w, double seconds, bool trace, bool timed,
               SpanRecorder& rec, WorldResult& res) {
  res.params.resize(kRanks);
  const int world_span = rec.begin("bench.world");
  const auto t0 = Clock::now();
  simmpi::Runtime rt(kRanks);
  rt.transport().set_recv_deadline(kRecvDeadline);
  rt.run([&](simmpi::Communicator& comm) {
    const bool rank0 = comm.rank() == 0;
    int token = 0;
    std::vector<int> tokens(kRanks);
    // Gather-to-0 then bcast-from-0. Rank 0 snapshots the counters in
    // between, while every other rank waits for the bcast: all messages
    // of earlier work have been sent and received, and none of later
    // work has started, so the snapshot splits the counts exactly.
    const auto fence = [&](CounterSet* snap) {
      comm.gather(std::span<const int>(&token, 1), std::span<int>(tokens), 0);
      if (rank0 && snap != nullptr) {
        *snap = stepbench::select_counters(obs::Metrics::snapshot(),
                                           kCounterPrefixes);
      }
      comm.bcast(std::span<int>(&token, 1), 0);
    };

    const int setup_span = rank0 ? rec.begin("bench.setup", world_span) : -1;
    trainer::DistributedTrainer tr(comm, w.cfg);
    for (int i = 0; i < w.warmup_steps; ++i) {
      recorded_step(tr, rank0 ? &rec : nullptr, setup_span);
    }
    CounterSet s_empty, s0, s1;
    fence(&s_empty);
    if (rank0) {
      res.setup_s = seconds_since(t0);
      rec.end(setup_span);
    }
    // Two back-to-back fences measure the fences' own counts; the
    // window below pays exactly that once.
    fence(&s0);
    const int check_span = rank0 ? rec.begin("bench.check", world_span) : -1;
    std::vector<double> check_ms;
    for (int i = 0; i < w.check_steps; ++i) {
      const auto m = recorded_step(tr, rank0 ? &rec : nullptr, check_span);
      if (rank0) {
        check_ms.push_back(m.step_seconds * 1e3);
        res.check_loss = m.loss;
      }
    }
    fence(&s1);
    if (rank0) {
      rec.end(check_span);
      const CounterSet overhead = stepbench::counter_delta(s_empty, s0);
      res.window =
          stepbench::subtract(stepbench::counter_delta(s0, s1), overhead);
      const auto msgs = stepbench::count_of(res.window, "simmpi.messages_sent");
      res.mean_message_bytes =
          msgs == 0 ? 0.0
                    : static_cast<double>(stepbench::count_of(
                          res.window, "simmpi.bytes_sent")) /
                          static_cast<double>(msgs);
    }
    if (!timed) return;

    // Closed loop in segments of about one block each, until `seconds`
    // have passed and at least kMinTimedSteps steps ran. A traced run
    // alternates untraced and traced segments, so both see the same host
    // conditions and their difference is the tracing overhead.
    std::int64_t block_steps = 0;
    if (rank0) {
      const double ms = stepbench::percentile(check_ms, 50).value;
      block_steps = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(kBlockSeconds * 1e3 / ms));
    }
    comm.bcast(std::span<std::int64_t>(&block_steps, 1), 0);
    const int timed_span = rank0 ? rec.begin("bench.timed", world_span) : -1;
    if (rank0 && trace) obs::Tracer::reset();
    const auto loop_start = Clock::now();
    for (std::int64_t seg = 0;; ++seg) {
      const bool traced = trace && seg % 2 == 1;
      // Rank 0 decides whether to go on, and sets tracing for the next
      // segment, while every other rank waits for the bcast.
      comm.gather(std::span<const int>(&token, 1), std::span<int>(tokens), 0);
      int go = 0;
      if (rank0) {
        go = seconds_since(loop_start) < seconds ||
             res.attempted < kMinTimedSteps || traced;
        if (trace) obs::Tracer::set_enabled(go != 0 && traced);
      }
      comm.bcast(std::span<int>(&go, 1), 0);
      if (go == 0) break;
      run_steps(tr, rank0, block_steps, rec, timed_span,
                traced ? res.traced : res.untraced, res);
    }
    if (rank0) {
      rec.end(timed_span);
      if (trace) {
        res.events = obs::tracer_events();
        obs::Tracer::reset();
      }
    }
    res.params[static_cast<std::size_t>(comm.rank())] = tr.snapshot_params();
  });
  rec.end(world_span);
}

// ---- layer replays (traced run only) -----------------------------------

/// Median wall time in ms of `fn` over the recorder spans it opens.
template <typename Fn>
double replay_ms(SpanRecorder& rec, const std::string& name, int parent,
                 int reps, Fn&& fn) {
  for (int r = 0; r < reps; ++r) {
    const int id = rec.begin(name, parent, r);
    fn();
    rec.end(id);
  }
  return stepbench::percentile(rec.durations_ms(name), 50).value;
}

tensor::Tensor filled(std::vector<std::int64_t> shape, Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.next_float() - 0.5f;
  }
  return t;
}

struct Replays {
  double dpt_fwd_bwd_ms = 0, dpt_apply_grads_ms = 0;
  double gemm_gflops = 0, reduce_add_gbps = 0;
  double allreduce_run_ms = 0, p2p_gbps = 0, shuffle_ms = 0;
};

/// `per_rank[rank][rep]` seconds → median over reps of the slowest rank.
double slowest_rank_median_ms(
    const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> worst(per_rank[0].size(), 0.0);
  for (const auto& times : per_rank) {
    for (std::size_t r = 0; r < times.size(); ++r) {
      worst[r] = std::max(worst[r], times[r] * 1e3);
    }
  }
  return stepbench::percentile(worst, 50).value;
}

Replays run_replays(const Workload& w, double message_bytes,
                    SpanRecorder& rec) {
  Replays out;
  const auto& cfg = w.cfg;
  Rng rng(cfg.seed);
  const int group = rec.begin("replay");

  // dpt: forward_backward / apply_gradients on one node batch.
  {
    dpt::OptimizedDpt table(cfg.model, cfg.gpus_per_node, cfg.seed);
    const std::int64_t nb = cfg.batch_per_gpu * cfg.gpus_per_node;
    const auto images = filled({nb, 3, cfg.model.image, cfg.model.image}, rng);
    std::vector<std::int32_t> labels(static_cast<std::size_t>(nb));
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(i % static_cast<std::size_t>(
                                                    cfg.model.classes));
    }
    const nn::Sgd sgd(cfg.sgd);
    const int span = rec.begin("replay.dpt", group);
    out.dpt_fwd_bwd_ms =
        replay_ms(rec, "dpt.forward_backward", span, 30,
                  [&] { table.forward_backward(images, labels); });
    std::vector<float> grads(table.node_grads().begin(),
                             table.node_grads().end());
    for (auto& g : grads) g *= 1.0f / kRanks;
    out.dpt_apply_grads_ms =
        replay_ms(rec, "dpt.apply_gradients", span, 30, [&] {
          table.apply_gradients(grads, sgd, static_cast<float>(cfg.base_lr));
        });
    rec.end(span);
  }

  // tensor::gemm at SmallCNN's conv-as-GEMM shapes for one replica's
  // batch (3->8 and 8->16 channels, 3x3, as make_small_cnn builds them):
  // forward, weight gradient and input gradient of both convs.
  {
    struct Shape {
      std::int64_t co, ck, cols;
    };
    const std::int64_t b = cfg.batch_per_gpu, hw = cfg.model.image;
    const Shape convs[] = {{8, 3 * 9, b * hw * hw},
                           {16, 8 * 9, b * (hw / 2) * (hw / 2)}};
    struct Gemm {
      tensor::Tensor a, b, c;
      bool ta, tb;
    };
    std::vector<Gemm> gemms;
    double flops = 0;
    for (const auto& s : convs) {
      gemms.push_back({filled({s.co, s.ck}, rng), filled({s.ck, s.cols}, rng),
                       tensor::Tensor({s.co, s.cols}), false, false});
      gemms.push_back({filled({s.co, s.cols}, rng), filled({s.ck, s.cols}, rng),
                       tensor::Tensor({s.co, s.ck}), false, true});
      gemms.push_back({filled({s.co, s.ck}, rng), filled({s.co, s.cols}, rng),
                       tensor::Tensor({s.ck, s.cols}), true, false});
      flops += 3.0 * 2.0 * static_cast<double>(s.co * s.ck * s.cols);
    }
    const int span = rec.begin("replay.tensor", group);
    const double ms = replay_ms(rec, "tensor.gemm", span, 50, [&] {
      for (auto& g : gemms) tensor::gemm(g.a, g.ta, g.b, g.tb, g.c);
    });
    out.gemm_gflops = flops / (ms * 1e-3) / 1e9;
    rec.end(span);
  }

  const auto msg_floats = std::max<std::size_t>(
      1, static_cast<std::size_t>(message_bytes / sizeof(float)));

  // kernels::reduce_add at the mean message size (a multicolor reduce
  // step adds one received message into the payload).
  {
    std::vector<float> dst(msg_floats), src(msg_floats);
    for (auto& v : src) v = rng.next_float() * 1e-3f;
    const int inner = static_cast<int>(
        std::clamp<std::size_t>((std::size_t{1} << 22) / msg_floats, 1, 4096));
    const int span = rec.begin("replay.kernels", group);
    const double ms = replay_ms(rec, "kernels.reduce_add", span, 30, [&] {
      for (int i = 0; i < inner; ++i) {
        kernels::reduce_add(dst.data(), src.data(), msg_floats);
      }
    });
    out.reduce_add_gbps = static_cast<double>(msg_floats * sizeof(float)) *
                          inner / (ms * 1e-3) / 1e9;
    rec.end(span);
  }

  // allreduce: Algorithm::run on the gradient payload, 4 ranks, timed
  // on the slowest rank.
  {
    const auto payload = static_cast<std::size_t>(
        dpt::OptimizedDpt(cfg.model, 1, cfg.seed).param_count());
    constexpr int kReps = 30;
    std::vector<std::vector<double>> times(kRanks,
                                           std::vector<double>(kReps));
    const int span = rec.begin("replay.allreduce", group);
    simmpi::Runtime rt(kRanks);
    rt.transport().set_recv_deadline(kRecvDeadline);
    rt.run([&](simmpi::Communicator& comm) {
      const auto algo = allreduce::make_algorithm(cfg.allreduce);
      std::vector<float> init(payload), data(payload);
      Rng local(cfg.seed + static_cast<std::uint64_t>(comm.rank()));
      for (auto& v : init) v = local.next_float();
      for (int r = 0; r < kReps; ++r) {
        data = init;
        comm.barrier();
        const int id = comm.rank() == 0
                           ? rec.begin("allreduce.run", span, r)
                           : -1;
        const auto t = Clock::now();
        algo->run(comm, data);
        times[static_cast<std::size_t>(comm.rank())]
             [static_cast<std::size_t>(r)] = seconds_since(t);
        if (id >= 0) rec.end(id);
      }
    });
    out.allreduce_run_ms = slowest_rank_median_ms(times);
    rec.end(span);
  }

  // simmpi: a Communicator send/recv round trip at the mean message
  // size; GB/s counts both directions.
  {
    const std::size_t bytes = msg_floats * sizeof(float);
    const int reps = static_cast<int>(
        std::clamp<std::size_t>((std::size_t{1} << 27) / bytes, 20, 400));
    std::vector<double> rtt(static_cast<std::size_t>(reps));
    const int span = rec.begin("replay.simmpi", group);
    simmpi::Runtime rt(2);
    rt.transport().set_recv_deadline(kRecvDeadline);
    rt.run([&](simmpi::Communicator& comm) {
      std::vector<float> buf(msg_floats, 1.0f);
      for (int r = 0; r < reps; ++r) {
        if (comm.rank() == 0) {
          const int id = rec.begin("simmpi.send_recv", span, r);
          const auto t = Clock::now();
          comm.send(std::span<const float>(buf), 1);
          comm.recv(std::span<float>(buf), 1);
          rtt[static_cast<std::size_t>(r)] = seconds_since(t);
          rec.end(id);
        } else {
          comm.recv(std::span<float>(buf), 0);
          comm.send(std::span<const float>(buf), 0);
        }
      }
    });
    const double med = stepbench::percentile(rtt, 50).value;
    out.p2p_gbps = 2.0 * static_cast<double>(bytes) / med / 1e9;
    rec.end(span);
  }

  // data: DimdStore::shuffle on the workload's store, 4 ranks, timed on
  // the slowest rank.
  {
    constexpr int kReps = 10;
    std::vector<std::vector<double>> times(kRanks,
                                           std::vector<double>(kReps));
    const int span = rec.begin("replay.data", group);
    simmpi::Runtime rt(kRanks);
    rt.transport().set_recv_deadline(kRecvDeadline);
    rt.run([&](simmpi::Communicator& comm) {
      data::DimdStore store(comm, cfg.dimd);
      store.load_partition(data::SyntheticImageGenerator(cfg.dataset));
      // Seeded the way the trainer seeds its shuffle stream.
      Rng shuffle_rng(cfg.seed * 104729 +
                      static_cast<std::uint64_t>(comm.rank()) + 1);
      for (int r = 0; r < kReps; ++r) {
        comm.barrier();
        const int id =
            comm.rank() == 0 ? rec.begin("dimd.shuffle", span, r) : -1;
        const auto t = Clock::now();
        store.shuffle(shuffle_rng);
        times[static_cast<std::size_t>(comm.rank())]
             [static_cast<std::size_t>(r)] = seconds_since(t);
        if (id >= 0) rec.end(id);
      }
    });
    out.shuffle_ms = slowest_rank_median_ms(times);
    rec.end(span);
  }
  rec.end(group);
  return out;
}

// ---- output ------------------------------------------------------------

/// Peak resident set of the process so far (VmHWM).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB; MB here is 10^6 bytes.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::vector<double> field_ms(const std::vector<trainer::StepMetrics>& steps,
                             double trainer::StepMetrics::*field) {
  std::vector<double> out;
  out.reserve(steps.size());
  for (const auto& m : steps) out.push_back(m.*field * 1e3);
  return out;
}

double per_step(const CounterSet& window, const char* name, int steps,
                double unit) {
  return static_cast<double>(stepbench::count_of(window, name)) / steps / unit;
}

/// Restricts the calling thread, and every thread it starts later, to the
/// highest-numbered core it may run on, and returns that core (-1 when
/// the affinity calls fail and the process stays unpinned).
///
/// On a shared VM the hypervisor takes time from busy vCPUs (steal), and
/// 4 lockstepped ranks spread over every vCPU stall on whichever one is
/// taken: runs of the same code spread by over a third of their median.
/// On one core the other vCPUs stay idle and a stall costs only its own
/// length, so the timings measure the program's total work per step
/// (every rank's share, serialised) and follow only that core's speed.
/// Work that runs in parallel on real cores, such as communication
/// overlapped with compute or the ranks' compute side by side, does not
/// shorten the step here.
int pin_to_one_core() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload "
               "cnn_compute|grad_allreduce|dimd_shuffle --seed N "
               "--seconds S --trace 0|1 [--timed 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Before the first thread starts, so every thread inherits both.
  const int core = pin_to_one_core();
  setenv("DCTRAIN_THREADS", kThreads, 1);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return usage("arguments come in --key value pairs");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  for (const char* k : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(k)) return usage("missing a required argument");
  }
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false, timed = true;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
    trace = std::stoi(args["trace"]) != 0;
    if (args.count("timed")) timed = std::stoi(args["timed"]) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (!(seconds > 0)) return usage("--seconds must be positive");
  const auto workload = make_workload(args["workload"], seed);
  if (!workload) return usage("unknown workload");
  const Workload& w = *workload;
  const std::string out_dir =
      args.count("out-dir") ? args["out-dir"] : ".bench_out";
  std::filesystem::create_directories(out_dir);

  SpanRecorder rec;
  WorldResult last;
  try {
    run_world(w, seconds, trace, timed, rec, last);
  } catch (const std::exception& e) {
    // A throwing step or a transport deadline ends the world; the step
    // that was running is already counted as attempted.
    std::fprintf(stderr, "stepbench: run failed: %s\n", e.what());
    std::printf("%s\n", result_json(false, std::max<std::int64_t>(
                                                1, last.attempted),
                                     last.failed + 1, {})
                             .c_str());
    return 1;
  }
  const std::int64_t failed = last.failed;
  const std::int64_t attempted = last.attempted;

  // What run.py compares across the set-up processes of one run.
  std::ostringstream world;
  world.precision(17);
  world << "stepbench-world {\"setup_s\": " << last.setup_s
        << ", \"check_loss_bits\": " << stepbench::float_bits(last.check_loss)
        << ", \"counters\": {";
  for (auto it = last.window.begin(); it != last.window.end(); ++it) {
    world << (it == last.window.begin() ? "" : ", ") << '"' << it->first
          << "\": " << it->second;
  }
  world << "}}";
  std::printf("%s\n", world.str().c_str());

  // ---- correctness ----
  const auto reference =
      seed == kDefaultSeed
          ? std::optional<std::uint32_t>(w.reference_loss_bits)
                      : std::nullopt;
  if (!timed) {
    // A set-up-only process: its check window must still match the
    // recorded reference.
    if (reference && stepbench::float_bits(last.check_loss) != *reference) {
      std::printf("  correctness: FAILED\n    check-window loss bits 0x%08x "
                  "differ from the recorded reference 0x%08x\n",
                  stepbench::float_bits(last.check_loss), *reference);
      return 1;
    }
    return 0;
  }
  std::vector<std::string> problems;
  const std::string outputs = stepbench::check_outputs(
      {last.params, last.final_loss, last.check_loss}, reference);
  if (!outputs.empty()) problems.push_back(outputs);
  if (failed > 0) {
    problems.push_back(std::to_string(failed) + " failed step(s)");
  }
  const bool correct = problems.empty();

  // ---- report ----
  std::printf("stepbench workload=%s seed=%llu trace=%d ranks=%d "
              "global_batch=%lld core=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              trace ? 1 : 0, kRanks,
              static_cast<long long>(w.cfg.batch_per_gpu *
                                     w.cfg.gpus_per_node * kRanks),
              core >= 0 ? std::to_string(core).c_str() : "unpinned");
  // Timings cover every step of the untraced loop. The fastest half of
  // its blocks is printed beside them: a wide gap between the two means
  // the host's load moved during the run.
  const LoopPart loop = whole(last.untraced);
  const LoopPart fast =
      part_of(last.untraced, stepbench::fastest_half(last.untraced.blocks));
  const auto step_ms =
      field_ms(loop.steps, &trainer::StepMetrics::step_seconds);
  const auto p50 = stepbench::percentile(step_ms, 50);
  const auto p90 = stepbench::percentile(step_ms, 90);
  const double global_batch =
      static_cast<double>(w.cfg.batch_per_gpu * w.cfg.gpus_per_node * kRanks);
  const auto img_per_s = [&](const LoopPart& part) {
    return global_batch * static_cast<double>(part.steps.size()) / part.wall_s;
  };
  const double images_per_s = img_per_s(loop);
  const auto fast_ms =
      field_ms(fast.steps, &trainer::StepMetrics::step_seconds);
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  check window: %d steps, loss bits 0x%08x, mean message "
              "%.0f B\n",
              w.check_steps, stepbench::float_bits(last.check_loss),
              last.mean_message_bytes);
  for (const auto& [name, value] : last.window) {
    std::printf("    %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("  timed loop: %zu steps, %zu blocks in %.3f s; fastest %zu "
              "blocks: %zu steps, %.2f img/s, p50 %.3f ms, p90 %.3f ms\n",
              loop.steps.size(), loop.blocks, loop.wall_s, fast.blocks,
              fast.steps.size(), img_per_s(fast),
              stepbench::percentile(fast_ms, 50).value,
              stepbench::percentile(fast_ms, 90).value);
  std::printf("  correctness: %s\n", correct ? "ok" : "FAILED");
  for (const auto& p : problems) std::printf("    %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (!trace) {
    std::printf("  images_per_s   %.2f img/s (%zu steps in %.3f s)\n",
                images_per_s, loop.steps.size(), loop.wall_s);
    std::printf("  step_ms_p50    %.3f ms (n=%zu)\n", p50.value, p50.samples);
    std::printf("  step_ms_p90    %.3f ms (n=%zu)\n", p90.value, p90.samples);
    const auto q = stepbench::quartiles(step_ms);
    std::printf("  step_ms quartiles %.3f / %.3f / %.3f ms (n=%zu)\n", q.q1,
                q.median, q.q3, q.samples);
    std::printf("  setup_s        %.3f s (this process's set-up)\n",
                last.setup_s);
    std::printf("  peak_rss_mb    %.1f MB\n", peak_rss_mb());
    std::printf("  fail_ratio     %.6f (%lld of %lld steps)\n", fail_ratio,
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
    metrics = {{"images_per_s", images_per_s, "img/s"},
               {"step_ms_p50", p50.value, "ms"},
               {"step_ms_p90", p90.value, "ms"},
               {"setup_s", last.setup_s, "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"success_ratio", 1.0 - fail_ratio, "ratio"}};
  } else {
    const Replays rp = run_replays(w, last.mean_message_bytes, rec);
    const auto median_or_zero = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : stepbench::percentile(v, 50).value;
    };
    const auto phase = [&](const char* name) {
      return median_or_zero(stepbench::self_times_ms(last.events, 0, name,
                                                     "phase"));
    };
    const auto traced_ms = field_ms(last.traced.steps,
                                    &trainer::StepMetrics::step_seconds);
    const double traced_p50 = stepbench::percentile(traced_ms, 50).value;
    const CounterSet& c = last.window;
    const int n = w.check_steps;
    const double hits = static_cast<double>(
        stepbench::count_of(c, "kernels.scratch_hits"));
    const double borrows =
        hits + static_cast<double>(
                   stepbench::count_of(c, "kernels.scratch_misses"));
    metrics = {
        {"trainer.data_ms",
         median_or_zero(field_ms(loop.steps,
                                 &trainer::StepMetrics::data_seconds)),
         "ms"},
        {"trainer.exposed_allreduce_ms",
         median_or_zero(field_ms(loop.steps,
                                 &trainer::StepMetrics::allreduce_seconds)),
         "ms"},
        {"trainer.fwd_bwd_ms", phase("forward_backward"), "ms"},
        {"trainer.sgd_ms", phase("sgd"), "ms"},
        {"dpt.fwd_bwd_ms", rp.dpt_fwd_bwd_ms, "ms"},
        {"dpt.apply_grads_ms", rp.dpt_apply_grads_ms, "ms"},
        {"tensor.gemm_gflops", rp.gemm_gflops, "GFLOP/s"},
        {"kernels.gemm_mflop_per_step",
         per_step(c, "kernels.gemm_flops", n, 1e6), "MFLOP"},
        {"kernels.reduce_mb_per_step",
         per_step(c, "kernels.reduce_bytes", n, 1e6), "MB"},
        {"kernels.scratch_hit_ratio", borrows > 0 ? hits / borrows : 1.0,
         "ratio"},
        {"kernels.reduce_add_gbps", rp.reduce_add_gbps, "GB/s"},
        {"allreduce.run_ms", rp.allreduce_run_ms, "ms"},
        {"comm.buckets_per_step",
         per_step(c, "comm.buckets_reduced", n, 1), "count"},
        {"comm.wire_kb_per_step", per_step(c, "comm.wire_bytes", n, 1e3),
         "kB"},
        {"simmpi.msgs_per_step", per_step(c, "simmpi.messages_sent", n, 1),
         "count"},
        {"simmpi.kb_per_step", per_step(c, "simmpi.bytes_sent", n, 1e3),
         "kB"},
        {"simmpi.p2p_gbps", rp.p2p_gbps, "GB/s"},
        {"data.shuffle_ms", rp.shuffle_ms, "ms"},
        {"obs.trace_overhead_pct", (traced_p50 - p50.value) / p50.value * 100,
         "%"},
    };
    std::printf("  traced step_ms_p50 %.3f ms (n=%zu) vs untraced %.3f ms "
                "(n=%zu)\n",
                traced_p50, traced_ms.size(), p50.value, p50.samples);
    for (const auto& m : metrics) {
      std::printf("  %-30s %.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    // Only dimd_shuffle shuffles, and it is not gated (README.md), so
    // these two are printed but not part of the result.
    std::printf("  %-30s %.4f ms (printed only)\n", "trainer.shuffle_ms",
                phase("shuffle"));
    std::printf("  %-30s %.4f kB (printed only)\n",
                "data.shuffle_kb_per_step",
                per_step(c, "dimd.shuffle_bytes_sent", n, 1e3));
  }
  const std::string spans_path = out_dir + "/spans-" + w.name + "-s" +
                                 std::to_string(seed) + "-t" +
                                 (trace ? "1" : "0") + ".json";
  rec.write_json(spans_path);
  std::printf("  spans: %zu written to %s\n", rec.spans().size(),
              spans_path.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}
