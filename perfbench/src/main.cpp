// serve_bench — the repository's end-to-end serving benchmark.
//
//   serve_bench --workload <burst-tenants|closed-large|timestep>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <path>]
//
// One client thread drives the workload through solve::Service. With
// --trace 0 it serves a window of --seconds and prints the end-to-end
// metrics. With --trace 1 it serves two windows of a quarter of that, one
// untraced and one traced (the difference is the tracing overhead), then
// replays every traced job layer by layer, which takes about as long as
// both windows, and prints the per-layer metrics. Every answer is
// checked; the last stdout line is the result object. See
// perfbench/README.md for the metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "runtime/affinity.hpp"
#include "serve.hpp"
#include "sparse/kernels.hpp"
#include "trace.hpp"

namespace rt = pdx::rt;
namespace solve = pdx::solve;
using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kBurstTenants;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "serve_bench: %s\nusage: serve_bench --workload "
               "<burst-tenants|closed-large|timestep> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(("unknown workload " + v).c_str());
      a.workload = *w;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_s = end && *end == '\0' && a.seconds > 0.0 && a.seconds <= 600.0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_t = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

double pct_change(double from, double to) {
  return from != 0.0 ? (to - from) / from * 100.0 : 0.0;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << quoted(ms[i].name) << ": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": " << quoted(ms[i].unit)
       << "}";
  }
  os << "}";
  return os.str();
}

std::vector<std::uint64_t> served_hashes(const ServeResult& r) {
  std::vector<std::uint64_t> h;
  for (const ServedJob& j : r.jobs) h.push_back(j.solution_hash);
  return h;
}

/// Per-layer numbers of the service itself, from the traced window's
/// JobResults and ServiceReport (counters cover set-up and window).
std::vector<Metric> service_metrics(const ServeResult& r, bool stepping) {
  std::vector<double> queue, exec, update;
  for (const ServedJob& j : r.jobs) {
    if (j.outcome != solve::JobOutcome::kSolved) continue;
    queue.push_back(j.queue_ms);
    exec.push_back(j.exec_ms);
    update.push_back(j.update_ms);
  }
  const auto strips = served_strips(r);
  return {
      {"service.queue_ms_p50", median(queue), "ms"},
      {"service.exec_ms_p50", median(exec), "ms"},
      {"service.strip_jobs_mean",
       strips.empty() ? 0.0 : static_cast<double>(queue.size()) / strips.size(),
       "jobs"},
      {"service.submit_ms_max", r.submit_ms_max, "ms"},
      {"service.update_values_ms_p50", stepping ? median(update) : 0.0, "ms"},
      {"service.cache_misses", static_cast<double>(r.report.cache_misses),
       "count"},
      {"service.value_refreshes", static_cast<double>(r.report.value_refreshes),
       "count"},
      {"service.queue_high_water",
       static_cast<double>(r.report.queue_high_water), "jobs"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const unsigned nproc = rt::allowed_cpus();
  const unsigned width = nproc > 1 ? nproc - 1 : 1;
  // The client, the service's scheduler (the pool's member 0) and the
  // pool's width - 1 workers each need a core of their own; more threads
  // than cores would measure the OS scheduler, not the service. The width
  // floors at 1, so a single core fails here.
  const unsigned threads = 2 + (width - 1);
  if (threads > nproc) {
    std::fprintf(stderr,
                 "serve_bench: oversubscribed: 1 client + 1 scheduler + %u "
                 "workers = %u threads on %u cores\n",
                 width - 1, threads, nproc);
    return 3;
  }

  try {
    const Inputs in = make_inputs(args.workload, args.seed);
    const bool stepping = args.workload == Workload::kTimestep;
    rt::ThreadPool pool(width);

    // Set-up is short and noisy on the small tenants: repeat it and
    // report the median. Each repetition starts from a cold tuning cache.
    const int setup_reps = args.workload == Workload::kBurstTenants ? 15 : 3;
    std::vector<double> setups;
    Tenancy ten;
    for (int r = 0; r < setup_reps; ++r) setups.push_back(set_up(ten, pool, in));

    // A traced run serves an untraced and a traced window of the same
    // steps; their difference is the tracing overhead. The replay after
    // them takes about as long again.
    const std::uint64_t steps =
        in.step_count(args.trace ? args.seconds / 4 : args.seconds);
    Tracer off(false);
    const ServeResult base = serve(ten, in, steps, off);
    const double rss_mb = peak_rss_mb();
    const EndToEnd e = end_to_end(base, !in.open_loop());

    Tracer tracer(args.trace);
    ServeResult traced;
    if (args.trace) traced = serve(ten, in, steps, tracer);
    const double lag_ms =
        std::max(base.generator_lag_ms_max, traced.generator_lag_ms_max);
    if (lag_ms > kGeneratorLagBoundMs) {
      std::fprintf(stderr,
                   "serve_bench: open-loop generator ran %.3f ms late (bound "
                   "%.1f ms); the run measured the client, not the service\n",
                   lag_ms, kGeneratorLagBoundMs);
      return 4;
    }
    std::vector<solve::MatrixInfo> infos;
    for (solve::MatrixId id : ten.ids) infos.push_back(ten.svc->matrix_info(id));
    // The replay and the probes need the pool, whose only caller is the
    // scheduler while the service lives.
    ten.svc->shutdown(60e3);
    ten.svc.reset();
    const std::vector<TenantDecision> decisions =
        probe_decisions(pool, in, infos);
    ReplayResult rr;
    if (args.trace) rr = replay(pool, in, traced, tracer);

    // ---- correctness ----------------------------------------------------
    const std::vector<std::uint64_t> hashes = served_hashes(base);
    const std::uint64_t digest = solution_digest(hashes);
    bool correct = e.failed == 0;
    std::uint64_t attempted = e.submitted, failed = e.failed;
    std::uint64_t digest_traced = 0, digest_driver = 0, digest_krylov = 0;
    EndToEnd et;
    if (args.trace) {
      et = end_to_end(traced, !in.open_loop());
      attempted += et.submitted;
      failed += et.failed;
      // Both windows served the same steps: the traced one must give the
      // untraced one's bits, and so must both replay paths.
      digest_traced = solution_digest(served_hashes(traced));
      digest_driver = solution_digest(rr.driver_hashes);
      digest_krylov = solution_digest(rr.krylov_hashes);
      correct = correct && et.failed == 0 && rr.driver_mismatches == 0 &&
                rr.krylov_mismatches == 0 && digest_traced == digest &&
                digest_driver == digest && digest_krylov == digest;
      if (!args.trace_out.empty()) tracer.write_json(args.trace_out);
    }

    // ---- human-readable report -----------------------------------------
    const auto [l2, llc] = cache_sizes();
    std::printf("# serve_bench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
                to_string(args.workload), args.seed, args.seconds,
                args.trace ? 1 : 0);
    std::printf("# machine: nproc=%u pool_width=%u threads=%u isa=%s "
                "l2=%zu llc=%zu\n",
                nproc, width, threads,
                pdx::sparse::kernels::to_string(
                    pdx::sparse::kernels::dispatched_isa()),
                l2, llc);
    for (const TenantDecision& d : decisions) {
      std::printf("# tenant %s rows=%" PRId64 " nnz=%" PRId64
                  " factor_bytes=%zu served=%s/%s plan=%s/%s kernel=%s\n",
                  d.label.c_str(), d.rows, d.nnz, d.factor_bytes,
                  d.served_strategy.c_str(), d.served_layout.c_str(),
                  d.strategy.c_str(), d.layout.c_str(), d.kernel.c_str());
    }
    const std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s"},
        {"jobs_per_s", e.jobs_per_s, "1/s"},
        {"latency_p50_ms", e.latency_p50_ms, "ms"},
        {"latency_tail_ms", e.latency_tail.value, "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    std::printf("end-to-end (untraced window, %" PRIu64 " jobs):\n",
                e.submitted);
    for (const Metric& m : e2e) print_metric(m);
    if (stepping) print_metric({"steps_per_s", e.steps_per_s, "1/s"});
    print_metric({"failed_share", e.failed_share(), "share"});
    std::printf("  latency_tail_ms is p%g: %zu samples, %zu beyond it\n",
                e.latency_tail.percentile, e.latency_tail.samples,
                e.latency_tail.beyond);
    std::printf("  %.3f Krylov iterations per job\n", e.iterations_per_job);

    std::vector<Metric> layers;
    if (args.trace) {
      layers = service_metrics(traced, stepping);
      layers.insert(layers.end(), rr.metrics.begin(), rr.metrics.end());
      layers.push_back({"bench.generator_lag_ms_max",
                        traced.generator_lag_ms_max, "ms"});
      layers.push_back({"trace.overhead_throughput_pct",
                        -pct_change(e.jobs_per_s, et.jobs_per_s), "%"});
      layers.push_back({"trace.overhead_latency_p50_pct",
                        pct_change(e.latency_p50_ms, et.latency_p50_ms), "%"});
      std::printf("per-layer (traced window, %" PRIu64
                  " jobs; replayed %" PRIu64 ", mismatches driver=%" PRIu64
                  " krylov=%" PRIu64 "):\n",
                  et.submitted, rr.replayed, rr.driver_mismatches,
                  rr.krylov_mismatches);
      for (const Metric& m : layers) print_metric(m);
    }

    // ---- context line: machine, decisions, digests ---------------------
    std::ostringstream ctx;
    ctx << "{\"context\": {\"workload\": " << quoted(to_string(args.workload))
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << json_number(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"machine\": {\"nproc\": " << nproc
        << ", \"pool_width\": " << width << ", \"threads\": {\"client\": 1"
        << ", \"scheduler\": 1, \"workers\": " << width - 1 << "}"
        << ", \"isa\": "
        << quoted(pdx::sparse::kernels::to_string(
               pdx::sparse::kernels::dispatched_isa()))
        << ", \"l2_bytes\": " << l2 << ", \"llc_bytes\": " << llc << "}"
        << ", \"tenants\": [";
    for (std::size_t k = 0; k < decisions.size(); ++k) {
      const TenantDecision& d = decisions[k];
      ctx << (k ? ", " : "") << "{\"label\": " << quoted(d.label)
          << ", \"rows\": " << d.rows << ", \"nnz\": " << d.nnz
          << ", \"factor_bytes\": " << d.factor_bytes
          << ", \"served_strategy\": " << quoted(d.served_strategy)
          << ", \"served_layout\": " << quoted(d.served_layout)
          << ", \"served_factor_ms\": " << json_number(d.served_factor_ms)
          << ", \"served_refresh_ms\": " << json_number(d.served_refresh_ms)
          << ", \"strategy\": " << quoted(d.strategy)
          << ", \"layout\": " << quoted(d.layout)
          << ", \"kernel\": " << quoted(d.kernel)
          << ", \"isa\": " << quoted(d.isa)
          << ", \"tuning_cache_hit\": " << (d.tuning_cache_hit ? "true" : "false");
      if (args.trace) {
        ctx << ", \"cold_race_epochs\": " << rr.cold_races[k].first
            << ", \"cold_race_winner\": " << quoted(rr.cold_races[k].second);
      }
      ctx << "}";
    }
    ctx << "], \"setup_s_samples\": [";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      ctx << (i ? ", " : "") << json_number(setups[i]);
    }
    ctx << "], \"latency_tail\": {\"percentile\": "
        << json_number(e.latency_tail.percentile)
        << ", \"samples\": " << e.latency_tail.samples
        << ", \"beyond\": " << e.latency_tail.beyond << "}"
        << ", \"failed_share\": " << json_number(e.failed_share())
        << ", \"iterations_per_job\": " << json_number(e.iterations_per_job)
        << ", \"generator_lag_ms_max\": " << json_number(base.generator_lag_ms_max)
        << ", \"steps\": " << steps << ", \"jobs\": " << base.jobs.size()
        << ", \"input_digest\": " << quoted(hex(input_digest(in, steps)))
        << ", \"solution_digest\": " << quoted(hex(digest));
    if (args.trace) {
      ctx << ", \"replay\": {\"jobs\": " << rr.replayed
          << ", \"driver_mismatches\": " << rr.driver_mismatches
          << ", \"krylov_mismatches\": " << rr.krylov_mismatches
          << ", \"served_digest\": " << quoted(hex(digest_traced))
          << ", \"driver_digest\": " << quoted(hex(digest_driver))
          << ", \"krylov_digest\": " << quoted(hex(digest_krylov)) << "}";
    }
    ctx << "}}";
    std::printf("%s\n", ctx.str().c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json(args.trace ? layers : e2e).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "serve_bench: %s\n", ex.what());
    return 1;
  }
}
