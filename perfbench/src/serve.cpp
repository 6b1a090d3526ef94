#include "serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/advisor.hpp"
#include "sparse/spmv.hpp"

namespace perfbench {

namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using Clock = std::chrono::steady_clock;

namespace {

// How often the open-loop client looks for finished jobs: its latency
// stamps are late by at most about this much.
constexpr double kPollMs = 0.05;

// Jobs of one strip share one dequeue instant. The client's estimate of
// it starts from its stamp when submit() returned, microseconds after the
// service's own submit stamp, while one tenant's next strip starts at
// least a whole solve later.
constexpr double kStripToleranceMs = 0.5;

double ms_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

std::span<const double> rhs_of(const Inputs& in, const JobSpec& s) {
  return in.tenants[s.tenant].rhs[s.rhs];
}

/// Fill the outcome fields of `sj` from a finished job and check its
/// answer against the operator it was solved with.
void record(ServedJob& sj, const solve::JobResult& r,
            const solve::ServiceJob& job, const Inputs& in,
            std::vector<double>& scratch) {
  sj.outcome = r.outcome;
  sj.queue_ms = r.queue_ms;
  sj.exec_ms = r.solve_ms;
  sj.iterations = r.report.iterations;
  if (r.outcome != solve::JobOutcome::kSolved) return;
  const std::span<const double> x = job.solution();
  sj.rel_residual = relative_residual(in.op(sj.spec), rhs_of(in, sj.spec), x,
                                      scratch);
  sj.verified = sj.rel_residual <= kVerifyTolerance;
  sj.solution_hash = solution_hash(x);
}

void solve_warm(solve::Service& svc, solve::MatrixId id, const Inputs& in,
                const JobSpec& s, std::vector<double>& x,
                std::vector<double>& scratch) {
  const std::span<const double> b = rhs_of(in, s);
  x.assign(b.size(), 0.0);
  const solve::JobResult r = svc.solve(id, b, x);
  if (r.outcome != solve::JobOutcome::kSolved ||
      relative_residual(in.op(s), b, x, scratch) > kVerifyTolerance) {
    throw std::runtime_error("warm-up solve on tenant " +
                             in.tenants[s.tenant].label + " failed: " +
                             (r.error.empty() ? "wrong answer" : r.error));
  }
}

ServeResult serve_closed(Tenancy& t, const Inputs& in, std::uint64_t steps,
                         Tracer& tracer) {
  ServeResult out;
  std::vector<double> scratch;
  std::vector<solve::JobHandle> handles;
  std::vector<solve::JobResult> results;
  const bool stepping = !in.value_sets.empty();
  const Clock::time_point origin = Clock::now();
  for (std::uint64_t s = 0; s < steps; ++s) {
    const std::vector<JobSpec> specs = in.step(s);
    const std::size_t first = out.jobs.size();
    const solve::MatrixId id = t.ids[specs.front().tenant];
    const double start = ms_since(origin);
    if (stepping) {
      ScopedSpan span(tracer, "Service.update_values",
                      static_cast<std::int64_t>(first));
      t.svc->update_values(id, in.value_sets[specs.front().values]);
    }
    const double updated = ms_since(origin);
    handles.clear();
    for (const JobSpec& spec : specs) {
      ServedJob sj;
      sj.index = out.jobs.size();
      sj.step = s;
      sj.spec = spec;
      sj.start_ms = start;
      sj.update_ms = updated - start;
      const double before = ms_since(origin);
      {
        ScopedSpan span(tracer, "Service.submit",
                        static_cast<std::int64_t>(sj.index));
        handles.push_back(t.svc->submit(id, rhs_of(in, spec)));
      }
      sj.submit_ms = ms_since(origin);
      out.submit_ms_max = std::max(out.submit_ms_max, sj.submit_ms - before);
      out.jobs.push_back(sj);
    }
    // One tenant's jobs finish in submission order; stamp them all before
    // checking any answer.
    results.clear();
    for (std::size_t k = 0; k < handles.size(); ++k) {
      ScopedSpan span(tracer, "Service.wait",
                      static_cast<std::int64_t>(first + k));
      results.push_back(handles[k]->wait());
      out.jobs[first + k].done_ms = ms_since(origin);
    }
    for (std::size_t k = 0; k < handles.size(); ++k) {
      record(out.jobs[first + k], results[k], *handles[k], in, scratch);
    }
  }
  out.report = t.svc->report();
  return out;
}

ServeResult serve_open(Tenancy& t, const Inputs& in, std::uint64_t steps,
                       Tracer& tracer) {
  ServeResult out;
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (const JobSpec& spec : in.step(s)) {
      ServedJob sj;
      sj.index = out.jobs.size();
      sj.step = s;
      sj.spec = spec;
      sj.start_ms = spec.due_ms;
      out.jobs.push_back(sj);
    }
  }
  const std::uint64_t total = out.jobs.size();
  std::vector<double> scratch;
  std::vector<std::pair<std::uint64_t, solve::JobHandle>> pending;
  struct Finished {
    std::uint64_t index;
    solve::JobHandle job;
    solve::JobResult result;
  };
  std::vector<Finished> finished;
  std::uint64_t next = 0;
  const Clock::time_point origin = Clock::now();
  while (next < total || !pending.empty()) {
    if (next < total && out.jobs[next].spec.due_ms <= ms_since(origin)) {
      // The generator's own lateness: when it got to a due instant. Time
      // then spent blocked inside submit() is the service's, and lands in
      // the latencies, which run from the due time.
      const double due = out.jobs[next].spec.due_ms;
      out.generator_lag_ms_max =
          std::max(out.generator_lag_ms_max, ms_since(origin) - due);
      for (; next < total && out.jobs[next].spec.due_ms == due; ++next) {
        ServedJob& sj = out.jobs[next];
        ScopedSpan span(tracer, "Service.submit",
                        static_cast<std::int64_t>(next));
        const double before = ms_since(origin);
        pending.emplace_back(
            next, t.svc->submit(t.ids[sj.spec.tenant], rhs_of(in, sj.spec)));
        sj.submit_ms = ms_since(origin);
        out.submit_ms_max = std::max(out.submit_ms_max, sj.submit_ms - before);
      }
    }
    // Stamp every finished job first and check the answers after, so one
    // job's check does not delay the next job's stamp.
    finished.clear();
    for (std::size_t p = 0; p < pending.size();) {
      auto& [i, h] = pending[p];
      if (!h->done()) {
        ++p;
        continue;
      }
      {
        ScopedSpan span(tracer, "Service.wait", static_cast<std::int64_t>(i));
        finished.push_back({i, h, h->wait()});
      }
      out.jobs[i].done_ms = ms_since(origin);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
    }
    for (const Finished& f : finished) {
      record(out.jobs[f.index], f.result, *f.job, in, scratch);
    }
    if (!finished.empty()) continue;
    const double until_due = next < total
                                 ? out.jobs[next].spec.due_ms - ms_since(origin)
                                 : kPollMs;
    if (until_due > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(std::min(until_due, kPollMs)));
    }
  }
  out.report = t.svc->report();
  return out;
}

}  // namespace

EndToEnd end_to_end(const ServeResult& r, bool per_step) {
  EndToEnd e;
  std::vector<std::pair<double, double>> busy;
  std::vector<double> latency;
  std::uint64_t verified_jobs = 0;
  for (std::size_t i = 0; i < r.jobs.size();) {
    // A sample: one job, or every job of one step.
    std::size_t end = i + 1;
    while (per_step && end < r.jobs.size() && r.jobs[end].step == r.jobs[i].step) {
      ++end;
    }
    bool verified = true;
    double done = r.jobs[i].done_ms;
    for (std::size_t k = i; k < end; ++k) {
      const ServedJob& j = r.jobs[k];
      ++e.submitted;
      busy.emplace_back(j.start_ms, j.done_ms);
      done = std::max(done, j.done_ms);
      if (j.verified) {
        ++verified_jobs;
        e.iterations_per_job += j.iterations;
      } else {
        ++e.failed;
        verified = false;
      }
    }
    if (verified) latency.push_back(done - r.jobs[i].start_ms);
    i = end;
  }
  if (verified_jobs > 0) {
    e.iterations_per_job /= static_cast<double>(verified_jobs);
  }
  const double busy_s = union_length(std::move(busy)) / 1e3;
  if (busy_s > 0.0) {
    e.jobs_per_s = static_cast<double>(verified_jobs) / busy_s;
    e.steps_per_s = static_cast<double>(latency.size()) / busy_s;
  }
  e.latency_p50_ms = median(latency);
  e.latency_tail = tail_percentile(std::move(latency));
  return e;
}

double set_up(Tenancy& t, pdx::rt::ThreadPool& pool, const Inputs& in) {
  t.svc.reset();
  t.ids.clear();
  pdx::core::tuning_cache().clear();
  const Clock::time_point start = Clock::now();
  t.svc = std::make_unique<solve::Service>(pool);
  for (const TenantInput& ti : in.tenants) {
    t.ids.push_back(t.svc->register_matrix(ti.a));
  }
  std::vector<double> x, scratch;
  if (in.value_sets.empty()) {
    for (std::uint32_t k = 0; k < in.tenants.size(); ++k) {
      solve_warm(*t.svc, t.ids[k], in, JobSpec{.tenant = k}, x, scratch);
    }
  } else {
    for (int w = 0; w < kTimestepWarmSteps; ++w) {
      const JobSpec s{.values = static_cast<std::uint32_t>(
                          (w + 1) % in.value_sets.size())};
      t.svc->update_values(t.ids[0], in.value_sets[s.values]);
      solve_warm(*t.svc, t.ids[0], in, s, x, scratch);
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ServeResult serve(Tenancy& t, const Inputs& in, std::uint64_t steps,
                  Tracer& tracer) {
  return in.open_loop() ? serve_open(t, in, steps, tracer)
                        : serve_closed(t, in, steps, tracer);
}

std::vector<std::vector<std::size_t>> served_strips(const ServeResult& r) {
  std::vector<DequeueRecord> records;
  std::vector<std::size_t> job_of;
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const ServedJob& j = r.jobs[i];
    if (j.outcome != solve::JobOutcome::kSolved) continue;
    records.push_back({j.spec.tenant, j.submit_ms + j.queue_ms});
    job_of.push_back(i);
  }
  std::vector<std::vector<std::size_t>> strips =
      group_strips(records, kStripToleranceMs);
  for (auto& s : strips) {
    for (std::size_t& i : s) i = job_of[i];
  }
  return strips;
}

std::uint64_t solution_hash(std::span<const double> x) {
  Digest d;
  d.add(x.data(), x.size_bytes());
  return d.value();
}

double relative_residual(const sp::Csr& a, std::span<const double> b,
                         std::span<const double> x, std::vector<double>& ax) {
  ax.resize(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double d = b[i] - ax[i];
    rr += d * d;
    bb += b[i] * b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

std::uint64_t solution_digest(const std::vector<std::uint64_t>& hashes) {
  Digest d;
  for (std::uint64_t h : hashes) d.add_u64(h);
  return d.value();
}

}  // namespace perfbench
