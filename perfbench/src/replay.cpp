#include "replay.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "solve/batch_driver.hpp"
#include "solve/cg.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/kernels.hpp"
#include "sparse/spmv.hpp"

namespace perfbench {

namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using Clock = std::chrono::steady_clock;

namespace {

// A cold race ends after 4 strategies x 2 epochs (and, for a FactorPlan,
// vector vs scalar x 2); the cap only guards against a race that never
// locks in.
constexpr int kRaceCap = 64;
constexpr int kSpmvCalls = 50;
constexpr int kForkJoins = 500;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Everything the decorator measures, summed over the workload.
struct ApplyTally {
  std::vector<double> us;  ///< one sample per apply
  std::uint64_t wait_episodes = 0;
  std::uint64_t wait_rounds = 0;
  std::uint64_t dispatches = 0;
  double bytes = 0.0;  ///< factor bytes streamed (computed, not counted)
  double seconds = 0.0;
};

/// ILU(0) preconditioner applied through its own TrisolvePlan, timing
/// every apply. Applies through TrisolvePlan::solve exactly as
/// DoacrossIlu0Preconditioner does, so pcg's answers stay bitwise equal
/// to the served ones.
class TimedIlu final : public solve::Preconditioner {
 public:
  TimedIlu(rt::ThreadPool& pool, sp::TrisolvePlan& plan, std::size_t bytes,
           Tracer& tracer, ApplyTally& tally)
      : pool_(&pool), plan_(&plan), bytes_(bytes), tracer_(&tracer),
        tally_(&tally) {}

  void set_job(std::int64_t job) noexcept { job_ = job; }

  void apply(std::span<const double> r, std::span<double> z) const override {
    ScopedSpan span(*tracer_, "Preconditioner.apply", job_);
    const rt::DispatchProbe probe(*pool_);
    const Clock::time_point t0 = Clock::now();
    pdx::core::DoacrossStats st;
    {
      ScopedSpan inner(*tracer_, "TrisolvePlan.solve", job_);
      st = plan_->solve(r, z);
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    tally_->us.push_back(s * 1e6);
    tally_->seconds += s;
    tally_->bytes += static_cast<double>(bytes_);
    tally_->wait_episodes += st.wait_episodes;
    tally_->wait_rounds += st.wait_rounds;
    tally_->dispatches += probe.delta();
  }

  const char* name() const override { return "timed-ilu0"; }

 private:
  rt::ThreadPool* pool_;
  sp::TrisolvePlan* plan_;
  std::size_t bytes_;
  Tracer* tracer_;
  ApplyTally* tally_;
  std::int64_t job_ = -1;
};

/// One tenant's replay stack. Held by pointer: the plan keeps the
/// addresses of f.l and f.u.
struct TenantReplay {
  sp::IluFactors f;
  std::unique_ptr<sp::TrisolvePlan> plan;
  std::unique_ptr<sp::FactorPlan> fp;  // timestep only
  std::unique_ptr<solve::BatchDriver> driver;
  std::unique_ptr<TimedIlu> m;
};

bool kernel_race_pending(const sp::FactorPlan& fp) {
  const auto& kr = fp.telemetry().kernel_race;
  return !kr.timings.empty() && !kr.calibrated;
}

}  // namespace

sp::PlanOptions served_plan_options() {
  const solve::BatchDriverOptions o;
  return sp::PlanOptions{.nthreads = o.nthreads,
                         .reorder = o.reorder,
                         .strategy = o.strategy,
                         .layout = o.layout,
                         .calibration_epochs = o.calibration_epochs,
                         .use_tuning_cache = o.use_tuning_cache,
                         .stall_budget = o.stall_budget,
                         .kernel = o.kernel,
                         .ulp_tolerance = o.ulp_tolerance};
}

sp::FactorPlanOptions served_factor_options() {
  const solve::BatchDriverOptions o;
  return sp::FactorPlanOptions{.nthreads = o.nthreads,
                               .strategy = o.factor_strategy,
                               .calibration_epochs = o.calibration_epochs,
                               .use_tuning_cache = o.use_tuning_cache,
                               .stall_budget = o.stall_budget,
                               .pivot = {},
                               .kernel = o.kernel,
                               .ulp_tolerance = o.ulp_tolerance};
}

std::vector<TenantDecision> probe_decisions(
    rt::ThreadPool& pool, const Inputs& in,
    const std::vector<solve::MatrixInfo>& served) {
  std::vector<TenantDecision> out;
  for (std::size_t k = 0; k < in.tenants.size(); ++k) {
    const sp::Csr& a = in.tenants[k].a;
    TenantDecision d;
    d.label = in.tenants[k].label;
    d.rows = a.rows;
    d.nnz = a.nnz();
    d.factor_bytes = factor_bytes(a);
    d.served_strategy = pdx::core::to_string(served[k].strategy);
    d.served_layout = sp::to_string(served[k].layout);
    d.served_factor_ms = served[k].factor_ms;
    d.served_refresh_ms = served[k].refresh_ms;
    const sp::IluFactors f = sp::ilu0(a);
    const sp::TrisolvePlan plan(pool, f.l, f.u, served_plan_options());
    const sp::PlanTelemetry& t = plan.telemetry();
    d.strategy = pdx::core::to_string(t.strategy);
    d.layout = sp::to_string(t.layout);
    d.kernel = sp::kernels::to_string(t.kernel);
    d.isa = sp::kernels::to_string(t.isa);
    d.tuning_cache_hit = t.race.cache_hit;
    out.push_back(std::move(d));
  }
  return out;
}

ReplayResult replay(rt::ThreadPool& pool, const Inputs& in,
                    const ServeResult& served, Tracer& tracer) {
  ReplayResult out;
  const bool stepping = !in.value_sets.empty();
  ApplyTally tally;

  // ---- set-up layers: ILU(0), plan builds and their cold races --------
  double ilu0_ms = 0.0, plan_ms = 0.0;
  std::uint64_t calibration_solves = 0;
  std::vector<std::unique_ptr<TenantReplay>> tenants;
  for (const TenantInput& ti : in.tenants) {
    const sp::Csr& a0 = ti.a;
    auto tr = std::make_unique<TenantReplay>();
    {
      ScopedSpan span(tracer, "sparse.ilu0");
      const Clock::time_point t0 = Clock::now();
      tr->f = sp::ilu0(a0);
      ilu0_ms += ms_since(t0);
    }
    {
      // The race a newly started server runs: tuning cache bypassed (so
      // the served winner neither answers nor is overwritten).
      ScopedSpan span(tracer, "build.cold_race");
      const Clock::time_point t0 = Clock::now();
      sp::PlanOptions po = served_plan_options();
      po.use_tuning_cache = false;
      sp::TrisolvePlan plan(pool, tr->f.l, tr->f.u, po);
      std::vector<double> z(static_cast<std::size_t>(a0.rows));
      for (int s = 0; plan.calibrating() && s < kRaceCap; ++s) {
        plan.solve(ti.rhs[0], z);
      }
      int epochs = plan.telemetry().race.exploration_epochs;
      if (stepping) {
        sp::FactorPlanOptions fo = served_factor_options();
        fo.use_tuning_cache = false;
        sp::FactorPlan fp(pool, a0, fo);
        sp::IluFactors fc = tr->f;
        for (int s = 0; (fp.calibrating() || kernel_race_pending(fp)) &&
                        s < kRaceCap;
             ++s) {
          fp.factorize(a0, fc);
        }
        epochs += fp.telemetry().race.exploration_epochs +
                  fp.telemetry().kernel_race.exploration_epochs;
      }
      plan_ms += ms_since(t0);
      calibration_solves += static_cast<std::uint64_t>(epochs);
      out.cold_races.emplace_back(epochs,
                                  pdx::core::to_string(plan.strategy()));
    }
    {
      // The replay stack itself, built like the served one: the tuning
      // cache holds the served race winners, so the plans resolve alike.
      ScopedSpan span(tracer, "replay.build");
      tr->plan = std::make_unique<sp::TrisolvePlan>(pool, tr->f.l, tr->f.u,
                                                    served_plan_options());
      if (stepping) {
        tr->fp = std::make_unique<sp::FactorPlan>(pool, a0,
                                                  served_factor_options());
      }
      tr->driver = std::make_unique<solve::BatchDriver>(pool, a0);
      tr->m = std::make_unique<TimedIlu>(pool, *tr->plan, factor_bytes(a0),
                                         tracer, tally);
    }
    tenants.push_back(std::move(tr));
  }

  // ---- served strips, in dequeue order, down the stack ----------------
  const solve::BatchDriverOptions dopt;
  const solve::CgOptions cg{.max_iterations = dopt.max_iterations,
                            .rel_tolerance = dopt.rel_tolerance,
                            .record_history = false};
  out.driver_hashes.assign(served.jobs.size(), 0);
  out.krylov_hashes.assign(served.jobs.size(), 0);
  double drain_ms = 0.0;
  std::uint64_t screened = 0, precond_solves = 0, driver_dispatches = 0;
  std::uint64_t iterations = 0;
  std::vector<double> factor_ms, refresh_ms;
  std::vector<std::uint64_t> tenant_jobs(in.tenants.size(), 0);
  std::vector<std::vector<double>> xs;
  std::vector<double> x;
  std::uint64_t refactored_step = 0;
  for (const std::vector<std::size_t>& strip : served_strips(served)) {
    const ServedJob& first = served.jobs[strip.front()];
    TenantReplay& tr = *tenants[first.spec.tenant];
    const sp::Csr& a = in.op(first.spec);
    const auto job0 = static_cast<std::int64_t>(first.index);
    // A backlog can pack jobs of several bursts into one strip, but with
    // one step in flight a timestep strip never spans two operators.
    for (std::size_t j : strip) {
      if (stepping && served.jobs[j].step != first.step) {
        throw std::logic_error("replay: a strip spans two time steps");
      }
    }
    // A step's jobs may be served as several strips; the step's new values
    // are adopted once, before its first strip.
    if (stepping && (out.replayed == 0 || first.step != refactored_step)) {
      refactored_step = first.step;
      {
        ScopedSpan span(tracer, "FactorPlan.factorize", job0);
        const Clock::time_point t0 = Clock::now();
        tr.fp->factorize(a, tr.f);
        factor_ms.push_back(ms_since(t0));
      }
      {
        ScopedSpan span(tracer, "TrisolvePlan.refresh_values", job0);
        const Clock::time_point t0 = Clock::now();
        tr.plan->refresh_values(tr.f);
        refresh_ms.push_back(ms_since(t0));
      }
      ScopedSpan span(tracer, "BatchDriver.refactor", job0);
      tr.driver->refactor(a);
    }

    xs.resize(strip.size());
    solve::BatchReport rep;
    {
      ScopedSpan span(tracer, "BatchDriver.drain", job0);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < strip.size(); ++k) {
        const ServedJob& j = served.jobs[strip[k]];
        xs[k].assign(static_cast<std::size_t>(a.rows), 0.0);
        tr.driver->enqueue(in.tenants[j.spec.tenant].rhs[j.spec.rhs], xs[k]);
      }
      rep = tr.driver->drain();
      drain_ms += ms_since(t0);
    }
    screened += rep.screened;
    precond_solves += rep.precond_solves;
    driver_dispatches += rep.pool_dispatches;

    for (std::size_t k = 0; k < strip.size(); ++k) {
      const ServedJob& j = served.jobs[strip[k]];
      const std::uint64_t dh = solution_hash(xs[k]);
      out.driver_hashes[j.index] = dh;
      if (dh != j.solution_hash) ++out.driver_mismatches;

      x.assign(static_cast<std::size_t>(a.rows), 0.0);
      tr.m->set_job(static_cast<std::int64_t>(j.index));
      solve::SolveReport sr;
      {
        ScopedSpan span(tracer, "pcg", static_cast<std::int64_t>(j.index));
        sr = solve::pcg(a, in.tenants[j.spec.tenant].rhs[j.spec.rhs], x,
                        *tr.m, cg);
      }
      iterations += static_cast<std::uint64_t>(sr.iterations);
      const std::uint64_t kh = solution_hash(x);
      out.krylov_hashes[j.index] = kh;
      if (kh != j.solution_hash) ++out.krylov_mismatches;
      ++tenant_jobs[j.spec.tenant];
      ++out.replayed;
    }
  }

  // ---- leaf layers measured directly on the workload's matrices -------
  double spmv_weighted = 0.0;
  std::vector<double> y;
  for (std::size_t k = 0; k < in.tenants.size(); ++k) {
    if (tenant_jobs[k] == 0) continue;
    const sp::Csr& a = in.tenants[k].a;
    y.resize(static_cast<std::size_t>(a.rows));
    std::vector<double> us;
    for (int c = 0; c < kSpmvCalls; ++c) {
      ScopedSpan span(tracer, "sparse.spmv");
      const Clock::time_point t0 = Clock::now();
      sp::spmv(a, in.tenants[k].rhs[0], y);
      us.push_back(ms_since(t0) * 1e3);
    }
    spmv_weighted += median(us) * static_cast<double>(tenant_jobs[k]);
  }
  std::vector<double> forkjoin_us;
  for (int c = 0; c < kForkJoins; ++c) {
    ScopedSpan span(tracer, "ThreadPool.parallel_region");
    const Clock::time_point t0 = Clock::now();
    pool.parallel_region(pool.width(), [](unsigned, unsigned) {});
    forkjoin_us.push_back(ms_since(t0) * 1e3);
  }

  const double jobs = out.replayed > 0 ? static_cast<double>(out.replayed) : 1.0;
  const double applies =
      tally.us.empty() ? 1.0 : static_cast<double>(tally.us.size());
  out.metrics = {
      {"driver.drain_ms_per_job", drain_ms / jobs, "ms"},
      {"driver.screened", static_cast<double>(screened), "count"},
      {"driver.precond_solves_per_job", precond_solves / jobs, "count"},
      {"driver.pool_dispatches_per_job", driver_dispatches / jobs, "count"},
      {"krylov.iterations_per_job", iterations / jobs, "count"},
      {"krylov.self_ms_per_job", tracer.self_us("pcg") / 1e3 / jobs, "ms"},
      {"trisolve.apply_us_p50", median(tally.us), "us"},
      {"trisolve.applies_per_job", static_cast<double>(tally.us.size()) / jobs,
       "count"},
      {"trisolve.wait_episodes_per_apply", tally.wait_episodes / applies,
       "count"},
      {"trisolve.wait_rounds_per_apply", tally.wait_rounds / applies, "count"},
      {"trisolve.computed_gbytes_per_s",
       tally.seconds > 0.0 ? tally.bytes / tally.seconds / 1e9 : 0.0, "GB/s"},
      {"factor.factorize_ms_p50", median(factor_ms), "ms"},
      {"factor.refresh_ms_p50", median(refresh_ms), "ms"},
      {"spmv.us_per_call", spmv_weighted / jobs, "us"},
      {"pool.dispatches_per_apply", tally.dispatches / applies, "count"},
      {"pool.forkjoin_us_p50", median(forkjoin_us), "us"},
      {"build.ilu0_ms", ilu0_ms, "ms"},
      {"build.plan_ms", plan_ms, "ms"},
      {"build.calibration_solves", static_cast<double>(calibration_solves),
       "count"},
  };
  return out;
}

}  // namespace perfbench
