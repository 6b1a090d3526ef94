// replay.hpp — the traced run's layer-by-layer replay of served jobs.
//
// After the service has served a workload (and shut down, freeing the
// pool), every served job is replayed through the layer APIs in stack
// order: each served strip drains through a per-tenant BatchDriver, then
// each job runs pcg with a benchmark-side Preconditioner that applies
// through its own TrisolvePlan over the same factors and times every
// apply. Timestep strips first refactor through a FactorPlan and refresh
// the plan's values. Both replayed solutions are bit-compared with the
// served one. Spans around every call feed the per-layer numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve.hpp"
#include "solve/service.hpp"
#include "sparse/factor_plan.hpp"
#include "sparse/trisolve_plan.hpp"
#include "trace.hpp"

namespace perfbench {

/// What a tenant's plans resolved to, recorded with every result so a
/// calibration flip between runs shows in the output.
struct TenantDecision {
  std::string label;
  pdx::index_t rows = 0;
  pdx::index_t nnz = 0;
  std::size_t factor_bytes = 0;
  /// From Service::matrix_info at the end of the window.
  std::string served_strategy, served_layout;
  double served_factor_ms = 0.0, served_refresh_ms = 0.0;
  /// From a plan built with the service's plan options after the window:
  /// it finds the served race winner in the tuning cache.
  std::string strategy, layout, kernel, isa;
  bool tuning_cache_hit = false;
};

/// The service's per-tenant plan options (BatchDriverOptions defaults,
/// as Service builds its planned drivers).
pdx::sparse::PlanOptions served_plan_options();
pdx::sparse::FactorPlanOptions served_factor_options();

/// Decisions for every tenant: served labels from `served` (one
/// Service::matrix_info per tenant), resolved plan labels from a probe
/// plan built after the service stopped using the pool.
std::vector<TenantDecision> probe_decisions(
    pdx::rt::ThreadPool& pool, const Inputs& in,
    const std::vector<pdx::solve::MatrixInfo>& served);

struct ReplayResult {
  std::vector<Metric> metrics;
  std::uint64_t replayed = 0;
  std::uint64_t driver_mismatches = 0;  ///< BatchDriver path != served
  std::uint64_t krylov_mismatches = 0;  ///< pcg + decorator path != served
  /// Per job index: the replayed solution hashes (0 when not replayed).
  std::vector<std::uint64_t> driver_hashes, krylov_hashes;
  /// Per tenant: the exploration epochs and winner of a cold calibration
  /// race (tuning cache bypassed) over the same factors.
  std::vector<std::pair<int, std::string>> cold_races;
};

ReplayResult replay(pdx::rt::ThreadPool& pool, const Inputs& in,
                    const ServeResult& served, Tracer& tracer);

}  // namespace perfbench
