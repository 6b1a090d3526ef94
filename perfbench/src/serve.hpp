// serve.hpp — set-up and the served phase: a workload driven through the
// public solve::Service API from one client thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "inputs.hpp"
#include "metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/service.hpp"
#include "trace.hpp"

namespace perfbench {

/// A solved job's true residual ||b - Ax|| / ||b|| must stay within this:
/// ten times the solver's tolerance, room for the recurrence residual to
/// drift from the true one.
inline constexpr double kVerifyTolerance = 1e-9;

/// Steps the timestep set-up runs before the window: the first builds the
/// tenant's plans; the first refactor builds the FactorPlan, whose
/// default calibration then races 4 strategies x 2 epochs and vector vs
/// scalar kernels x 2 epochs. Fourteen steps leave every race locked in.
inline constexpr int kTimestepWarmSteps = 14;

/// The open loop's generator may submit a job at most this late past its
/// due time; a later generator is measuring itself, and the run fails.
inline constexpr double kGeneratorLagBoundMs = 10.0;

struct ServedJob {
  std::uint64_t index = 0;  ///< position in the served sequence
  std::uint64_t step = 0;   ///< Inputs::step it came from
  JobSpec spec;
  /// Where the latency clock starts, from the window's start: the job's
  /// due time (open loop) or its step's start, before update_values on
  /// timestep (closed loops).
  double start_ms = 0.0;
  /// Client clock when submit() returned: within microseconds of the
  /// service's own submit stamp, even when submit() blocked.
  double submit_ms = 0.0;
  double done_ms = 0.0;    ///< client clock when wait() returned
  double update_ms = 0.0;  ///< timestep: the update_values call
  pdx::solve::JobOutcome outcome = pdx::solve::JobOutcome::kPending;
  double queue_ms = 0.0;  ///< JobResult::queue_ms
  double exec_ms = 0.0;   ///< JobResult::solve_ms
  int iterations = 0;
  double rel_residual = 0.0;
  /// Solved and its recomputed residual is within kVerifyTolerance.
  bool verified = false;
  std::uint64_t solution_hash = 0;
};

struct ServeResult {
  std::vector<ServedJob> jobs;  ///< job index order
  /// Open loop: how late the generator got to a due instant.
  double generator_lag_ms_max = 0.0;
  /// The longest submit() call (on the open loop it blocks while the
  /// tenant's strip drains).
  double submit_ms_max = 0.0;
  pdx::solve::ServiceReport report;  ///< at the end of the window
};

struct EndToEnd {
  double jobs_per_s = 0.0;
  double steps_per_s = 0.0;
  /// Per job on the open loop; per step (until its last wait() returned)
  /// on the closed loops.
  double latency_p50_ms = 0.0;
  Tail latency_tail;
  std::uint64_t submitted = 0;
  /// Rejected, expired, failed and wrong-answer jobs.
  std::uint64_t failed = 0;
  /// Mean Krylov iterations of the verified jobs (seed-dependent work).
  double iterations_per_job = 0.0;
  double failed_share() const {
    return submitted ? static_cast<double>(failed) / submitted : 0.0;
  }
};

/// `per_step`: latency samples are whole steps (closed loops), not jobs.
EndToEnd end_to_end(const ServeResult& r, bool per_step);

/// The service under test plus its registered tenants.
struct Tenancy {
  std::unique_ptr<pdx::solve::Service> svc;
  std::vector<pdx::solve::MatrixId> ids;
};

/// Replace `t` with a fresh service: register every tenant and run the
/// warm-up solves (one per tenant; the warm steps on timestep). The
/// process-wide tuning cache is cleared first, so every set-up races its
/// plans from cold, as a newly started server does. Returns the seconds
/// from creating the service to the last warm answer.
double set_up(Tenancy& t, pdx::rt::ThreadPool& pool, const Inputs& in);

/// Serve steps 0 .. steps-1 of the workload (open loop: on their
/// schedule, until they drain). Spans around Service calls go to
/// `tracer`.
ServeResult serve(Tenancy& t, const Inputs& in, std::uint64_t steps,
                  Tracer& tracer);

/// The strips the scheduler served, rebuilt from dequeue instants
/// (group_strips): indices into r.jobs of the solved jobs, in dequeue
/// order.
std::vector<std::vector<std::size_t>> served_strips(const ServeResult& r);

std::uint64_t solution_hash(std::span<const double> x);

/// ||b - A x|| / ||b|| recomputed with sparse::spmv.
double relative_residual(const pdx::sparse::Csr& a, std::span<const double> b,
                         std::span<const double> x, std::vector<double>& ax);

/// Ordered digest of a window's solution hashes, one per job.
std::uint64_t solution_digest(const std::vector<std::uint64_t>& hashes);

}  // namespace perfbench
