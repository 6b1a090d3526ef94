// inputs.hpp — the benchmark's workloads, generated from one seed.
//
// The program under test only ever sees the generated inputs: tenant
// operators (variable-coefficient stencils), right-hand-side pools, the
// job sequence (which tenant, which right-hand side, which value set)
// and, on the open loop, when each job is due. Everything is a pure
// function of (workload, seed): the same seed gives the same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kBurstTenants, kClosedLarge, kTimestep };

const char* to_string(Workload w) noexcept;
std::optional<Workload> parse_workload(std::string_view name) noexcept;

/// One tenant: the operator it registers and the right-hand sides its
/// jobs draw from.
struct TenantInput {
  std::string label;
  pdx::sparse::Csr a;
  std::vector<std::vector<double>> rhs;
};

/// One job the client submits.
struct JobSpec {
  std::uint32_t tenant = 0;
  std::uint32_t rhs = 0;
  /// timestep: index into Inputs::value_sets of the operator this step
  /// solves against (0 elsewhere).
  std::uint32_t values = 0;
  /// Open loop: when the job is due, from the start of the window.
  double due_ms = 0.0;
};

struct Inputs {
  Workload workload = Workload::kBurstTenants;
  std::uint64_t seed = 0;
  std::vector<TenantInput> tenants;
  /// timestep only: A(t_p) = I + dt K(t_p), one per phase of the
  /// coefficient cycle, all on tenants[0].a's pattern. Steps cycle
  /// through them, so each step's update_values carries new values.
  std::vector<pdx::sparse::Csr> value_sets;
  /// Open loop (burst-tenants): burst_size jobs fall due together every
  /// burst_period_ms.
  double burst_period_ms = 0.0;
  std::uint32_t burst_size = 0;

  bool open_loop() const noexcept { return burst_size > 0; }
  /// The jobs the client submits together at step s, a pure function of
  /// (seed, s): burst s (open loop), one job (closed-large), or time step
  /// s's one to three solves against one value set (timestep).
  std::vector<JobSpec> step(std::uint64_t s) const;
  /// Steps a window of `seconds` serves: the bursts scheduled inside it
  /// (open loop), or a count fixed by the window at the loop's nominal
  /// pace (closed loops). The count never follows the machine's speed,
  /// so every run of a seed serves the same jobs and its percentiles
  /// rest on the same number of samples; a slower program takes longer.
  std::uint64_t step_count(double seconds) const;
  /// The operator job `j` is solved against.
  const pdx::sparse::Csr& op(const JobSpec& j) const {
    return value_sets.empty() ? tenants[j.tenant].a : value_sets[j.values];
  }
};

Inputs make_inputs(Workload w, std::uint64_t seed);

/// Order-sensitive 64-bit digest of raw bytes (word-wise mixing; the tail
/// is zero-padded).
class Digest {
 public:
  void add(const void* data, std::size_t bytes) noexcept;
  template <class T>
  void add(const std::vector<T>& v) noexcept {
    add(v.data(), v.size() * sizeof(T));
  }
  void add_u64(std::uint64_t w) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ull;
};

/// Digest of every generated input byte: operators, value sets,
/// right-hand sides and the job specs of the first `steps` steps.
std::uint64_t input_digest(const Inputs& in, std::uint64_t steps);

/// Bytes the ILU(0) factors of `a` occupy: same pattern as A plus the
/// explicit unit diagonal of L; values, column indices and both row
/// pointer arrays.
std::size_t factor_bytes(const pdx::sparse::Csr& a) noexcept;

}  // namespace perfbench
