#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"

namespace perfbench {

namespace sp = pdx::sparse;
using pdx::index_t;

namespace {

// burst-tenants: four small 2-D tenants (1k-4k rows). Auto resolves them
// to serial plans, so the pool and the parallel executors stay idle and
// admission, strip packing and the BatchDriver screen carry the load.
constexpr index_t kBurstGrids[] = {32, 40, 48, 64};
constexpr std::uint32_t kBurstRhs = 8;
// Every burst carries 8 jobs per tenant in a seeded order: the same work
// each time, so a burst drains in about a third of a period, is served
// before the next falls due, and no backlog builds. A 30 s window then
// holds 1,920 jobs, whose tail rung is p99 (19 samples beyond it).
constexpr std::uint32_t kBurstSize = 32;
constexpr double kBurstPeriodMs = 500.0;

// closed-large: one 3-D tenant of 125,000 rows whose factor (~17 MiB)
// is far past a 2 MiB per-core L2 and inside a ~100 MiB L3. A job takes
// about 0.55 s on a 4-core x86-64 host, so a window serves 1.8 jobs per
// second of it: 54 in 30 s, whose tail rung is p75.
constexpr index_t kLargeEdge = 50;
constexpr std::uint32_t kLargeRhs = 4;
constexpr double kLargeJobsPerSecond = 1.8;

// timestep: A(t) = I + dt K(t) on a 384 x 384 grid. A small dt keeps the
// solves to a handful of iterations, so the per-step refactor and plan
// refresh are a large share of the step.
constexpr index_t kStepEdge = 384;
constexpr double kStepDt = 0.05;
constexpr std::uint32_t kStepPhases = 4;
constexpr std::uint32_t kStepRhs = 5;
// Each step solves for one to three right-hand sides, and every block of
// three steps holds one step of each size in a seeded order: every seed
// serves the same work, and the three-solve steps are a third of all, so
// the step-latency tail (p95) is theirs rather than whichever steps a
// noisy moment of the machine slowed. A step takes about 0.1 s, so a
// window serves ten steps per second of it (rounded up to whole blocks):
// 300 in 30 s, whose tail rung is p95.
constexpr std::uint32_t kStepMaxSolves = 3;
constexpr double kStepsPerSecond = 10.0;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  pdx::gen::SplitMix64 r(a ^ (b * 0x9E3779B97F4A7C15ull));
  return r.next();
}

/// Log-uniform coefficient field in [1/2, 2], one value per grid point.
std::vector<double> coefficient_field(index_t n, std::uint64_t seed) {
  pdx::gen::SplitMix64 rng(seed);
  std::vector<double> c(static_cast<std::size_t>(n));
  for (double& v : c) v = std::exp(std::numbers::ln2 * rng.next_double(-1.0, 1.0));
  return c;
}

/// Rewrite the values of a unit stencil (gen::five_point / seven_point
/// pattern) as shift*I + scale*K, where K is the variable-coefficient
/// operator with face coefficient (c_i + c_j)/2 and Dirichlet faces on
/// the boundary (a missing neighbour contributes c_i to the diagonal).
/// Symmetric and diagonally dominant, hence SPD: CG applies.
void assign_coefficients(sp::Csr& a, int dim, const std::vector<double>& c,
                         double shift, double scale) {
  for (index_t i = 0; i < a.rows; ++i) {
    const double ci = c[static_cast<std::size_t>(i)];
    double diag = 0.0;
    index_t diag_pos = -1;
    int neighbours = 0;
    for (index_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      const index_t j = a.idx[static_cast<std::size_t>(k)];
      if (j == i) {
        diag_pos = k;
        continue;
      }
      const double w = 0.5 * (ci + c[static_cast<std::size_t>(j)]);
      a.val[static_cast<std::size_t>(k)] = -scale * w;
      diag += w;
      ++neighbours;
    }
    diag += (2 * dim - neighbours) * ci;
    a.val[static_cast<std::size_t>(diag_pos)] = shift + scale * diag;
  }
}

std::vector<std::vector<double>> rhs_pool(index_t n, std::uint32_t count,
                                          std::uint64_t seed) {
  std::vector<std::vector<double>> pool(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    pdx::gen::SplitMix64 rng(mix(seed, r));
    pool[r].resize(static_cast<std::size_t>(n));
    for (double& v : pool[r]) v = rng.next_double(-1.0, 1.0);
  }
  return pool;
}

}  // namespace

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::kBurstTenants: return "burst-tenants";
    case Workload::kClosedLarge: return "closed-large";
    case Workload::kTimestep: return "timestep";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  for (Workload w : {Workload::kBurstTenants, Workload::kClosedLarge,
                     Workload::kTimestep}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::vector<JobSpec> Inputs::step(std::uint64_t s) const {
  pdx::gen::SplitMix64 rng(mix(seed ^ 0x53746570ull, s));
  std::vector<JobSpec> jobs;
  switch (workload) {
    case Workload::kBurstTenants: {
      std::vector<std::uint32_t> slots(burst_size);
      for (std::uint32_t k = 0; k < burst_size; ++k) {
        slots[k] = k % static_cast<std::uint32_t>(tenants.size());
      }
      pdx::gen::shuffle(slots, rng);
      for (std::uint32_t t : slots) {
        jobs.push_back(
            {.tenant = t,
             .rhs = static_cast<std::uint32_t>(rng.next_below(kBurstRhs)),
             .due_ms = static_cast<double>(s) * burst_period_ms});
      }
      break;
    }
    case Workload::kClosedLarge:
      jobs.push_back(
          {.rhs = static_cast<std::uint32_t>(rng.next_below(kLargeRhs))});
      break;
    case Workload::kTimestep: {
      std::vector<std::uint32_t> sizes(kStepMaxSolves);
      for (std::uint32_t k = 0; k < kStepMaxSolves; ++k) sizes[k] = k + 1;
      pdx::gen::SplitMix64 block(mix(seed ^ 0x426c6f63ull, s / kStepMaxSolves));
      pdx::gen::shuffle(sizes, block);
      const std::uint32_t solves = sizes[s % kStepMaxSolves];
      const auto first = rng.next_below(kStepRhs);
      for (std::uint64_t k = 0; k < solves; ++k) {
        jobs.push_back(
            {.rhs = static_cast<std::uint32_t>((first + k) % kStepRhs),
             .values = static_cast<std::uint32_t>(s % kStepPhases)});
      }
      break;
    }
  }
  return jobs;
}

std::uint64_t Inputs::step_count(double seconds) const {
  switch (workload) {
    case Workload::kBurstTenants:
      return std::max<std::uint64_t>(
          static_cast<std::uint64_t>(seconds * 1e3 / burst_period_ms), 1);
    case Workload::kClosedLarge:
      return std::max<std::uint64_t>(
          static_cast<std::uint64_t>(std::llround(seconds * kLargeJobsPerSecond)),
          1);
    case Workload::kTimestep: {
      const auto steps = static_cast<std::uint64_t>(
          std::ceil(seconds * kStepsPerSecond / kStepMaxSolves));
      return std::max<std::uint64_t>(steps, 1) * kStepMaxSolves;
    }
  }
  return 1;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  switch (w) {
    case Workload::kBurstTenants: {
      std::uint64_t t = 0;
      for (index_t g : kBurstGrids) {
        TenantInput ti;
        ti.label = "5pt-" + std::to_string(g) + "x" + std::to_string(g);
        ti.a = pdx::gen::five_point(g, g);
        assign_coefficients(ti.a, 2, coefficient_field(ti.a.rows, mix(seed, 100 + t)),
                            0.0, 1.0);
        ti.rhs = rhs_pool(ti.a.rows, kBurstRhs, mix(seed, 200 + t));
        in.tenants.push_back(std::move(ti));
        ++t;
      }
      in.burst_size = kBurstSize;
      in.burst_period_ms = kBurstPeriodMs;
      break;
    }
    case Workload::kClosedLarge: {
      TenantInput ti;
      ti.label = "7pt-" + std::to_string(kLargeEdge) + "^3";
      ti.a = pdx::gen::seven_point(kLargeEdge, kLargeEdge, kLargeEdge);
      assign_coefficients(ti.a, 3, coefficient_field(ti.a.rows, mix(seed, 100)),
                          0.0, 1.0);
      ti.rhs = rhs_pool(ti.a.rows, kLargeRhs, mix(seed, 200));
      in.tenants.push_back(std::move(ti));
      break;
    }
    case Workload::kTimestep: {
      TenantInput ti;
      ti.label = "5pt-" + std::to_string(kStepEdge) + "x" +
                 std::to_string(kStepEdge) + "-implicit";
      const sp::Csr pattern = pdx::gen::five_point(kStepEdge, kStepEdge);
      const std::vector<double> c0 = coefficient_field(pattern.rows, mix(seed, 100));
      const std::vector<double> phase = coefficient_field(pattern.rows, mix(seed, 101));
      // K(t_p): the base field modulated by a travelling wave, so every
      // step's values differ from the previous step's.
      for (std::uint32_t p = 0; p < kStepPhases; ++p) {
        std::vector<double> c(c0.size());
        for (std::size_t i = 0; i < c.size(); ++i) {
          c[i] = c0[i] * (1.0 + 0.3 * std::sin(2.0 * std::numbers::pi *
                                                   (p / double(kStepPhases)) +
                                               4.0 * phase[i]));
        }
        sp::Csr a = pattern;
        assign_coefficients(a, 2, c, 1.0, kStepDt);
        in.value_sets.push_back(std::move(a));
      }
      ti.a = in.value_sets[0];
      ti.rhs = rhs_pool(ti.a.rows, kStepRhs, mix(seed, 200));
      in.tenants.push_back(std::move(ti));
      break;
    }
  }
  return in;
}

void Digest::add_u64(std::uint64_t w) noexcept {
  h_ ^= w + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
  h_ *= 0xff51afd7ed558ccdull;
  h_ ^= h_ >> 33;
}

void Digest::add(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    add_u64(w);
  }
  if (i < bytes) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, bytes - i);
    add_u64(w);
  }
  add_u64(bytes);
}

std::uint64_t input_digest(const Inputs& in, std::uint64_t steps) {
  Digest d;
  const auto add_csr = [&d](const sp::Csr& a) {
    d.add_u64(static_cast<std::uint64_t>(a.rows));
    d.add(a.ptr);
    d.add(a.idx);
    d.add(a.val);
  };
  for (const TenantInput& t : in.tenants) {
    add_csr(t.a);
    for (const auto& b : t.rhs) d.add(b);
  }
  for (const sp::Csr& a : in.value_sets) add_csr(a);
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (const JobSpec& j : in.step(s)) {
      d.add_u64(j.tenant);
      d.add_u64(j.rhs);
      d.add_u64(j.values);
      d.add(&j.due_ms, sizeof j.due_ms);
    }
  }
  return d.value();
}

std::size_t factor_bytes(const sp::Csr& a) noexcept {
  const auto n = static_cast<std::size_t>(a.rows);
  const auto entries = static_cast<std::size_t>(a.nnz()) + n;
  return entries * (sizeof(double) + sizeof(index_t)) +
         2 * (n + 1) * sizeof(index_t);
}

}  // namespace perfbench
