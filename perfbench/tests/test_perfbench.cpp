// Tests of the benchmark's own arithmetic: the tail-percentile rule, span
// self times, strip grouping from dequeue instants, and input generation
// being a pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "inputs.hpp"
#include "metrics.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(TailPercentile, HighestRungWithTenSamplesBeyond) {
  // 2000 samples: p99.5 leaves exactly 10 beyond, p99.9 only 2.
  Tail t = tail_percentile(one_to(2000));
  EXPECT_EQ(t.percentile, 99.5);
  EXPECT_EQ(t.value, 1990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 2000u);

  // 1000 samples: p99 leaves 10; 999 samples: p99 leaves 9, so p95.
  EXPECT_EQ(tail_percentile(one_to(1000)).percentile, 99.0);
  t = tail_percentile(one_to(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.beyond, 49u);

  // 45 samples (a short closed loop): p75 leaves 11, p90 only 4.
  t = tail_percentile(one_to(45));
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.value, 34.0);
  EXPECT_EQ(t.beyond, 11u);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  const Tail t = tail_percentile(v);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 190.0);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMedianRung) {
  const Tail t = tail_percentile(one_to(15));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 8.0);
  EXPECT_EQ(t.beyond, 7u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(UnionLength, OverlapsCountOnce) {
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {5, 15}, {20, 25}, {21, 22}}), 20.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{3, 3}, {4, 2}}), 0.0);
}

TEST(SelfTime, DurationMinusChildCoverage) {
  // parent [0,100]; children overlap each other and one runs past the
  // parent's end; the grandchild only reduces its own parent.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 7},  {"a", 10, 30, 0, 7},  {"b", 20, 50, 0, 7},
      {"c", 90, 120, 0, 7},     {"a.x", 12, 18, 1, 7},
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 6.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 6.0);
}

TEST(SelfTime, TracerLinksParentsAndJobs) {
  Tracer t(true);
  {
    ScopedSpan outer(t, "pcg", 3);
    { ScopedSpan inner(t, "Preconditioner.apply", 3); }
    { ScopedSpan inner(t, "Preconditioner.apply", 3); }
  }
  { ScopedSpan other(t, "sparse.spmv"); }
  ASSERT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[3].parent, -1);
  EXPECT_EQ(t.spans()[1].job, 3);
  EXPECT_EQ(t.spans()[3].job, -1);
  const double outer = t.spans()[0].end_us - t.spans()[0].start_us;
  const double inner = (t.spans()[1].end_us - t.spans()[1].start_us) +
                       (t.spans()[2].end_us - t.spans()[2].start_us);
  EXPECT_NEAR(t.self_us("pcg"), outer - inner, 1e-9);

  Tracer off(false);
  { ScopedSpan s(off, "pcg"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(StripGrouping, JobsSharingADequeueInstantFormOneStrip) {
  const std::vector<DequeueRecord> recs = {
      {0, 10.0},   {1, 10.2},   {0, 10.001}, {0, 16.0},
      {0, 10.0003}, {1, 16.0001}, {2, 10.1},
  };
  const auto strips = group_strips(recs, 0.5);
  const std::vector<std::vector<std::size_t>> want = {
      {0, 2, 4}, {6}, {1}, {3}, {5}};
  EXPECT_EQ(strips, want);
}

TEST(StripGrouping, OneJobInFlightGivesStripsOfOne) {
  std::vector<DequeueRecord> recs;
  for (int i = 0; i < 5; ++i) recs.push_back({0, 430.0 * i});
  const auto strips = group_strips(recs, 0.5);
  ASSERT_EQ(strips.size(), 5u);
  for (std::size_t i = 0; i < strips.size(); ++i) {
    EXPECT_EQ(strips[i], std::vector<std::size_t>{i});
  }
}

TEST(Inputs, SameSeedGivesIdenticalBytes) {
  for (Workload w : {Workload::kBurstTenants, Workload::kClosedLarge,
                     Workload::kTimestep}) {
    const Inputs a = make_inputs(w, 11);
    const Inputs b = make_inputs(w, 11);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t k = 0; k < a.tenants.size(); ++k) {
      EXPECT_EQ(a.tenants[k].a.ptr, b.tenants[k].a.ptr);
      EXPECT_EQ(a.tenants[k].a.idx, b.tenants[k].a.idx);
      EXPECT_EQ(a.tenants[k].a.val, b.tenants[k].a.val);
      EXPECT_EQ(a.tenants[k].rhs, b.tenants[k].rhs);
    }
    ASSERT_EQ(a.value_sets.size(), b.value_sets.size());
    for (std::size_t p = 0; p < a.value_sets.size(); ++p) {
      EXPECT_EQ(a.value_sets[p].val, b.value_sets[p].val);
    }
    EXPECT_EQ(input_digest(a, 500), input_digest(b, 500)) << to_string(w);
    EXPECT_NE(input_digest(a, 500), input_digest(make_inputs(w, 12), 500))
        << to_string(w);
  }
}

TEST(Inputs, OperatorsAreSymmetricAndDiagonallyDominant) {
  const Inputs in = make_inputs(Workload::kTimestep, 3);
  for (const pdx::sparse::Csr& a : {in.tenants[0].a, in.value_sets[3]}) {
    for (pdx::index_t i = 0; i < a.rows; ++i) {
      double off = 0.0;
      for (pdx::index_t k = a.row_begin(i); k < a.row_end(i); ++k) {
        const pdx::index_t j = a.idx[static_cast<std::size_t>(k)];
        if (j == i) continue;
        off += std::abs(a.val[static_cast<std::size_t>(k)]);
        ASSERT_EQ(a.val[static_cast<std::size_t>(k)], a.at(j, i));
      }
      ASSERT_GT(a.at(i, i), off);
    }
  }
  // Consecutive steps carry different values over one pattern.
  EXPECT_EQ(in.value_sets[0].idx, in.value_sets[1].idx);
  EXPECT_NE(in.value_sets[0].val, in.value_sets[1].val);
}

TEST(Inputs, OpenLoopScheduleIsFixedBursts) {
  const Inputs in = make_inputs(Workload::kBurstTenants, 5);
  const std::uint64_t bursts = in.step_count(10.0);
  EXPECT_EQ(bursts, static_cast<std::uint64_t>(10e3 / in.burst_period_ms));
  for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{1}, bursts - 1}) {
    const std::vector<JobSpec> jobs = in.step(s);
    ASSERT_EQ(jobs.size(), in.burst_size);
    std::vector<int> per_tenant(in.tenants.size());
    for (const JobSpec& j : jobs) {
      EXPECT_EQ(j.due_ms, static_cast<double>(s) * in.burst_period_ms);
      ++per_tenant[j.tenant];
    }
    // Every burst carries the same work: an equal share per tenant.
    for (int n : per_tenant) EXPECT_EQ(n, 8);
  }
  EXPECT_NE(in.step(0)[0].tenant * 100 + in.step(0)[1].tenant,
            in.step(1)[0].tenant * 100 + in.step(1)[1].tenant);
}

TEST(Inputs, TimestepStepsShareOneValueSet) {
  const Inputs in = make_inputs(Workload::kTimestep, 9);
  std::vector<int> orders;
  for (std::uint64_t block = 0; block < 60; ++block) {
    // Every block of three steps holds one step of each size.
    std::vector<int> sizes;
    for (std::uint64_t s = 3 * block; s < 3 * block + 3; ++s) {
      const std::vector<JobSpec> jobs = in.step(s);
      sizes.push_back(static_cast<int>(jobs.size()));
      for (const JobSpec& j : jobs) {
        EXPECT_EQ(j.values, jobs.front().values);
        EXPECT_NE(&in.op(j), &in.op(in.step(s + 1).front()));
      }
    }
    orders.push_back(sizes[0] * 100 + sizes[1] * 10 + sizes[2]);
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, (std::vector<int>{1, 2, 3})) << block;
  }
  // ... in a seeded order.
  std::sort(orders.begin(), orders.end());
  EXPECT_GT(std::unique(orders.begin(), orders.end()) - orders.begin(), 3);
}

TEST(Inputs, StepCountFollowsTheWindowNotTheMachine) {
  const Inputs burst = make_inputs(Workload::kBurstTenants, 1);
  const Inputs large = make_inputs(Workload::kClosedLarge, 1);
  const Inputs step = make_inputs(Workload::kTimestep, 1);
  EXPECT_EQ(burst.step_count(30.0), 60u);
  EXPECT_EQ(large.step_count(30.0), 54u);
  EXPECT_EQ(step.step_count(30.0), 300u);
  // A traced run's quarter windows; timestep keeps whole blocks of three.
  EXPECT_EQ(burst.step_count(7.5), 15u);
  EXPECT_EQ(large.step_count(7.5), 14u);
  EXPECT_EQ(step.step_count(7.5), 75u);
  EXPECT_EQ(step.step_count(0.01), 3u);
  EXPECT_EQ(large.step_count(0.01), 1u);
}
