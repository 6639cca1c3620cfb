//===- tests/loadgen/LoadgenTest.cpp - Loadgen statistics core ------------===//
//
// The statistics underneath st-loadgen's tail-latency claims, pinned
// against first principles: the exponential sampler against the
// distribution's analytic mean and coefficient of variation, histogram
// percentiles against exact sorted-sample order statistics, merge
// against associativity/commutativity (the property that makes
// per-worker histograms aggregate without re-weighting), the
// request-payload builder against its determinism contract (same seed,
// same bytes — the basis of "identical per-connection event streams"),
// and the per-request accounting when no server is there at all.
//
//===----------------------------------------------------------------------===//

#include "loadgen/ExpArrivals.h"
#include "loadgen/Histogram.h"
#include "loadgen/Loadgen.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

using namespace st;

namespace {

//===----------------------------------------------------------------------===//
// ExpArrivals
//===----------------------------------------------------------------------===//

TEST(ExpArrivals, MeanAndCVMatchExponential) {
  // Exp(mean) has CV = stddev/mean = 1 exactly. At 200k draws the
  // standard error of the sample mean is mean/sqrt(n) ~ 0.22%, so a 2%
  // tolerance is ~9 sigma — deterministic in practice, and a real
  // sampler bug (uniform, half-range, off-by-e) lands far outside it.
  constexpr double Mean = 1e6;
  constexpr size_t N = 200000;
  ExpArrivals Sampler(/*Seed=*/12345, Mean);
  double Sum = 0, SumSq = 0;
  for (size_t I = 0; I != N; ++I) {
    double V = static_cast<double>(Sampler.nextGapNs());
    Sum += V;
    SumSq += V * V;
  }
  double SampleMean = Sum / N;
  double Var = SumSq / N - SampleMean * SampleMean;
  double CV = std::sqrt(Var) / SampleMean;
  EXPECT_NEAR(SampleMean, Mean, 0.02 * Mean);
  EXPECT_NEAR(CV, 1.0, 0.03);
}

TEST(ExpArrivals, SameSeedSameSchedule) {
  ExpArrivals A(/*Seed=*/99, 5e5), B(/*Seed=*/99, 5e5);
  for (int I = 0; I != 1000; ++I)
    ASSERT_EQ(A.nextGapNs(), B.nextGapNs()) << "draw " << I;
}

TEST(ExpArrivals, DistinctWorkersGetDecorrelatedSeeds) {
  // Worker seeds must differ (and not collapse to consecutive states of
  // one stream — SplitMix64 would survive that, but the mix is the
  // documented contract).
  EXPECT_NE(arrivalSeed(42, 0), arrivalSeed(42, 1));
  EXPECT_NE(arrivalSeed(42, 0), arrivalSeed(43, 0));
  EXPECT_NE(mixSeed(1, 2), mixSeed(2, 1));
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, BucketGeometry) {
  // Every value must land in a bucket whose [low, low+width) range
  // contains it, across the exact-unit range, octave boundaries, and
  // the clamped top.
  std::vector<uint64_t> Values = {0,    1,    31,        32,      33,
                                  63,   64,   1000,      4095,    4096,
                                  4097, 1u << 20,        (1u << 20) + 17,
                                  uint64_t(1) << 41,     UINT64_MAX};
  for (uint64_t V : Values) {
    size_t Idx = LatencyHistogram::bucketIndex(V);
    ASSERT_LT(Idx, LatencyHistogram::BucketCount) << V;
    uint64_t Low = LatencyHistogram::bucketLow(Idx);
    uint64_t Width = LatencyHistogram::bucketWidth(Idx);
    if (V < (uint64_t(1) << LatencyHistogram::MaxValueBits)) {
      EXPECT_LE(Low, V) << V;
      EXPECT_LT(V - Low, Width) << V;
    } else {
      EXPECT_EQ(Idx, LatencyHistogram::BucketCount - 1) << V;
    }
  }
  // Bucket lows are strictly increasing: the layout is a partition.
  for (size_t I = 1; I != LatencyHistogram::BucketCount; ++I)
    ASSERT_LT(LatencyHistogram::bucketLow(I - 1),
              LatencyHistogram::bucketLow(I));
}

TEST(LatencyHistogram, PercentilesMatchExactOrderStatistics) {
  // Golden check against exact sorted-sample percentiles on an
  // exponential-ish latency shape. The layout guarantees <= 1/32
  // relative bucket width; 5% tolerance covers the bucket-midpoint
  // representation at every quantile including the sparse p999 tail.
  ExpArrivals Sampler(/*Seed=*/777, /*MeanGapNs=*/2e6);
  LatencyHistogram H;
  std::vector<uint64_t> Exact;
  constexpr size_t N = 100000;
  for (size_t I = 0; I != N; ++I) {
    uint64_t V = Sampler.nextGapNs() + 50000; // shifted: a latency floor
    H.record(V);
    Exact.push_back(V);
  }
  std::sort(Exact.begin(), Exact.end());
  ASSERT_EQ(H.count(), N);
  EXPECT_EQ(H.min(), Exact.front());
  EXPECT_EQ(H.max(), Exact.back());
  for (double Q : {0.50, 0.90, 0.99, 0.999}) {
    uint64_t Want =
        Exact[static_cast<size_t>(std::ceil(Q * N)) - 1];
    uint64_t Got = H.percentile(Q);
    EXPECT_NEAR(static_cast<double>(Got), static_cast<double>(Want),
                0.05 * static_cast<double>(Want))
        << "q=" << Q;
  }
  // Percentiles are monotone in Q by construction.
  EXPECT_LE(H.percentile(0.50), H.percentile(0.90));
  EXPECT_LE(H.percentile(0.90), H.percentile(0.99));
  EXPECT_LE(H.percentile(0.99), H.percentile(0.999));
  EXPECT_LE(H.percentile(0.999), H.max());
}

TEST(LatencyHistogram, EmptyHistogramIsInert) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
  EXPECT_EQ(H.percentile(0.99), 0u);
}

/// Fills a histogram (and optionally a sample list) from a seeded
/// stream mixing three magnitude regimes so merges cross octaves.
LatencyHistogram sampleHistogram(uint64_t Seed, size_t N,
                                 std::vector<uint64_t> *All = nullptr) {
  Rng R(Seed);
  LatencyHistogram H;
  for (size_t I = 0; I != N; ++I) {
    uint64_t V;
    switch (R.nextBelow(3)) {
    case 0:
      V = R.nextBelow(100); // sub-bucket-exact range
      break;
    case 1:
      V = R.nextBelow(1u << 20); // mid octaves
      break;
    default:
      V = R.nextBelow(uint64_t(1) << 44); // includes clamped values
      break;
    }
    H.record(V);
    if (All)
      All->push_back(V);
  }
  return H;
}

void expectIdentical(const LatencyHistogram &A, const LatencyHistogram &B) {
  ASSERT_EQ(A.count(), B.count());
  EXPECT_EQ(A.min(), B.min());
  EXPECT_EQ(A.max(), B.max());
  EXPECT_EQ(A.mean(), B.mean());
  for (size_t I = 0; I != LatencyHistogram::BucketCount; ++I)
    ASSERT_EQ(A.bucketCount(I), B.bucketCount(I)) << "bucket " << I;
}

TEST(LatencyHistogram, MergeIsAssociativeCommutativeAndLossless) {
  // The property that makes per-worker aggregation sound: merging is
  // elementwise counter addition, so any merge tree over any worker
  // order equals recording every sample into one histogram. This is
  // also why the coordinated-omission correction (applied per sample
  // at record time) survives aggregation — merge cannot re-weight.
  std::vector<uint64_t> All;
  LatencyHistogram A = sampleHistogram(1, 4001, &All);
  LatencyHistogram B = sampleHistogram(2, 1777, &All);
  LatencyHistogram C = sampleHistogram(3, 2903, &All);

  LatencyHistogram One;
  for (uint64_t V : All)
    One.record(V);

  // (A + B) + C
  LatencyHistogram AB = A;
  AB.merge(B);
  LatencyHistogram AB_C = AB;
  AB_C.merge(C);
  // A + (B + C)
  LatencyHistogram BC = B;
  BC.merge(C);
  LatencyHistogram A_BC = A;
  A_BC.merge(BC);
  // C + (B + A): commutativity across a different order
  LatencyHistogram BA = B;
  BA.merge(A);
  LatencyHistogram C_BA = C;
  C_BA.merge(BA);

  expectIdentical(AB_C, A_BC);
  expectIdentical(AB_C, C_BA);
  expectIdentical(AB_C, One);

  // Merging an empty histogram is the identity.
  LatencyHistogram Empty;
  LatencyHistogram AE = A;
  AE.merge(Empty);
  expectIdentical(AE, A);
}

//===----------------------------------------------------------------------===//
// Request payload determinism
//===----------------------------------------------------------------------===//

TEST(RequestPayload, SameSeedSameBytes) {
  LoadgenOptions Opts;
  Opts.Workload = "avrora";
  Opts.EventsPerRequest = 300;
  Opts.Seed = 4242;
  for (EventCountDist D : {EventCountDist::Fixed, EventCountDist::Uniform,
                           EventCountDist::Exponential}) {
    Opts.Dist = D;
    for (unsigned W = 0; W != 3; ++W) {
      for (uint64_t K = 0; K != 3; ++K) {
        RequestPayload P1 = buildRequestPayload(Opts, W, K);
        RequestPayload P2 = buildRequestPayload(Opts, W, K);
        ASSERT_EQ(P1.Bytes, P2.Bytes) << "w=" << W << " k=" << K;
        ASSERT_EQ(P1.Events, P2.Events);
        ASSERT_GT(P1.Events, 0u);
        ASSERT_FALSE(P1.Bytes.empty());
      }
    }
  }
}

TEST(RequestPayload, DistinctRequestsGetDistinctStreams) {
  LoadgenOptions Opts;
  Opts.Workload = "avrora";
  Opts.EventsPerRequest = 300;
  Opts.Seed = 4242;
  RequestPayload W0K0 = buildRequestPayload(Opts, 0, 0);
  RequestPayload W0K1 = buildRequestPayload(Opts, 0, 1);
  RequestPayload W1K0 = buildRequestPayload(Opts, 1, 0);
  EXPECT_NE(W0K0.Bytes, W0K1.Bytes);
  EXPECT_NE(W0K0.Bytes, W1K0.Bytes);
  // A different top-level seed reshuffles every request stream.
  Opts.Seed = 4243;
  EXPECT_NE(buildRequestPayload(Opts, 0, 0).Bytes, W0K0.Bytes);
}

TEST(RequestPayload, DistributionsRespectTheirRanges) {
  LoadgenOptions Opts;
  Opts.Workload = "avrora";
  Opts.EventsPerRequest = 400;
  Opts.Seed = 7;
  // The generator stops at the first block boundary past the target, so
  // emitted counts overshoot by at most a block; a generous factor
  // still separates the distributions' envelopes from runaways.
  Opts.Dist = EventCountDist::Uniform;
  for (uint64_t K = 0; K != 16; ++K) {
    RequestPayload P = buildRequestPayload(Opts, 0, K);
    EXPECT_GE(P.Events, 1u);
    EXPECT_LE(P.Events, 4 * Opts.EventsPerRequest);
  }
  Opts.Dist = EventCountDist::Exponential;
  for (uint64_t K = 0; K != 16; ++K) {
    RequestPayload P = buildRequestPayload(Opts, 0, K);
    EXPECT_GE(P.Events, 1u);
    EXPECT_LE(P.Events, 16 * Opts.EventsPerRequest);
  }
}

TEST(Loadgen, ArrivalRateComposition) {
  // C workers at per-worker mean gap g compose to the target event
  // rate: R = C * (1/g) * eventsPerRequest.
  LoadgenOptions Opts;
  Opts.EventsPerSec = 120000;
  Opts.EventsPerRequest = 1500;
  Opts.Connections = 6;
  double GapNs = meanArrivalGapNs(Opts);
  double ComposedEventsPerSec = Opts.Connections * (1e9 / GapNs) *
                                static_cast<double>(Opts.EventsPerRequest);
  EXPECT_NEAR(ComposedEventsPerSec, Opts.EventsPerSec,
              1e-6 * Opts.EventsPerSec);
}

TEST(Loadgen, RejectsBrokenConfigurations) {
  LoadgenReport Report;
  std::string Err;
  LoadgenOptions Opts;
  Opts.Connect = "not an address";
  EXPECT_FALSE(runLoadgen(Opts, Report, &Err));
  EXPECT_FALSE(Err.empty());

  Opts.Connect = "unix:/tmp/definitely-parseable.sock";
  Opts.Workload = "no-such-profile";
  EXPECT_FALSE(runLoadgen(Opts, Report, &Err));
  EXPECT_NE(Err.find("no-such-profile"), std::string::npos);

  Opts.Workload = "avrora";
  Opts.EventsPerSec = 0;
  EXPECT_FALSE(runLoadgen(Opts, Report, &Err));
}

TEST(Loadgen, FailedConnectsStillReachTheHook) {
  // Nothing listens on the path, so every connect fails: each request
  // is still one counted error and one hook call, which is what lets a
  // caller's per-request records close against Requests. Each failure
  // is recorded at its scheduled instant, not ahead of it, so the run
  // lasts until the last one.
  char Path[96];
  std::snprintf(Path, sizeof(Path), "/tmp/st_loadgen_dead_%d.sock",
                static_cast<int>(::getpid()));
  ::unlink(Path);
  LoadgenOptions Opts;
  Opts.Connect = std::string("unix:") + Path;
  Opts.Connections = 2;
  Opts.DurationSeconds = 0.2;
  Opts.EventsPerSec = 200000;
  std::atomic<uint64_t> Calls{0}, Failed{0};
  Opts.OnRequest = [&](unsigned, uint64_t, const RequestOutcome &O) {
    ++Calls;
    Failed += !O.Ok;
  };
  LoadgenReport Report;
  std::string Err;
  ASSERT_TRUE(runLoadgen(Opts, Report, &Err)) << Err;
  EXPECT_GT(Report.Requests, 0u);
  EXPECT_EQ(Report.Errors, Report.Requests);
  EXPECT_EQ(Calls.load(), Report.Requests);
  EXPECT_EQ(Failed.load(), Report.Requests);

  // Replay the workers' arrival schedules: every scheduled instant is one
  // request, and the run cannot end before the last of them.
  const uint64_t DurationNs =
      static_cast<uint64_t>(Opts.DurationSeconds * 1e9);
  uint64_t Scheduled = 0, LastNs = 0;
  for (unsigned W = 0; W != Opts.Connections; ++W) {
    ExpArrivals Arrivals(arrivalSeed(Opts.Seed, W), meanArrivalGapNs(Opts));
    for (uint64_t At = Arrivals.nextGapNs(); At <= DurationNs;
         At += Arrivals.nextGapNs()) {
      ++Scheduled;
      LastNs = std::max(LastNs, At);
    }
  }
  EXPECT_EQ(Report.Requests, Scheduled);
  EXPECT_GE(Report.WallSeconds * 1e9, static_cast<double>(LastNs))
      << "failed connects were recorded ahead of their instants";
}

} // namespace
