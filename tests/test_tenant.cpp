#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/error.hpp"
#include "hw/trace.hpp"
#include "serve/scheduler.hpp"
#include "serve/tenant.hpp"
#include "sim/online_sim.hpp"

namespace llmpq {
namespace {

ServeRequest treq(int id, double arrival, int prompt, int gen, int tenant = 0,
                  int cls = 0) {
  ServeRequest r;
  r.id = id;
  r.arrival_s = arrival;
  r.prompt_len = prompt;
  r.gen_tokens = gen;
  r.tenant_id = tenant;
  r.req_class = cls;
  return r;
}

TenantSpec tenant(int id, double weight,
                  double slo = std::numeric_limits<double>::infinity()) {
  TenantSpec t;
  t.id = id;
  t.weight = weight;
  t.slo_s = slo;
  return t;
}

/// Drives the scheduler to completion with a fixed virtual timestep,
/// recording each dispatch decision with the clock value it was made at —
/// the regression tests below reconstruct wait intervals from this log.
struct TimedDecision {
  DispatchDecision d;
  double at = 0.0;
};

std::vector<TimedDecision> drive(ServeScheduler& s, double dt,
                                 int guard_limit = 500) {
  std::vector<TimedDecision> log;
  double t = 0.0;
  for (int guard = 0;; ++guard) {
    EXPECT_LT(guard, guard_limit) << "scheduler failed to converge";
    if (guard >= guard_limit) break;
    SchedulerAction a = s.next(t);
    if (a.kind == SchedulerAction::Kind::kDone) break;
    if (a.kind == SchedulerAction::Kind::kWait) {
      EXPECT_GT(a.wait_until, t) << "wait must advance the clock";
      t = a.wait_until;
      continue;
    }
    log.push_back({a.decision, t});
    t += dt;
    s.complete(a.decision, t);
  }
  return log;
}

// ---------------------------------------------------------------------------
// Weighted fair sharing: admission order under backlog.
// ---------------------------------------------------------------------------

TEST(TenantFairShare, WeightedAdmissionFavorsHeavierTenant) {
  // Tenant 1 (weight 2) submits AFTER tenant 2 (weight 1), yet under a
  // shared backlog the fair-share pass must give it two of the three batch
  // slots: picks follow ascending virtual service (tokens / weight), not
  // FIFO arrival order.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 3;
  opt.tenants = {tenant(1, 2.0), tenant(2, 1.0)};
  ServeScheduler s(opt);
  for (int i = 0; i < 3; ++i) s.submit(treq(i, 0.0, 8, 2, /*tenant=*/2));
  for (int i = 3; i < 6; ++i) s.submit(treq(i, 0.0, 8, 2, /*tenant=*/1));
  s.close();

  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  // Both accounts start at zero; the tie goes to the first spec (tenant
  // 1), whose 10-token pick costs only 5 virtual units at weight 2 — so it
  // wins again on the third slot.
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{3, 0, 4}));
  EXPECT_EQ(a.decision.tenants, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(a.decision.classes, (std::vector<int>{0, 0, 0}));
}

TEST(TenantFairShare, LegacyModeKeepsFifoOrderAndStampsZeroTenants) {
  // No tenants configured: the decision log must be the historical FIFO
  // order (committed parity baselines depend on it), with the new tenant/
  // class columns stamped as zeros.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 3;
  ServeScheduler s(opt);
  for (int i = 0; i < 3; ++i) s.submit(treq(i, 0.0, 8, 2, /*tenant=*/2));
  for (int i = 3; i < 6; ++i) s.submit(treq(i, 0.0, 8, 2, /*tenant=*/1));
  s.close();

  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1, 2}));
  // Without specs the tenant field is carried to stats but the decision
  // stamps reflect the submitted ids verbatim.
  EXPECT_EQ(a.decision.tenants, (std::vector<int>{2, 2, 2}));
}

TEST(TenantFairShare, IdleTenantCannotBankFairShareCredit) {
  // Tenant 2 sits idle while tenant 1 burns 24 virtual units of service.
  // When tenant 2's first request arrives its account must be lifted to
  // the smallest account among tenants still holding rows — so the next
  // free slot goes to tenant 1's queued backlog (tie, first spec wins),
  // not to a returning tenant wielding an artificial deficit.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 2;
  opt.tenants = {tenant(1, 1.0), tenant(2, 1.0)};
  ServeScheduler s(opt);
  s.submit(treq(0, 0.0, 8, 6, 1));
  s.submit(treq(1, 0.0, 8, 2, 1));
  s.submit(treq(2, 0.0, 8, 4, 1));
  s.submit(treq(3, 0.0, 8, 4, 1));
  s.submit(treq(10, 1.0, 8, 4, 2));
  s.submit(treq(11, 1.0, 8, 4, 2));
  s.close();

  SchedulerAction a = s.next(0.0);  // prefill {0, 1}: tenant 1 charged 24
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  ASSERT_EQ(a.decision.request_ids, (std::vector<int>{0, 1}));
  s.complete(a.decision, 0.5);

  a = s.next(0.5);  // decode round; request 1 (gen 2) retires after it
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  ASSERT_EQ(a.decision.phase, ServePhase::kDecodePass);
  s.complete(a.decision, 1.0);

  // One slot free, request 0 still active (tenant 1 holds rows at account
  // 24). Tenant 2's account is clamped up from 0 to 24, so the tie-break
  // admits tenant 1's queued request 2 — not tenant 2's request 10.
  a = s.next(1.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  ASSERT_EQ(a.decision.phase, ServePhase::kPrefillPass);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{2}));
  EXPECT_EQ(a.decision.tenants, (std::vector<int>{1}));
}

// ---------------------------------------------------------------------------
// admit_scan_limit: the continuous planner examines only a prefix of the
// arrived queue. Decision-neutral in legacy mode once the limit covers a
// full batch, and with tenants once it covers a batch of every tenant.
// ---------------------------------------------------------------------------

SchedulerOptions scan_options(int limit) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.exec = DecodeExec::kContinuous;
  opt.max_batch = 4;
  opt.kv_page_size = 4;
  opt.kv_pages = 10;
  opt.admit_scan_limit = limit;
  return opt;
}

std::vector<TimedDecision> drive_backlog(const SchedulerOptions& opt,
                                         int requests) {
  ServeScheduler s(opt);
  for (int i = 0; i < requests; ++i)
    s.submit(treq(i, 0.01 * i, 4 + (i * 7) % 13, 2 + (i * 5) % 9));
  s.close();
  return drive(s, 0.25, 2000);
}

void expect_same_log(const std::vector<TimedDecision>& capped,
                     const std::vector<TimedDecision>& unlimited, int limit) {
  ASSERT_EQ(capped.size(), unlimited.size()) << "limit " << limit;
  for (std::size_t i = 0; i < capped.size(); ++i) {
    const DispatchDecision& a = capped[i].d;
    const DispatchDecision& b = unlimited[i].d;
    EXPECT_DOUBLE_EQ(capped[i].at, unlimited[i].at);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.request_ids, b.request_ids) << "limit " << limit;
    EXPECT_EQ(a.contexts, b.contexts);
    EXPECT_EQ(a.num_join, b.num_join);
    EXPECT_EQ(a.preempted, b.preempted);
    EXPECT_EQ(a.forced_joins, b.forced_joins);
  }
}

TEST(AdmitScanLimit, LegacyLimitCoveringABatchKeepsTheDecisionLog) {
  const int requests = 40;  // backlog deeper than every limit below
  const std::vector<TimedDecision> unlimited =
      drive_backlog(scan_options(0), requests);
  ASSERT_FALSE(unlimited.empty());
  bool preempted = false;
  for (const TimedDecision& td : unlimited)
    preempted |= !td.d.preempted.empty();
  EXPECT_TRUE(preempted) << "the page cap must put rows on the resume queue";
  for (const int limit : {4, 5, 8})
    expect_same_log(drive_backlog(scan_options(limit), requests), unlimited,
                    limit);
}

TEST(AdmitScanLimit, TenantLimitCoveringEveryTenantsBatchKeepsTheFairOrder) {
  // 300 arrived rows of tenant 1 with one row of tenant 2 at `b_at`,
  // equal weights, max_batch 16. A limit keeps the unlimited (fair)
  // decision log whenever the scanned prefix holds min(arrived, 16) rows
  // of each tenant: the first b_at + 1 rows when b_at >= 16, else 17.
  // (A limit below that reorders admission today: the cut happens before
  // the fair interleave — see ROADMAP item 6. Not pinned here.)
  const auto run = [](int b_at, int limit) {
    SchedulerOptions opt;
    opt.policy = SchedulerPolicy::kIterationLevel;
    opt.exec = DecodeExec::kContinuous;
    opt.max_batch = 16;
    opt.tenants = {tenant(1, 1.0), tenant(2, 1.0)};
    opt.admit_scan_limit = limit;
    ServeScheduler s(opt);
    for (int i = 0; i < 301; ++i)
      s.submit(treq(i, 0.0, 8, 4, i == b_at ? 2 : 1));
    s.close();
    return drive(s, 0.25, 2000);
  };
  for (const int b_at : {5, 300}) {
    const std::vector<TimedDecision> unlimited = run(b_at, 0);
    ASSERT_FALSE(unlimited.empty());
    const std::vector<int>& first = unlimited[0].d.request_ids;
    ASSERT_EQ(first.size(), 16u);
    EXPECT_EQ(first[0], 0);
    EXPECT_EQ(first[1], b_at) << "tenant 2 joins the first round";
    const int covering = std::max(b_at + 1, 17);
    for (const int limit : {covering, covering + 16, 512})
      expect_same_log(run(b_at, limit), unlimited, limit);
  }
}

// ---------------------------------------------------------------------------
// Resume-wait accounting: preemption-era waiting must land in
// RequestStats::resume_wait_s so waits decompose wall time (the accounting
// gap this PR fixes — queue_delay_s only covers arrival -> first
// admission).
// ---------------------------------------------------------------------------

TEST(TenantAccounting, ResumeWaitCreditsExactParkedInterval) {
  // Same memory-pressure scenario as the continuous-scheduler suite:
  // page_size 4, 6 pages — request 1 is preempted when the ledger
  // overflows and resumes after the survivor retires. Its parked
  // interval, reconstructed from the timed decision log, must equal
  // resume_wait_s to the bit.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.exec = DecodeExec::kContinuous;
  opt.kv_page_size = 4;
  opt.kv_pages = 6;
  ServeScheduler s(opt);
  s.submit(treq(0, 0.0, 10, 8));
  s.submit(treq(1, 0.0, 9, 8));
  s.close();

  const std::vector<TimedDecision> log = drive(s, 0.25);

  // Reconstruct request 1's parked intervals: preemption decision time ->
  // the decision that re-admits it as a joining row.
  double expected_wait = 0.0;
  double parked_at = -1.0;
  for (const TimedDecision& td : log) {
    for (int id : td.d.preempted) {
      if (id == 1) {
        EXPECT_LT(parked_at, 0.0) << "double preemption without resume";
        parked_at = td.at;
      }
    }
    const std::size_t joins = static_cast<std::size_t>(td.d.num_join);
    for (std::size_t i = td.d.request_ids.size() - joins;
         i < td.d.request_ids.size(); ++i) {
      if (td.d.request_ids[i] == 1 && parked_at >= 0.0) {
        expected_wait += td.at - parked_at;
        parked_at = -1.0;
      }
    }
  }
  ASSERT_GT(expected_wait, 0.0) << "scenario must preempt request 1";

  const RequestStats* r1 = nullptr;
  for (const RequestStats& r : s.finished())
    if (r.id == 1) r1 = &r;
  ASSERT_NE(r1, nullptr);
  EXPECT_DOUBLE_EQ(r1->resume_wait_s, expected_wait);
  // Waits decompose wall time: queueing + parked time fits inside
  // arrival -> finish with real service time left over.
  EXPECT_LT(r1->queue_delay_s + r1->resume_wait_s,
            r1->finish_s - r1->arrival_s);
  // The survivor never parked.
  for (const RequestStats& r : s.finished())
    if (r.id == 0) {
      EXPECT_DOUBLE_EQ(r.resume_wait_s, 0.0);
    }
}

// ---------------------------------------------------------------------------
// Starvation bound: a waiting join passed over by a full batch must be
// force-admitted after a bounded number of rounds (the next_continuous
// join-starvation fix), at a deterministic decision seq.
// ---------------------------------------------------------------------------

TEST(TenantAccounting, StarvationBoundForceAdmitsAfterExactRounds) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.exec = DecodeExec::kContinuous;
  opt.max_batch = 1;  // request 1 can never join while 0 runs
  opt.join_starvation_rounds = 3;
  ServeScheduler s(opt);
  s.submit(treq(0, 0.0, 4, 20));
  s.submit(treq(1, 0.0, 4, 2));
  s.close();

  const std::vector<TimedDecision> log = drive(s, 0.25);

  // seq 0: prefill of request 0. seqs 1..2: decode rounds that pass the
  // waiting head over (rounds 1 and 2 of the counter). seq 3: the third
  // pass-over trips the bound — request 0 is preempted and request 1
  // force-admitted.
  ASSERT_GE(log.size(), 4u);
  const DispatchDecision& forced = log[3].d;
  EXPECT_EQ(forced.forced_joins, 1);
  EXPECT_EQ(forced.preempted, std::vector<int>{0});
  EXPECT_EQ(forced.request_ids, std::vector<int>{1});
  EXPECT_EQ(forced.num_join, 1);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(log[i].d.forced_joins, 0) << "seq " << i;
  EXPECT_GE(s.forced_joins(), 1);

  // Bounded worst-case admission delay: request 1 was admitted at the
  // forced decision's clock value, i.e. after exactly prefill + 2 decode
  // rounds of waiting — not after request 0's full 20-token generation.
  const RequestStats* r1 = nullptr;
  for (const RequestStats& r : s.finished())
    if (r.id == 1) r1 = &r;
  ASSERT_NE(r1, nullptr);
  EXPECT_DOUBLE_EQ(r1->admit_s, log[3].at);
  EXPECT_DOUBLE_EQ(r1->queue_delay_s, log[3].at);

  // Everyone still finishes exactly once (request 0 resumes afterwards).
  EXPECT_EQ(s.outcomes().completed, 2);
}

TEST(TenantAccounting, StarvationBoundDefaultsOffWithoutTenants) {
  // join_starvation_rounds = -1 (auto) must resolve to "off" in legacy
  // single-tenant mode so historical continuous decision logs stay
  // bit-identical: the waiting request is passed over indefinitely while
  // the running batch is full.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.exec = DecodeExec::kContinuous;
  opt.max_batch = 1;
  ServeScheduler s(opt);
  s.submit(treq(0, 0.0, 4, 20));
  s.submit(treq(1, 0.0, 4, 2));
  s.close();
  const std::vector<TimedDecision> log = drive(s, 0.25);
  for (const TimedDecision& td : log) EXPECT_EQ(td.d.forced_joins, 0);
  EXPECT_EQ(s.forced_joins(), 0);
  EXPECT_EQ(s.outcomes().completed, 2);
}

// ---------------------------------------------------------------------------
// Per-tenant enforcement: deadlines and admission bounds scoped to a
// tenant, layered on the scheduler's global knobs.
// ---------------------------------------------------------------------------

TEST(TenantEnforcement, PerTenantDeadlineAndAdmissionBound) {
  TenantSpec strict = tenant(1, 1.0, /*slo=*/1.0);
  strict.deadline_s = 2.0;  // enforced, not just measured
  TenantSpec bounded = tenant(2, 1.0);
  bounded.admission_capacity = 1;

  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 1;
  // Tenant 2 first: the zero-account tie-break picks the first spec, so
  // the long request 0 deterministically occupies the only slot.
  opt.tenants = {bounded, strict};
  ServeScheduler s(opt);
  s.submit(treq(0, 0.0, 8, 40, /*tenant=*/2));  // occupies the only slot
  s.submit(treq(1, 0.0, 8, 2, /*tenant=*/1));   // expires waiting at 2.0
  s.submit(treq(2, 0.5, 8, 2, /*tenant=*/2));   // 1 waiting: admitted
  s.submit(treq(3, 0.5, 8, 2, /*tenant=*/2));   // 2 waiting: bounced
  s.close();

  drive(s, 0.25);

  std::map<int, RequestOutcome> by_id;
  for (const RequestStats& r : s.finished()) by_id[r.id] = r.outcome;
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_EQ(by_id[0], RequestOutcome::kCompleted);
  EXPECT_EQ(by_id[1], RequestOutcome::kTimedOut);
  EXPECT_EQ(by_id[2], RequestOutcome::kCompleted);
  EXPECT_EQ(by_id[3], RequestOutcome::kRejected);

  // The per-tenant summaries conserve the tallies and expose the fairness
  // floor CI gates on.
  const std::vector<TenantSummary> sums = s.tenant_summaries();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].tenant, 1);
  EXPECT_EQ(sums[0].submitted, 1);
  EXPECT_EQ(sums[0].timed_out, 1);
  EXPECT_DOUBLE_EQ(sums[0].slo_attainment, 0.0);
  EXPECT_EQ(sums[1].tenant, 2);
  EXPECT_EQ(sums[1].submitted, 3);
  EXPECT_EQ(sums[1].completed, 2);
  EXPECT_EQ(sums[1].rejected, 1);
  EXPECT_DOUBLE_EQ(min_slo_attainment(sums), 0.0);
}

TEST(TenantEnforcement, UnknownTenantIdRejectedAtSubmit) {
  SchedulerOptions opt;
  opt.tenants = {tenant(1, 1.0)};
  ServeScheduler s(opt);
  EXPECT_THROW(s.submit(treq(0, 0.0, 8, 2, /*tenant=*/9)),
               InvalidArgumentError);
}

TEST(TenantEnforcement, NonPositiveWeightRejected) {
  SchedulerOptions opt;
  opt.tenants = {tenant(1, 0.0)};
  EXPECT_THROW(ServeScheduler s(opt), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// summarize_tenants / min_slo_attainment units.
// ---------------------------------------------------------------------------

RequestStats stat(int id, int tenant, RequestOutcome outcome, double latency,
                  int gen = 4) {
  RequestStats r;
  r.id = id;
  r.tenant = tenant;
  r.outcome = outcome;
  r.arrival_s = 0.0;
  r.finish_s = latency;
  r.gen_tokens = gen;
  return r;
}

TEST(TenantSummaries, AggregatesPerTenantAndFoldsUnknowns) {
  std::vector<TenantSpec> specs = {tenant(1, 2.0, /*slo=*/1.0),
                                   tenant(2, 1.0)};
  std::vector<RequestStats> finished = {
      stat(0, 1, RequestOutcome::kCompleted, 0.5),   // within SLO
      stat(1, 1, RequestOutcome::kCompleted, 2.0),   // SLO miss
      stat(2, 1, RequestOutcome::kTimedOut, 3.0),    // lost = miss
      stat(3, 2, RequestOutcome::kCompleted, 9.0),   // no SLO: counts
      stat(4, 7, RequestOutcome::kFailed, 1.0),      // unknown tenant
  };
  const auto sums = summarize_tenants(finished, specs);
  ASSERT_EQ(sums.size(), 3u);

  EXPECT_EQ(sums[0].tenant, 1);
  EXPECT_EQ(sums[0].submitted, 3);
  EXPECT_EQ(sums[0].completed, 2);
  EXPECT_EQ(sums[0].timed_out, 1);
  EXPECT_EQ(sums[0].tokens_out, 8);  // completed only: 2 requests * gen 4
  EXPECT_NEAR(sums[0].slo_attainment, 1.0 / 3.0, 1e-12);

  EXPECT_EQ(sums[1].tenant, 2);
  EXPECT_DOUBLE_EQ(sums[1].slo_attainment, 1.0);  // no SLO, nothing lost

  // Unknown tenant folded into a synthetic row so requests conserve.
  EXPECT_EQ(sums[2].tenant, 7);
  EXPECT_EQ(sums[2].submitted, 1);
  EXPECT_EQ(sums[2].failed, 1);
  EXPECT_DOUBLE_EQ(sums[2].slo_attainment, 0.0);

  EXPECT_NEAR(min_slo_attainment(sums), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(min_slo_attainment({}), 1.0);
}

// ---------------------------------------------------------------------------
// Trace-driven tenant workload generator (the 10^6-request scenario
// source): deterministic, share-weighted, class-stamped.
// ---------------------------------------------------------------------------

TEST(TenantWorkload, DeterministicShareWeightedAndClassStamped) {
  Rng trng(3);
  const ClusterTrace trace = generate_cluster_trace(trng, 10);
  std::vector<TenantSpec> tenants = {tenant(1, 2.0), tenant(2, 1.0)};
  tenants[1].default_class = 2;

  Rng a(5), b(5);
  const auto w1 =
      generate_tenant_workload(a, trace, tenants, 2000, 5.0, {0.75, 0.25});
  const auto w2 =
      generate_tenant_workload(b, trace, tenants, 2000, 5.0, {0.75, 0.25});
  ASSERT_EQ(w1.size(), 2000u);
  ASSERT_EQ(w2.size(), 2000u);

  int n1 = 0, n2 = 0;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    // Bit-identical across same-seed generations: scale baselines depend
    // on reproducible streams.
    EXPECT_DOUBLE_EQ(w1[i].arrival_s, w2[i].arrival_s);
    EXPECT_EQ(w1[i].prompt_len, w2[i].prompt_len);
    EXPECT_EQ(w1[i].gen_tokens, w2[i].gen_tokens);
    EXPECT_EQ(w1[i].tenant_id, w2[i].tenant_id);
    if (i > 0) {
      EXPECT_GE(w1[i].arrival_s, w1[i - 1].arrival_s);
    }
    // Every request belongs to a spec'd tenant and carries its class.
    if (w1[i].tenant_id == 1) {
      ++n1;
      EXPECT_EQ(w1[i].req_class, 0);
    } else {
      ASSERT_EQ(w1[i].tenant_id, 2);
      ++n2;
      EXPECT_EQ(w1[i].req_class, 2);
    }
  }
  // 75/25 load split, loosely: the heavy tenant dominates but both appear.
  EXPECT_GT(n1, n2 * 2);
  EXPECT_GT(n2, 100);
}

// ---------------------------------------------------------------------------
// Per-tenant conservation under chaos: preemption, retries, deadlines and
// admission bounds must never lose or duplicate a tenant's request. Widened
// nightly via LLMPQ_CHAOS_SEEDS like the other chaos sweeps.
// ---------------------------------------------------------------------------

void dump_tenant_chaos_artifact(const std::string& test, std::uint64_t seed,
                                const FaultPlan& plan,
                                const OnlineSimResult& res) {
  const char* dir = std::getenv("LLMPQ_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ostringstream path;
  path << dir << "/" << test << "_seed" << seed << ".json";
  std::ofstream out(path.str());
  out << "{\n  \"test\": \"" << test << "\",\n  \"seed\": " << seed
      << ",\n  \"fault_plan\": " << plan.to_json()
      << ",\n  \"outcomes\": {\"completed\": " << res.completed
      << ", \"timed_out\": " << res.timed_out
      << ", \"rejected\": " << res.rejected << ", \"failed\": " << res.failed
      << ", \"retries\": " << res.retries
      << ", \"preemptions\": " << res.preemptions << "}\n}\n";
}

TEST(TenantChaos, SweepConservesEveryTenantRequest) {
  const auto pc = paper_cluster(3);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kProfiled);
  const ExecutionPlan plan = pipeedge_plan(cost);

  TenantSpec strict = tenant(1, 2.0, /*slo=*/5.0);
  strict.deadline_s = 60.0;
  TenantSpec bounded = tenant(2, 1.0, /*slo=*/20.0);
  bounded.admission_capacity = 6;
  bounded.default_class = 1;
  const std::vector<TenantSpec> tenants = {strict, bounded};

  std::vector<std::uint64_t> seeds = {3, 11, 19};
  if (const char* env = std::getenv("LLMPQ_CHAOS_SEEDS")) {
    // Nightly CI widens the sweep: LLMPQ_CHAOS_SEEDS=N runs seeds 1..N.
    seeds.clear();
    const long n = std::strtol(env, nullptr, 10);
    for (long i = 1; i <= n; ++i)
      seeds.push_back(static_cast<std::uint64_t>(i));
  }

  Rng trng(7);
  const ClusterTrace trace = generate_cluster_trace(trng, 10);

  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();

    Rng rng(100 + seed);
    const auto reqs = generate_tenant_workload(rng, trace, tenants, 60, 4.0,
                                               {0.6, 0.4}, 128, 32);

    FaultPlan faults;
    faults.seed = seed;
    FaultRule r;
    r.site = "sim.dispatch";
    r.kind = FaultKind::kThrow;
    r.probability = 0.2;
    r.max_fires = 4;
    faults.rules.push_back(r);

    OnlineSimOptions opt;
    opt.policy = SchedulerPolicy::kIterationLevel;
    opt.exec = DecodeExec::kContinuous;
    opt.max_batch = 4;
    opt.kv_page_size = 16;
    opt.kv_pages = 24;  // tight enough to preempt under the burst
    opt.max_retries = 3;
    opt.retry_backoff_s = 0.01;
    opt.tenants = tenants;

    const OnlineSimResult res =
        simulate_online(model, pc.cluster, plan, reqs, opt, faults);
    ASSERT_TRUE(res.ok) << res.error;

    const int n = static_cast<int>(reqs.size());
    ASSERT_EQ(static_cast<int>(res.requests.size()), n);

    // Global conservation: every id exactly once, outcomes partition n.
    std::map<int, int> seen;
    for (const RequestStats& rs : res.requests) {
      EXPECT_EQ(++seen[rs.id], 1) << "id finished twice: " << rs.id;
      // The stamped tenant must match the submitted one.
      EXPECT_EQ(rs.tenant,
                reqs[static_cast<std::size_t>(rs.id)].tenant_id);
    }
    EXPECT_EQ(res.completed + res.timed_out + res.rejected + res.failed, n);

    // Per-tenant conservation: each tenant's summary tallies exactly its
    // submitted requests, and the summed summaries reproduce the totals.
    std::map<int, int> expected;
    for (const auto& q : reqs) ++expected[q.tenant_id];
    int sum_submitted = 0, sum_completed = 0, sum_lost = 0;
    for (const TenantSummary& ts : res.tenants) {
      EXPECT_EQ(ts.submitted, expected[ts.tenant]) << "tenant " << ts.tenant;
      EXPECT_EQ(ts.completed + ts.timed_out + ts.rejected + ts.failed,
                ts.submitted)
          << "tenant " << ts.tenant;
      sum_submitted += ts.submitted;
      sum_completed += ts.completed;
      sum_lost += ts.timed_out + ts.rejected + ts.failed;
    }
    EXPECT_EQ(sum_submitted, n);
    EXPECT_EQ(sum_completed, res.completed);
    EXPECT_EQ(sum_lost, res.timed_out + res.rejected + res.failed);

    if (!failed_before && ::testing::Test::HasFailure())
      dump_tenant_chaos_artifact("SweepConservesEveryTenantRequest", seed,
                                 faults, res);
  }
}

}  // namespace
}  // namespace llmpq
