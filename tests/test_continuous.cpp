#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "runtime/engine.hpp"
#include "runtime/kv_cache_manager.hpp"
#include "runtime/transformer.hpp"
#include "serve/capacity_scheduler.hpp"
#include "serve/online_engine.hpp"
#include "sim/online_sim.hpp"

namespace llmpq {
namespace {

// ---------------------------------------------------------------------------
// CapacityScheduler: the pure admission/preemption arithmetic.
// ---------------------------------------------------------------------------

CapacitySeq cs(int id, int context) { return CapacitySeq{id, context}; }

TEST(CapacityScheduler, UnboundedBudgetsAdmitUpToMaxBatch) {
  CapacityOptions opt;
  opt.max_batch = 3;
  const CapacityScheduler cap(opt);
  const CapacityPlan plan = cap.plan_round(
      {cs(0, 9), cs(1, 12)}, {cs(2, 8), cs(3, 8), cs(4, 8)});
  EXPECT_EQ(plan.admit, std::vector<int>{2});  // 2 running + 1 join = 3
  EXPECT_TRUE(plan.preempt.empty());
}

TEST(CapacityScheduler, TokenBudgetChargesJoinsTheirFullContext) {
  // 2 decode rows cost 1 token each; budget 20 leaves 18 for joins. The
  // first join (context 10) fits, the second (context 9 > 8 left) does
  // not — and admission stops at the first non-fit (FIFO, no skipping).
  CapacityOptions opt;
  opt.max_batch = 16;
  opt.token_budget = 20;
  const CapacityScheduler cap(opt);
  const CapacityPlan plan = cap.plan_round(
      {cs(0, 30), cs(1, 30)}, {cs(2, 10), cs(3, 9), cs(4, 1)});
  EXPECT_EQ(plan.admit, std::vector<int>{2});
  EXPECT_TRUE(plan.preempt.empty());
}

TEST(CapacityScheduler, PageLedgerPreemptsNewestFirstAndKeepsOne) {
  // page_size 4, cap 8 pages. Running contexts 15/15/15 each need
  // pages_for(16) = 4 pages -> 12 > 8: evicting the newest (id 2) gets
  // back under the cap, so exactly one victim; a cap of 4 claims the two
  // newest and never the last survivor.
  CapacityOptions opt;
  opt.max_batch = 16;
  opt.kv_page_size = 4;
  opt.kv_pages = 8;
  const CapacityScheduler cap(opt);
  const CapacityPlan plan =
      cap.plan_round({cs(0, 15), cs(1, 15), cs(2, 15)}, {});
  EXPECT_EQ(plan.preempt, std::vector<int>{2});
  EXPECT_TRUE(plan.admit.empty());

  CapacityOptions tight = opt;
  tight.kv_pages = 4;
  const CapacityPlan two =
      CapacityScheduler(tight).plan_round({cs(0, 15), cs(1, 15), cs(2, 15)},
                                          {});
  EXPECT_EQ(two.preempt, (std::vector<int>{2, 1}));

  // Even a single over-cap sequence survives: the batch must progress.
  const CapacityPlan lone = cap.plan_round({cs(0, 1000)}, {});
  EXPECT_TRUE(lone.preempt.empty());
}

TEST(CapacityScheduler, AdmissionRespectsThePageLedger) {
  // Cap 8 pages (page_size 4). One running row at context 7 uses
  // pages_for(8) = 2; a join of context 20 needs pages_for(21) = 6 ->
  // fits exactly; the next join of context 4 needs 2 more -> rejected.
  CapacityOptions opt;
  opt.max_batch = 16;
  opt.kv_page_size = 4;
  opt.kv_pages = 8;
  const CapacityScheduler cap(opt);
  const CapacityPlan plan =
      cap.plan_round({cs(0, 7)}, {cs(1, 20), cs(2, 4)});
  EXPECT_EQ(plan.admit, std::vector<int>{1});
  EXPECT_TRUE(plan.preempt.empty());
}

TEST(CapacityScheduler, IdleBatchForceAdmitsAnOversizedHead) {
  // A request bigger than every budget must still run once the batch is
  // idle, or the scheduler wedges forever.
  CapacityOptions opt;
  opt.max_batch = 4;
  opt.token_budget = 8;
  opt.kv_page_size = 4;
  opt.kv_pages = 2;
  const CapacityScheduler cap(opt);
  const CapacityPlan plan = cap.plan_round({}, {cs(7, 100)});
  EXPECT_EQ(plan.admit, std::vector<int>{7});
  // ...but never while something is running (it will fit later).
  const CapacityPlan busy = cap.plan_round({cs(0, 3)}, {cs(7, 100)});
  EXPECT_TRUE(busy.admit.empty());
}

// ---------------------------------------------------------------------------
// KvCacheManager::preempt(): the page-release primitive under the batch.
// ---------------------------------------------------------------------------

TEST(KvCacheManagerPreempt, SnapshotsCommittedLengthAndReleasesPages) {
  KvCacheManagerOptions opt;
  opt.page_size = 4;
  KvCacheManager m(8, opt);
  m.begin_seq(1);
  m.pin(1);  // engine sessions are pinned; preempt must ignore pins
  m.reserve(1, 10);
  std::vector<float> v(8, 1.0f);
  for (int i = 0; i < 10; ++i) m.append(1, v.data(), v.data());
  const std::size_t pool = m.pool_pages();
  EXPECT_EQ(m.free_pages(), pool - 3);  // pages_for(10, 4) = 3

  EXPECT_EQ(m.preempt(1), 10u);
  EXPECT_EQ(m.filled(1), 0u);
  EXPECT_EQ(m.free_pages(), pool);       // every page back on the free list
  EXPECT_EQ(m.pool_pages(), pool);       // footprint monotonic, no shrink
  EXPECT_EQ(m.preempted_len(1), 10u);    // the re-prefill target
  EXPECT_EQ(m.preemptions(), 1);
  EXPECT_EQ(m.evictions(), 0);  // voluntary preemption is not an eviction
}

TEST(KvCacheManagerPreempt, DoublePreemptIsRejected) {
  KvCacheManager m(8, {});
  m.begin_seq(1);
  m.reserve(1, 4);
  std::vector<float> v(8, 0.5f);
  m.append(1, v.data(), v.data());
  m.preempt(1);
  EXPECT_THROW(m.preempt(1), InvalidArgumentError);   // double-preempt
  m.begin_seq(2);
  EXPECT_THROW(m.preempt(2), InvalidArgumentError);   // never filled
  EXPECT_THROW(m.preempt(99), InvalidArgumentError);  // unknown id
}

TEST(KvCacheManagerPreempt, ReserveConsumesTheSnapshot) {
  KvCacheManagerOptions opt;
  opt.page_size = 4;
  KvCacheManager m(8, opt);
  m.begin_seq(1);
  m.reserve(1, 6);
  std::vector<float> v(8, 2.0f);
  for (int i = 0; i < 6; ++i) m.append(1, v.data(), v.data());
  m.preempt(1);
  EXPECT_EQ(m.preempted_len(1), 6u);
  m.reserve(1, 6);  // the resume re-prefill regrows the sequence
  EXPECT_EQ(m.preempted_len(1), 0u);
  EXPECT_EQ(m.filled(1), 0u);  // filled restarts; append refills exactly
}

// ---------------------------------------------------------------------------
// Engine-level preempt/resume: bit-exact continuation via re-prefill.
// ---------------------------------------------------------------------------

ModelSpec tiny_spec() {
  ModelSpec m;
  m.name = "tiny-continuous";
  m.family = "opt";
  m.hidden = 32;
  m.ffn = 128;
  m.heads = 4;
  m.layers = 6;
  m.vocab = 96;
  m.max_pos = 64;
  return m;
}

std::vector<TokenId> make_prompt(Rng& rng, const ModelSpec& m, int len) {
  std::vector<TokenId> p;
  for (int t = 0; t < len; ++t)
    p.push_back(static_cast<TokenId>(rng.uniform_int(0, m.vocab - 1)));
  return p;
}

class ContinuousEngineTest : public ::testing::Test {
 protected:
  ContinuousEngineTest()
      : spec_(tiny_spec()),
        weights_(build_random_model(
            spec_, std::vector<int>(static_cast<std::size_t>(spec_.layers), 8),
            2024)),
        engine_(weights_, {{0, 3}, {3, 6}}, 2, 2) {}
  ModelSpec spec_;
  ModelWeights weights_;
  PipelineEngine engine_;
};

TEST_F(ContinuousEngineTest, PreemptedSessionResumesBitExactly) {
  Rng rng(7);
  const std::vector<TokenId> prompt = make_prompt(rng, spec_, 8);
  const auto reference = reference_generate(weights_, {prompt}, 6)[0];

  const int sid = engine_.begin_session(prompt);
  std::vector<TokenId> got;
  got.push_back(engine_.prefill({sid})[0]);
  got.push_back(engine_.decode_step({sid})[0]);
  got.push_back(engine_.decode_step({sid})[0]);

  // Preempt mid-generation: pages released, tokens and length kept.
  const std::size_t committed = engine_.session_committed(sid);
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(engine_.preempt_session(sid), committed);
  EXPECT_EQ(engine_.session_committed(sid), 0u);
  EXPECT_EQ(engine_.session_length(sid), prompt.size() + got.size());
  // Idempotent while parked: nothing further to release.
  EXPECT_EQ(engine_.preempt_session(sid), 0u);

  // Resume is exactly prefill() over the full history; greedy sampling
  // makes the continuation bit-identical to the uninterrupted run.
  got.push_back(engine_.prefill({sid})[0]);
  got.push_back(engine_.decode_step({sid})[0]);
  got.push_back(engine_.decode_step({sid})[0]);
  engine_.end_session(sid);
  EXPECT_EQ(got, reference);
}

// ---------------------------------------------------------------------------
// ServeScheduler in kContinuous mode: decision shapes, ride-along joins,
// preemption bookkeeping, conservation. Pure logic, explicit clocks.
// ---------------------------------------------------------------------------

ServeRequest req(int id, double arrival, int prompt, int gen) {
  ServeRequest r;
  r.id = id;
  r.arrival_s = arrival;
  r.prompt_len = prompt;
  r.gen_tokens = gen;
  return r;
}

SchedulerOptions continuous_options() {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.exec = DecodeExec::kContinuous;
  return opt;
}

TEST(ContinuousScheduler, RequiresIterationLevelPolicy) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.exec = DecodeExec::kContinuous;
  EXPECT_THROW(ServeScheduler s(opt), InvalidArgumentError);
}

TEST(ContinuousScheduler, LateArrivalJoinsTheRunningDecodeRound) {
  SchedulerOptions opt = continuous_options();
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 4));
  s.submit(req(1, 1.0, 6, 2));
  s.close();

  // t=0: request 0 joins an empty batch — a pure-join (prefill) round.
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.phase, ServePhase::kPrefillPass);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});
  EXPECT_EQ(a.decision.num_join, 1);
  s.complete(a.decision, 0.5);

  // t=2: request 1 has arrived — it joins request 0's decode round, its
  // prefill riding along: continuing rows lead, joins trail.
  a = s.next(2.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.phase, ServePhase::kDecodePass);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(a.decision.contexts, (std::vector<int>{9, 6}));
  EXPECT_EQ(a.decision.num_join, 1);
  EXPECT_EQ(a.decision.max_context, 9);
  EXPECT_EQ(a.decision.padded_prompt, 6);
  s.complete(a.decision, 2.5);

  // Both advance each round; request 1 (gen 2) leaves after one more.
  a = s.next(2.5);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(a.decision.num_join, 0);
  s.complete(a.decision, 3.0);
  a = s.next(3.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});  // 1 retired
  s.complete(a.decision, 3.5);  // request 0's 4th and last token
  EXPECT_EQ(s.next(3.5).kind, SchedulerAction::Kind::kDone);

  const OutcomeCounts oc = s.outcomes();
  EXPECT_EQ(oc.completed, 2);
  EXPECT_EQ(s.preemptions(), 0);
}

TEST(ContinuousScheduler, MemoryPressurePreemptsNewestAndResumesFifo) {
  // page_size 4, 6 pages: two contexts of 9+ tokens need 3 pages each and
  // fit, but after two rounds the older sequence crosses a page boundary
  // and the ledger overflows — the NEWEST request is evicted to pending
  // and re-admitted (full-context re-prefill) once the survivor retires.
  SchedulerOptions opt = continuous_options();
  opt.kv_page_size = 4;
  opt.kv_pages = 6;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 10, 8));
  s.submit(req(1, 0.0, 9, 8));
  s.close();

  double t = 0.0;
  bool saw_preempt = false, saw_resume = false;
  std::vector<int> preempted_ids;
  for (int guard = 0;; ++guard) {
    ASSERT_LT(guard, 200) << "scheduler failed to converge";
    SchedulerAction a = s.next(t);
    if (a.kind == SchedulerAction::Kind::kDone) break;
    if (a.kind == SchedulerAction::Kind::kWait) {
      t = a.wait_until;
      continue;
    }
    ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch) << "t=" << t;
    const DispatchDecision& d = a.decision;
    if (!d.preempted.empty()) {
      saw_preempt = true;
      preempted_ids.insert(preempted_ids.end(), d.preempted.begin(),
                           d.preempted.end());
    }
    // A resumed join re-prefills more than its prompt: context > prompt.
    for (std::size_t i = d.request_ids.size() -
                          static_cast<std::size_t>(d.num_join);
         i < d.request_ids.size(); ++i) {
      if (d.request_ids[i] == 1 && d.contexts[i] > 9) saw_resume = true;
    }
    t += 0.25;
    s.complete(d, t);
  }
  EXPECT_TRUE(saw_preempt);
  EXPECT_TRUE(saw_resume);
  EXPECT_GE(s.preemptions(), 1);
  // Newest-first: request 1 (later id, same arrival) is the victim.
  for (int id : preempted_ids) EXPECT_EQ(id, 1);
  const OutcomeCounts oc = s.outcomes();
  EXPECT_EQ(oc.completed, 2);  // both still finish, exactly once
  EXPECT_EQ(s.finished().size(), 2u);
}

const RequestStats* find_stats(const ServeScheduler& s, int id) {
  for (const RequestStats& r : s.finished())
    if (r.id == id) return &r;
  return nullptr;
}

TEST(ContinuousScheduler, DeadlineExpiresAParkedRowAndChargesItsWait) {
  // The memory-pressure scenario above, with a deadline: once request 1
  // is parked on the resume queue the clock jumps past both deadlines.
  // The running row and the parked row both time out at the clock value
  // passed to next(), and the parked row's resume wait gains the whole
  // interval since it was parked.
  SchedulerOptions opt = continuous_options();
  opt.kv_page_size = 4;
  opt.kv_pages = 6;
  opt.deadline_s = 10.0;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 10, 8));
  s.submit(req(1, 0.0, 9, 8));
  s.close();

  double t = 0.0;
  double parked_at = -1.0;
  for (int guard = 0; parked_at < 0.0; ++guard) {
    ASSERT_LT(guard, 50) << "scenario must preempt request 1";
    const SchedulerAction a = s.next(t);
    ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch) << "t=" << t;
    for (int id : a.decision.preempted)
      if (id == 1) parked_at = t;
    t += 0.25;
    s.complete(a.decision, t);
  }
  ASSERT_TRUE(s.finished().empty());

  const double now = 20.0;
  EXPECT_EQ(s.next(now).kind, SchedulerAction::Kind::kDone);
  const RequestStats* r0 = find_stats(s, 0);
  const RequestStats* r1 = find_stats(s, 1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r0->outcome, RequestOutcome::kTimedOut);
  EXPECT_EQ(r1->outcome, RequestOutcome::kTimedOut);
  EXPECT_DOUBLE_EQ(r0->finish_s, now);
  EXPECT_DOUBLE_EQ(r1->finish_s, now);
  EXPECT_DOUBLE_EQ(r0->resume_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(r1->resume_wait_s, now - parked_at);
  EXPECT_EQ(s.outcomes().timed_out, 2);
}

TEST(ContinuousScheduler, SingleTokenJoinFinishesInItsJoinRound) {
  // Request 1 generates one token: the ride-along prefill that admits it
  // also emits that token, so it retires in its own join round and never
  // enters the running set.
  SchedulerOptions opt = continuous_options();
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 3));
  s.submit(req(1, 1.0, 6, 1));
  s.close();

  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  s.complete(a.decision, 0.5);

  a = s.next(2.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(a.decision.num_join, 1);
  s.complete(a.decision, 2.5);
  const RequestStats* r1 = find_stats(s, 1);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->outcome, RequestOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(r1->admit_s, 2.0);
  EXPECT_DOUBLE_EQ(r1->prefill_s, 0.5);
  EXPECT_DOUBLE_EQ(r1->finish_s, 2.5);

  a = s.next(2.5);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});
  EXPECT_EQ(a.decision.num_join, 0);
  s.complete(a.decision, 3.0);
  EXPECT_EQ(s.next(3.0).kind, SchedulerAction::Kind::kDone);
  EXPECT_EQ(s.outcomes().completed, 2);
}

TEST(ContinuousScheduler, JoinExhaustingRetriesEndsFailed) {
  // Every dispatch of the lone join fails. Each failure parks the row at
  // the resume front behind a backoff window; the failure past the cap
  // finishes it as kFailed having consumed exactly max_retries retries.
  SchedulerOptions opt = continuous_options();
  opt.max_retries = 2;
  opt.retry_backoff_s = 0.5;
  opt.retry_backoff_max_s = 0.5;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 4));
  s.close();

  double t = 0.0;
  for (int attempt = 0; attempt <= opt.max_retries; ++attempt) {
    const SchedulerAction a = s.next(t);
    ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch) << "t=" << t;
    EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});
    EXPECT_EQ(a.decision.num_join, 1);
    t += 0.25;
    s.fail(a.decision, t);
    if (attempt < opt.max_retries) {
      EXPECT_TRUE(s.finished().empty());
      t += 0.5;  // the backoff window
    }
  }
  EXPECT_EQ(s.next(t).kind, SchedulerAction::Kind::kDone);
  ASSERT_EQ(s.finished().size(), 1u);
  const RequestStats& r = s.finished()[0];
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_EQ(r.retries, opt.max_retries);
  EXPECT_DOUBLE_EQ(r.finish_s, t);
  EXPECT_EQ(s.outcomes().failed, 1);
  EXPECT_EQ(s.outcomes().retries, opt.max_retries);
}

// ---------------------------------------------------------------------------
// End-to-end fidelity: every continuous request matches its unbatched
// greedy reference bit-for-bit, with and without forced preemption.
// ---------------------------------------------------------------------------

TEST_F(ContinuousEngineTest, ContinuousDecodeMatchesUnbatchedReference) {
  // Staggered arrivals force mid-flight joins; mixed prompt/gen lengths
  // force ragged rounds and early retirement.
  const int prompt_lens[] = {6, 9, 12, 7, 10};
  const int gens[] = {6, 4, 8, 5, 3};
  const double arrivals[] = {0.0, 0.0, 0.01, 0.02, 0.03};
  Rng rng(23);
  std::vector<OnlineTraceRequest> trace;
  std::vector<std::vector<TokenId>> references;
  for (int i = 0; i < 5; ++i) {
    OnlineTraceRequest tr;
    tr.arrival_s = arrivals[i];
    tr.prompt = make_prompt(rng, spec_, prompt_lens[i]);
    tr.gen_tokens = gens[i];
    references.push_back(
        reference_generate(weights_, {tr.prompt}, gens[i])[0]);
    trace.push_back(std::move(tr));
  }

  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.max_batch = 4;
  const OnlineReport rep = serve_trace(engine_, trace, opt);
  EXPECT_EQ(rep.completed, 5);
  ASSERT_EQ(rep.generated.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(rep.generated[i], references[i]) << "request " << i;
}

TEST_F(ContinuousEngineTest, ForcedPreemptionKeepsOutputsBitExact) {
  // A page ledger tight enough to preempt mid-generation: outputs must
  // still match the unbatched reference (evict -> re-prefill -> continue).
  const int prompt_lens[] = {10, 9, 8};
  const int gens[] = {8, 8, 8};
  Rng rng(29);
  std::vector<OnlineTraceRequest> trace;
  std::vector<std::vector<TokenId>> references;
  for (int i = 0; i < 3; ++i) {
    OnlineTraceRequest tr;
    tr.prompt = make_prompt(rng, spec_, prompt_lens[i]);
    tr.gen_tokens = gens[i];
    references.push_back(
        reference_generate(weights_, {tr.prompt}, gens[i])[0]);
    trace.push_back(std::move(tr));
  }

  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.kv_page_size = 4;
  opt.scheduler.kv_pages = 8;  // 3 growing sequences cannot all fit
  const OnlineReport rep = serve_trace(engine_, trace, opt);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_GE(rep.preemptions, 1) << "ledger was meant to force preemption";
  ASSERT_EQ(rep.generated.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(rep.generated[i], references[i]) << "request " << i;
}

// ---------------------------------------------------------------------------
// Sim-vs-runtime parity for kContinuous: identical decision logs, including
// join composition and preemption victims.
// ---------------------------------------------------------------------------

TEST_F(ContinuousEngineTest, SimAndRuntimeMakeIdenticalContinuousDecisions) {
  const auto pc = paper_cluster(3);
  const ModelSpec& sim_model = model_registry_get(pc.model_name);
  CostProvider cost(sim_model, pc.cluster, CostMode::kProfiled);
  const ExecutionPlan plan = pipeedge_plan(cost);

  const int prompt_lens[] = {6, 9, 12, 15, 18, 21};
  const int gens[] = {4, 5, 6, 7, 8, 9};
  Rng rng(17);
  std::vector<OnlineRequest> sim_reqs;
  std::vector<OnlineTraceRequest> rt_trace;
  for (int i = 0; i < 6; ++i) {
    OnlineRequest sr;
    sr.arrival_s = 0.0;  // burst: decisions are duration-independent
    sr.prompt_len = prompt_lens[i];
    sr.gen_tokens = gens[i];
    sim_reqs.push_back(sr);
    OnlineTraceRequest tr;
    tr.arrival_s = 0.0;
    tr.prompt = make_prompt(rng, spec_, prompt_lens[i]);
    tr.gen_tokens = gens[i];
    rt_trace.push_back(std::move(tr));
  }

  // Budgets tight enough that the capacity planner actually decides
  // something: joins are rationed by tokens and pages, and growth forces
  // at least one preemption — all of which must replay identically.
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.max_batch = 4;
  opt.scheduler.token_budget = 24;
  opt.scheduler.kv_page_size = 4;
  opt.scheduler.kv_pages = 16;

  const OnlineSimResult sim =
      simulate_online(sim_model, pc.cluster, plan, sim_reqs, opt.scheduler);
  ASSERT_TRUE(sim.ok) << sim.error;
  const OnlineReport rt = serve_trace(engine_, rt_trace, opt);
  EXPECT_EQ(sim.completed, rt.completed);
  EXPECT_EQ(sim.preemptions, rt.preemptions);
  ASSERT_EQ(sim.decisions.size(), rt.decisions.size());
  for (std::size_t i = 0; i < sim.decisions.size(); ++i) {
    SCOPED_TRACE("decision " + std::to_string(i));
    EXPECT_EQ(sim.decisions[i].seq, rt.decisions[i].seq);
    EXPECT_EQ(sim.decisions[i].phase, rt.decisions[i].phase);
    EXPECT_EQ(sim.decisions[i].request_ids, rt.decisions[i].request_ids);
    EXPECT_EQ(sim.decisions[i].contexts, rt.decisions[i].contexts);
    EXPECT_EQ(sim.decisions[i].padded_prompt, rt.decisions[i].padded_prompt);
    EXPECT_EQ(sim.decisions[i].max_context, rt.decisions[i].max_context);
    EXPECT_EQ(sim.decisions[i].num_join, rt.decisions[i].num_join);
    EXPECT_EQ(sim.decisions[i].preempted, rt.decisions[i].preempted);
    EXPECT_EQ(sim.decisions[i].tenants, rt.decisions[i].tenants);
    EXPECT_EQ(sim.decisions[i].classes, rt.decisions[i].classes);
    EXPECT_EQ(sim.decisions[i].forced_joins, rt.decisions[i].forced_joins);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: join/leave/preempt-resume under chaos, conservation.
// ---------------------------------------------------------------------------

FaultRule rule(const std::string& site, FaultKind kind, double prob,
               int max_fires = std::numeric_limits<int>::max(),
               double delay_ms = 0.0) {
  FaultRule r;
  r.site = site;
  r.kind = kind;
  r.probability = prob;
  r.max_fires = max_fires;
  r.delay_ms = delay_ms;
  return r;
}

/// RAII arm/disarm so a failing assertion cannot leak an armed plan into
/// the next test.
struct ArmedPlan {
  explicit ArmedPlan(const FaultPlan& plan) {
    FaultInjector::instance().arm(plan);
  }
  ~ArmedPlan() { FaultInjector::instance().disarm(); }
};

TEST_F(ContinuousEngineTest, DispatchFaultsRetryJoinsWithoutLoss) {
  // serve.dispatch throws fail whole rounds (joins and continuing rows
  // alike); the scheduler must retry joins from the resume queue and every
  // request must still complete with real output.
  FaultPlan plan;
  plan.rules.push_back(rule("serve.dispatch", FaultKind::kThrow, 1.0, 2));
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.max_retries = 4;
  opt.scheduler.retry_backoff_s = 0.001;
  Rng rng(31);
  std::vector<OnlineTraceRequest> trace;
  for (int i = 0; i < 3; ++i) {
    OnlineTraceRequest t;
    t.prompt = make_prompt(rng, spec_, 8);
    t.gen_tokens = 3;
    trace.push_back(std::move(t));
  }
  ArmedPlan armed(plan);
  const OnlineReport rep = serve_trace(engine_, trace, opt);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_GE(rep.retries, 1);
  for (const auto& g : rep.generated) EXPECT_EQ(g.size(), 3u);
}

/// Nightly-CI failure artifact: the failing seed's fault plan and outcome
/// tallies, enough to reproduce the run offline (mirrors test_fault.cpp).
void dump_chaos_artifact(const std::string& test, std::uint64_t seed,
                         const FaultPlan& plan, const OnlineReport& rep) {
  const char* dir = std::getenv("LLMPQ_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ostringstream path;
  path << dir << "/" << test << "_seed" << seed << ".json";
  std::ofstream out(path.str());
  out << "{\n  \"test\": \"" << test << "\",\n  \"seed\": " << seed
      << ",\n  \"fault_plan\": " << plan.to_json()
      << ",\n  \"outcomes\": {\"completed\": " << rep.completed
      << ", \"timed_out\": " << rep.timed_out
      << ", \"rejected\": " << rep.rejected << ", \"failed\": " << rep.failed
      << ", \"retries\": " << rep.retries
      << ", \"preemptions\": " << rep.preemptions << "}\n}\n";
}

TEST_F(ContinuousEngineTest, ChaosSweepConservesEveryContinuousRequest) {
  // The conservation invariant under multi-site chaos (dispatch faults +
  // KV allocation failures) with a page ledger tight enough to preempt:
  // every id finishes exactly once, completed requests carry real output,
  // and a preempted-then-failed round never duplicates or loses work.
  std::vector<std::uint64_t> seeds = {3, 11, 19};
  if (const char* env = std::getenv("LLMPQ_CHAOS_SEEDS")) {
    // Nightly CI widens the sweep: LLMPQ_CHAOS_SEEDS=N runs seeds 1..N.
    seeds.clear();
    const long n = std::strtol(env, nullptr, 10);
    for (long i = 1; i <= n; ++i)
      seeds.push_back(static_cast<std::uint64_t>(i));
  }
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool failed_before = HasFailure();
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(rule("serve.dispatch", FaultKind::kThrow, 0.25, 2));
    plan.rules.push_back(
        rule("engine.kv_alloc", FaultKind::kAllocFail, 0.25, 2));

    OnlineEngineOptions opt;
    opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
    opt.scheduler.exec = DecodeExec::kContinuous;
    opt.scheduler.max_batch = 3;
    opt.scheduler.max_retries = 4;
    opt.scheduler.retry_backoff_s = 0.001;
    opt.scheduler.kv_page_size = 4;
    opt.scheduler.kv_pages = 10;

    const int n = 5;
    Rng rng(41 + static_cast<std::uint64_t>(seed));
    std::vector<OnlineTraceRequest> trace;
    std::vector<std::vector<TokenId>> references;
    for (int i = 0; i < n; ++i) {
      OnlineTraceRequest t;
      t.prompt = make_prompt(rng, spec_, 6 + i);
      t.gen_tokens = 4;
      references.push_back(reference_generate(weights_, {t.prompt}, 4)[0]);
      trace.push_back(std::move(t));
    }
    OnlineReport rep;
    {
      ArmedPlan armed(plan);
      rep = serve_trace(engine_, trace, opt);
    }
    if (!engine_.healthy()) engine_.restart();

    ASSERT_EQ(static_cast<int>(rep.requests.size()), n);
    std::set<int> seen;
    for (const RequestStats& r : rep.requests)
      EXPECT_TRUE(seen.insert(r.id).second) << "id finished twice: " << r.id;
    EXPECT_EQ(rep.completed + rep.timed_out + rep.rejected + rep.failed, n);
    // Completed requests carry their exact unbatched continuation even
    // when the run preempted or retried them.
    for (const RequestStats& r : rep.requests) {
      if (r.outcome != RequestOutcome::kCompleted) continue;
      EXPECT_EQ(rep.generated[static_cast<std::size_t>(r.id)],
                references[static_cast<std::size_t>(r.id)])
          << "request " << r.id;
    }
    if (!failed_before && HasFailure())
      dump_chaos_artifact("ChaosSweepConservesEveryContinuousRequest", seed,
                          plan, rep);
  }
}

TEST_F(ContinuousEngineTest, LiveLoopServesContinuousSubmissions) {
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.exec = DecodeExec::kContinuous;
  opt.scheduler.max_batch = 4;
  OnlineEngine server(engine_, opt);
  Rng rng(13);
  for (int i = 0; i < 4; ++i) server.submit(make_prompt(rng, spec_, 6 + i), 3);
  server.close();
  const OnlineReport rep = server.wait();
  EXPECT_EQ(rep.completed, 4);
  for (const auto& g : rep.generated) EXPECT_EQ(g.size(), 3u);
}

}  // namespace
}  // namespace llmpq
