#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "runtime/transformer.hpp"
#include "serve/online_engine.hpp"
#include "sim/online_sim.hpp"

namespace llmpq {
namespace {

ServeRequest req(int id, double arrival, int prompt, int gen) {
  ServeRequest r;
  r.id = id;
  r.arrival_s = arrival;
  r.prompt_len = prompt;
  r.gen_tokens = gen;
  return r;
}

// ---------------------------------------------------------------------------
// Shared scheduler: pure decision logic, driven with explicit clock values.
// ---------------------------------------------------------------------------

TEST(ServeScheduler, StaleDeadlineHonoredExactlyForLoneRequest) {
  // Regression for the stale-timer bug: the old simulator waited for the
  // *next arrival*, so a lone request (or a tail request with a distant
  // successor) never went stale. A single request must dispatch at exactly
  // arrival + max_wait_s.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.batch_size = 16;
  opt.max_wait_s = 5.0;
  ServeScheduler s(opt);
  s.submit(req(0, 1.0, 10, 4));
  s.close();

  SchedulerAction a = s.next(1.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kWait);
  EXPECT_DOUBLE_EQ(a.wait_until, 6.0);  // arrival + max_wait_s

  a = s.next(6.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});
  s.complete(a.decision, 7.5);
  EXPECT_EQ(s.next(7.5).kind, SchedulerAction::Kind::kDone);

  ASSERT_EQ(s.finished().size(), 1u);
  EXPECT_DOUBLE_EQ(s.finished()[0].admit_s, 6.0);
  EXPECT_DOUBLE_EQ(s.finished()[0].queue_delay_s, 5.0);
}

TEST(ServeScheduler, TailRequestNotStuckBehindDistantArrival) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.batch_size = 4;
  opt.max_wait_s = 5.0;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 4));
  s.submit(req(1, 100.0, 8, 4));
  s.close();

  // The old behavior: wait until t=100 for the queue to fill. Fixed: the
  // wait deadline is min(next_arrival, oldest.arrival + max_wait_s) = 5.
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kWait);
  EXPECT_DOUBLE_EQ(a.wait_until, 5.0);

  a = s.next(5.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{0});
  s.complete(a.decision, 6.0);

  // Request 1 has not arrived yet: wait for its arrival, then stale-dispatch.
  a = s.next(6.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kWait);
  EXPECT_DOUBLE_EQ(a.wait_until, 100.0);
  a = s.next(100.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kWait);
  EXPECT_DOUBLE_EQ(a.wait_until, 105.0);
  a = s.next(105.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, std::vector<int>{1});
  s.complete(a.decision, 106.0);
  EXPECT_EQ(s.next(106.0).kind, SchedulerAction::Kind::kDone);
}

TEST(ServeScheduler, FullBatchDispatchesImmediatelyWithPaddedShape) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.batch_size = 3;
  opt.max_wait_s = 50.0;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 10, 4));
  s.submit(req(1, 0.0, 30, 2));
  s.submit(req(2, 0.0, 20, 9));
  const SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.decision.padded_prompt, 30);  // batch max prompt
  EXPECT_EQ(a.decision.padded_gen, 9);      // batch max generation
  EXPECT_EQ(a.decision.phase, ServePhase::kPrefillPass);
}

TEST(ServeScheduler, StaticBatchSizeClampedByMaxBatch) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kStaticBatching;
  opt.batch_size = 16;
  opt.max_batch = 2;  // KV capacity wins over the batching knob
  opt.max_wait_s = 0.0;
  ServeScheduler s(opt);
  for (int i = 0; i < 5; ++i) s.submit(req(i, 0.0, 8, 2));
  s.close();
  std::vector<std::size_t> sizes;
  double t = 0.0;
  for (;;) {
    SchedulerAction a = s.next(t);
    if (a.kind == SchedulerAction::Kind::kDone) break;
    ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
    sizes.push_back(a.decision.request_ids.size());
    t += 1.0;
    s.complete(a.decision, t);
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(ServeScheduler, IterationAdmissionClampedByCapacity) {
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  opt.max_batch = 3;
  ServeScheduler s(opt);
  for (int i = 0; i < 5; ++i) s.submit(req(i, 0.0, 8, 2));
  s.close();

  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1, 2}));
  s.complete(a.decision, 1.0);
  EXPECT_EQ(s.active(), 3);

  // At capacity: the two queued requests must not be admitted; the next
  // decision is a decode round over the active set.
  a = s.next(1.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  ASSERT_EQ(a.decision.phase, ServePhase::kDecodePass);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.decision.max_context, 9);  // prompt 8 + first token
  s.complete(a.decision, 2.0);  // gen=2: everyone finishes this round

  a = s.next(2.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_EQ(a.decision.phase, ServePhase::kPrefillPass);
  EXPECT_EQ(a.decision.request_ids, (std::vector<int>{3, 4}));
}

TEST(ServeScheduler, ZeroRemainingRequestCompletesAtAdmission) {
  // Prefill emits the first token, so gen_tokens == 1 never enters the
  // active set — it completes with the prefill pass.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 1));
  s.close();
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  s.complete(a.decision, 0.5);
  EXPECT_EQ(s.active(), 0);
  ASSERT_EQ(s.finished().size(), 1u);
  EXPECT_DOUBLE_EQ(s.finished()[0].finish_s, 0.5);
  EXPECT_EQ(s.next(0.5).kind, SchedulerAction::Kind::kDone);
}

TEST(ServeScheduler, QueueDelayExcludesPrefillTime) {
  // Regression for the conflation bug: queue delay is arrival -> admission,
  // not arrival -> end of prefill; prefill time is a separate stat.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 1));
  s.close();
  SchedulerAction a = s.next(3.0);  // admitted at t=3
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  s.complete(a.decision, 8.0, /*prefill_end_s=*/5.0);
  ASSERT_EQ(s.finished().size(), 1u);
  const RequestStats& r = s.finished()[0];
  EXPECT_DOUBLE_EQ(r.queue_delay_s, 3.0);  // old code reported 5.0
  EXPECT_DOUBLE_EQ(r.prefill_s, 2.0);
  EXPECT_DOUBLE_EQ(r.finish_s, 8.0);
}

TEST(ServeScheduler, LiveStreamBlocksUntilSubmitOrClose) {
  ServeScheduler s(SchedulerOptions{});
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kWait);
  EXPECT_TRUE(std::isinf(a.wait_until));
  s.close();
  EXPECT_EQ(s.next(0.0).kind, SchedulerAction::Kind::kDone);
}

TEST(ServeScheduler, RejectsReuseOfFinishedRequestId) {
  // Ids are single-use for the scheduler's lifetime: back-ends index
  // per-request buffers by id, so reusing a finished request's id would
  // silently alias its slot. The old queue-scan check only caught ids
  // still queued or open, not finished ones.
  SchedulerOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;
  ServeScheduler s(opt);
  s.submit(req(0, 0.0, 8, 1));
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  s.complete(a.decision, 0.5);  // gen=1: request 0 is now finished
  ASSERT_EQ(s.finished().size(), 1u);
  EXPECT_THROW(s.submit(req(0, 1.0, 8, 1)), InvalidArgumentError);
}

TEST(ServeScheduler, RejectsMisuse) {
  ServeScheduler s(SchedulerOptions{});
  s.submit(req(0, 0.0, 8, 2));
  EXPECT_THROW(s.submit(req(0, 0.0, 8, 2)), InvalidArgumentError);  // dup id
  SchedulerAction a = s.next(0.0);
  ASSERT_EQ(a.kind, SchedulerAction::Kind::kDispatch);
  EXPECT_THROW(s.next(0.0), InvalidArgumentError);  // dispatch in flight
  s.complete(a.decision, 1.0);
  EXPECT_THROW(s.complete(a.decision, 1.0), InvalidArgumentError);
  s.close();
  EXPECT_THROW(s.submit(req(1, 0.0, 8, 2)), InvalidArgumentError);
}

// Stops the process-wide trace session even when an assertion bails out.
struct TraceGuard {
  TraceGuard() { TraceSession::instance().start(1 << 12); }
  ~TraceGuard() { TraceSession::instance().stop(); }
};

TEST(ServeScheduler, LifecycleTraceStampsEveryPhaseOfEveryRequest) {
  // Every completed request renders as one queue, one prefill and one
  // decode async span on the scheduler's pid, stamped at arrival, admit,
  // admit + prefill_s and finish, each shifted by the trace offset. Run
  // for both iteration-level exec modes on an explicit clock.
  const double offset = 0.5;
  for (const DecodeExec exec :
       {DecodeExec::kSession, DecodeExec::kContinuous}) {
    SCOPED_TRACE(exec == DecodeExec::kSession ? "kSession" : "kContinuous");
    TraceGuard guard;
    SchedulerOptions opt;
    opt.policy = SchedulerPolicy::kIterationLevel;
    opt.exec = exec;
    opt.max_batch = 2;
    ServeScheduler s(opt);
    s.enable_trace(trace_pids::kServe, offset);
    s.submit(req(0, 0.0, 8, 3));
    s.submit(req(1, 0.25, 6, 2));
    s.submit(req(2, 0.5, 5, 4));
    s.submit(req(3, 2.0, 7, 2));
    s.close();
    double t = 0.0;
    for (int guard_rounds = 0;; ++guard_rounds) {
      ASSERT_LT(guard_rounds, 100) << "scheduler failed to converge";
      const SchedulerAction a = s.next(t);
      if (a.kind == SchedulerAction::Kind::kDone) break;
      if (a.kind == SchedulerAction::Kind::kWait) {
        t = a.wait_until;
        continue;
      }
      t += 0.25;
      s.complete(a.decision, t);
    }
    TraceSession::instance().stop();

    std::map<std::pair<std::uint64_t, std::string>, std::vector<TraceEvent>>
        spans;
    for (const TraceEvent& e : TraceSession::instance().snapshot())
      if ((e.phase == 'b' || e.phase == 'e') && e.pid == trace_pids::kServe &&
          std::string(e.category) == "request")
        spans[{e.id, e.name}].push_back(e);

    ASSERT_EQ(s.outcomes().completed, 4);
    for (const RequestStats& rs : s.finished()) {
      const auto id = static_cast<std::uint64_t>(rs.id);
      ASSERT_GT(rs.prefill_s, 0.0);
      const double prefill_end = rs.admit_s + rs.prefill_s;
      ASSERT_GT(rs.finish_s, prefill_end);
      const std::vector<std::tuple<std::string, double, double>> expected = {
          {"queue", rs.arrival_s, rs.admit_s},
          {"prefill", rs.admit_s, prefill_end},
          {"decode", prefill_end, rs.finish_s}};
      for (const auto& [name, begin_s, end_s] : expected) {
        const std::vector<TraceEvent>& ev = spans[{id, name}];
        ASSERT_EQ(ev.size(), 2u) << "request " << rs.id << " " << name;
        const TraceEvent& b = ev[0].phase == 'b' ? ev[0] : ev[1];
        const TraceEvent& e = ev[0].phase == 'b' ? ev[1] : ev[0];
        EXPECT_EQ(b.phase, 'b');
        EXPECT_EQ(e.phase, 'e');
        EXPECT_NEAR(static_cast<double>(b.ts_ns), (begin_s + offset) * 1e9,
                    1.0)
            << "request " << rs.id << " " << name;
        EXPECT_NEAR(static_cast<double>(e.ts_ns), (end_s + offset) * 1e9, 1.0)
            << "request " << rs.id << " " << name;
      }
    }
    EXPECT_EQ(spans.size(), 3u * s.finished().size());
  }
}

// ---------------------------------------------------------------------------
// Runtime back-end: the serving loop over the real pipeline engine.
// ---------------------------------------------------------------------------

ModelSpec tiny_spec() {
  ModelSpec m;
  m.name = "tiny-serve";
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

class OnlineEngineTest : public ::testing::Test {
 protected:
  OnlineEngineTest()
      : spec_(tiny_spec()),
        weights_(build_random_model(
            spec_, std::vector<int>(static_cast<std::size_t>(spec_.layers), 8),
            2024)),
        engine_(weights_, {{0, 3}, {3, 6}}, 2, 2) {}
  ModelSpec spec_;
  ModelWeights weights_;
  PipelineEngine engine_;
};

TEST_F(OnlineEngineTest, SessionDecodeMatchesReferenceGreedy) {
  // Both policies must reproduce the single-threaded reference generation
  // token for token through step-level session decode.
  Rng rng(3);
  std::vector<std::vector<TokenId>> prompts;
  std::vector<OnlineTraceRequest> trace;
  for (int i = 0; i < 3; ++i) {
    OnlineTraceRequest t;
    t.prompt = make_prompt(rng, spec_, 8);
    t.gen_tokens = 5;
    prompts.push_back(t.prompt);
    trace.push_back(std::move(t));
  }
  const auto reference = reference_generate(weights_, prompts, 5);
  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    OnlineEngineOptions opt;
    opt.scheduler.policy = policy;
    opt.scheduler.batch_size = 3;
    opt.scheduler.max_batch = 3;
    const OnlineReport rep = serve_trace(engine_, trace, opt);
    EXPECT_EQ(rep.completed, 3);
    ASSERT_EQ(rep.generated.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(rep.generated[i], reference[i])
          << scheduler_policy_name(policy) << " request " << i;
  }
}

TEST_F(OnlineEngineTest, TraceReportSeparatesQueueDelayFromPrefill) {
  std::vector<OnlineTraceRequest> trace;
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    OnlineTraceRequest t;
    t.prompt = make_prompt(rng, spec_, 10);
    t.gen_tokens = 3;
    trace.push_back(std::move(t));
  }
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  const OnlineReport rep = serve_trace(engine_, trace, opt);
  EXPECT_EQ(rep.completed, 4);
  // Burst admitted instantly: zero queue delay, but real prefill time.
  EXPECT_NEAR(rep.queue_delay.mean_s, 0.0, 1e-12);
  EXPECT_GT(rep.prefill.mean_s, 0.0);
  EXPECT_GT(rep.throughput_tokens_per_s, 0.0);
  for (const RequestStats& r : rep.requests)
    EXPECT_GE(r.finish_s, r.admit_s + r.prefill_s - 1e-9);
}

TEST_F(OnlineEngineTest, LiveSubmissionsServeToCompletion) {
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.max_batch = 4;
  OnlineEngine server(engine_, opt);
  Rng rng(11);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(server.submit(make_prompt(rng, spec_, 6 + i), 3));
  server.close();
  const OnlineReport rep = server.wait();
  EXPECT_EQ(rep.completed, 4);
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(rep.generated.size(), 4u);
  for (const auto& g : rep.generated) EXPECT_EQ(g.size(), 3u);
  for (const RequestStats& r : rep.requests) {
    EXPECT_GE(r.queue_delay_s, 0.0);
    EXPECT_GE(r.finish_s, r.arrival_s);
  }
}

// ---------------------------------------------------------------------------
// Sim-vs-runtime parity: both back-ends drive the SAME scheduler, so on an
// identical burst trace (decision composition is duration-independent) they
// must log identical admission order and batch composition.
// ---------------------------------------------------------------------------

void expect_same_decisions(const std::vector<DispatchDecision>& sim,
                           const std::vector<DispatchDecision>& rt,
                           const char* label) {
  ASSERT_EQ(sim.size(), rt.size()) << label;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    SCOPED_TRACE(std::string(label) + " decision " + std::to_string(i));
    EXPECT_EQ(sim[i].seq, rt[i].seq);
    EXPECT_EQ(sim[i].phase, rt[i].phase);
    EXPECT_EQ(sim[i].request_ids, rt[i].request_ids);
    EXPECT_EQ(sim[i].contexts, rt[i].contexts);
    EXPECT_EQ(sim[i].padded_prompt, rt[i].padded_prompt);
    EXPECT_EQ(sim[i].padded_gen, rt[i].padded_gen);
    EXPECT_EQ(sim[i].max_context, rt[i].max_context);
    EXPECT_EQ(sim[i].num_join, rt[i].num_join);
    EXPECT_EQ(sim[i].preempted, rt[i].preempted);
    EXPECT_EQ(sim[i].tenants, rt[i].tenants);
    EXPECT_EQ(sim[i].classes, rt[i].classes);
    EXPECT_EQ(sim[i].forced_joins, rt[i].forced_joins);
  }
}

TEST_F(OnlineEngineTest, SimAndRuntimeMakeIdenticalDecisions) {
  // Simulator side: the paper cluster and a PipeEdge plan (any feasible
  // plan works — decisions depend on the trace and policy only).
  const auto pc = paper_cluster(3);
  const ModelSpec& sim_model = model_registry_get(pc.model_name);
  CostProvider cost(sim_model, pc.cluster, CostMode::kProfiled);
  const ExecutionPlan plan = pipeedge_plan(cost);

  // One burst trace, two views: lengths for the simulator, real token
  // sequences of the same lengths for the engine.
  const int prompt_lens[] = {6, 9, 12, 15, 18, 21};
  const int gens[] = {4, 5, 6, 7, 8, 9};
  Rng rng(17);
  std::vector<OnlineRequest> sim_reqs;
  std::vector<OnlineTraceRequest> rt_trace;
  for (int i = 0; i < 6; ++i) {
    OnlineRequest sr;
    sr.arrival_s = 0.0;
    sr.prompt_len = prompt_lens[i];
    sr.gen_tokens = gens[i];
    sim_reqs.push_back(sr);
    OnlineTraceRequest tr;
    tr.arrival_s = 0.0;
    tr.prompt = make_prompt(rng, spec_, prompt_lens[i]);
    tr.gen_tokens = gens[i];
    rt_trace.push_back(std::move(tr));
  }

  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    OnlineEngineOptions opt;
    opt.scheduler.policy = policy;
    opt.scheduler.batch_size = 4;
    opt.scheduler.max_batch = 4;
    opt.scheduler.max_wait_s = 0.0;  // burst: dispatch as soon as queued
    const OnlineSimResult sim =
        simulate_online(sim_model, pc.cluster, plan, sim_reqs, opt.scheduler);
    ASSERT_TRUE(sim.ok) << sim.error;
    const OnlineReport rt = serve_trace(engine_, rt_trace, opt);
    EXPECT_EQ(sim.completed, rt.completed);
    expect_same_decisions(sim.decisions, rt.decisions,
                          scheduler_policy_name(policy));
  }
}

TEST_F(OnlineEngineTest, TenantAwareParityOnBurstTraces) {
  // The tenant-aware fair-share pass joins the parity contract: on an
  // identical burst trace with tenants configured, both back-ends must
  // produce the same admission order, tenant stamps and class stamps —
  // under both policies.
  const auto pc = paper_cluster(3);
  const ModelSpec& sim_model = model_registry_get(pc.model_name);
  CostProvider cost(sim_model, pc.cluster, CostMode::kProfiled);
  const ExecutionPlan plan = pipeedge_plan(cost);

  std::vector<TenantSpec> tenants(2);
  tenants[0].id = 1;
  tenants[0].weight = 2.0;
  tenants[1].id = 2;
  tenants[1].weight = 1.0;
  tenants[1].default_class = 1;

  const int prompt_lens[] = {6, 9, 12, 15, 18, 21};
  const int gens[] = {4, 5, 6, 7, 8, 9};
  const int tenant_of[] = {2, 2, 2, 1, 1, 1};  // heavy tenant arrives last
  Rng rng(23);
  std::vector<OnlineRequest> sim_reqs;
  std::vector<OnlineTraceRequest> rt_trace;
  for (int i = 0; i < 6; ++i) {
    OnlineRequest sr;
    sr.arrival_s = 0.0;
    sr.prompt_len = prompt_lens[i];
    sr.gen_tokens = gens[i];
    sr.tenant_id = tenant_of[i];
    sr.req_class = tenant_of[i] == 2 ? 1 : 0;
    sim_reqs.push_back(sr);
    OnlineTraceRequest tr;
    tr.arrival_s = 0.0;
    tr.prompt = make_prompt(rng, spec_, prompt_lens[i]);
    tr.gen_tokens = gens[i];
    tr.tenant_id = sr.tenant_id;
    tr.req_class = sr.req_class;
    rt_trace.push_back(std::move(tr));
  }

  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    OnlineEngineOptions opt;
    opt.scheduler.policy = policy;
    opt.scheduler.batch_size = 4;
    opt.scheduler.max_batch = 4;
    opt.scheduler.max_wait_s = 0.0;
    opt.scheduler.tenants = tenants;
    const OnlineSimResult sim =
        simulate_online(sim_model, pc.cluster, plan, sim_reqs, opt.scheduler);
    ASSERT_TRUE(sim.ok) << sim.error;
    const OnlineReport rt = serve_trace(engine_, rt_trace, opt);
    EXPECT_EQ(sim.completed, rt.completed);
    expect_same_decisions(sim.decisions, rt.decisions,
                          scheduler_policy_name(policy));
    // The fair-share order is actually exercised: the heavy tenant's
    // first request outranks the light tenant's FIFO backlog.
    ASSERT_FALSE(rt.decisions.empty());
    ASSERT_FALSE(rt.decisions[0].tenants.empty());
    EXPECT_EQ(rt.decisions[0].tenants[0], 1);
    // Per-tenant summaries materialize on both back-ends.
    EXPECT_EQ(sim.tenants.size(), 2u);
    EXPECT_EQ(rt.tenants.size(), 2u);
  }
}

}  // namespace
}  // namespace llmpq
