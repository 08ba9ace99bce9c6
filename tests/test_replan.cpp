#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json_writer.hpp"
#include "cost/cost_provider.hpp"
#include "hw/cluster.hpp"
#include "model/model_spec.hpp"
#include "runtime/engine.hpp"
#include "runtime/transformer.hpp"
#include "serve/health.hpp"
#include "serve/migration.hpp"
#include "serve/online_engine.hpp"
#include "serve/replanner.hpp"
#include "sim/online_sim.hpp"

namespace llmpq {
namespace {

FaultRule rule(std::string site, FaultKind kind, double probability = 1.0,
               int max_fires = std::numeric_limits<int>::max(),
               double delay_ms = 0.0) {
  FaultRule r;
  r.site = std::move(site);
  r.kind = kind;
  r.probability = probability;
  r.max_fires = max_fires;
  r.delay_ms = delay_ms;
  return r;
}

struct ArmedPlan {
  explicit ArmedPlan(const FaultPlan& plan) {
    FaultInjector::instance().arm(plan);
  }
  ~ArmedPlan() { FaultInjector::instance().disarm(); }
};

ModelSpec tiny_spec() {
  ModelSpec m;
  m.name = "tiny-replan";
  m.family = "opt";
  m.hidden = 32;
  m.ffn = 128;
  m.heads = 4;
  m.layers = 6;
  m.vocab = 96;
  m.max_pos = 64;
  return m;
}

/// Two-stage plan over a homogeneous 2xT4 cluster: layers split 3/3, all
/// 8-bit, micro-batches 2/2 — the starting point every control-loop test
/// repairs from.
ExecutionPlan tiny_plan() {
  ExecutionPlan p;
  p.model_name = "tiny-replan";
  p.cluster_name = "t";
  p.workload.global_batch = 4;
  p.workload.prompt_len = 8;
  p.workload.gen_tokens = 8;
  p.device_order = {0, 1};
  p.boundaries = {0, 3, 6};
  p.layer_bits = std::vector<int>(6, 8);
  p.prefill_micro_batch = 2;
  p.decode_micro_batch = 2;
  return p;
}

std::vector<TokenId> make_prompt(Rng& rng, const ModelSpec& m, int len) {
  std::vector<TokenId> p;
  for (int t = 0; t < len; ++t)
    p.push_back(static_cast<TokenId>(rng.uniform_int(0, m.vocab - 1)));
  return p;
}

HealthSample sample(int seq, double dispatch_s,
                    std::vector<double> stage_busy = {}) {
  HealthSample s;
  s.seq = seq;
  s.dispatch_s = dispatch_s;
  s.stage_busy_s = std::move(stage_busy);
  return s;
}

// ---------------------------------------------------------------------------
// HealthMonitor: baseline learning, hysteresis, cooldown, attribution.
// ---------------------------------------------------------------------------

HealthMonitorOptions tight_health() {
  HealthMonitorOptions h;
  h.warmup = 3;
  h.straggler_ratio = 3.0;
  h.hysteresis = 2;
  h.cooldown = 4;
  return h;
}

TEST(HealthMonitorTest, WarmupLearnsBaselineThenHysteresisTrips) {
  HealthMonitor mon(tight_health());
  // Warmup: the max over the window becomes the baseline; nothing flags.
  EXPECT_TRUE(mon.observe(sample(0, 0.10)).healthy());
  EXPECT_TRUE(mon.observe(sample(1, 0.05)).healthy());
  EXPECT_TRUE(mon.observe(sample(2, 0.06)).healthy());
  EXPECT_DOUBLE_EQ(mon.snapshot().baseline_s, 0.10);
  // One slow sample is not enough (hysteresis 2)...
  EXPECT_TRUE(mon.observe(sample(3, 1.0, {0.2, 0.8})).healthy());
  // ...two consecutive ones are, and the verdict names the busy stage.
  const HealthVerdict v = mon.observe(sample(4, 1.0, {0.2, 0.8}));
  EXPECT_EQ(v.status, HealthStatus::kStraggler);
  EXPECT_EQ(v.at_seq, 4);
  EXPECT_EQ(v.bottleneck_stage, 1);
  EXPECT_NEAR(v.severity, 10.0, 1e-9);
}

TEST(HealthMonitorTest, InterruptedStreakDoesNotTrip) {
  HealthMonitor mon(tight_health());
  for (int i = 0; i < 3; ++i) mon.observe(sample(i, 0.1));
  // slow, fast, slow: the streak resets in the middle, so no verdict.
  EXPECT_TRUE(mon.observe(sample(3, 1.0)).healthy());
  EXPECT_TRUE(mon.observe(sample(4, 0.1)).healthy());
  EXPECT_TRUE(mon.observe(sample(5, 1.0)).healthy());
  EXPECT_EQ(mon.snapshot().verdicts, 0);
}

TEST(HealthMonitorTest, CooldownSilencesThenReTrips) {
  HealthMonitor mon(tight_health());
  for (int i = 0; i < 3; ++i) mon.observe(sample(i, 0.1));
  mon.observe(sample(3, 1.0, {1.0, 0.0}));
  EXPECT_FALSE(mon.observe(sample(4, 1.0, {1.0, 0.0})).healthy());
  // Cooldown 4: the next four samples stay quiet even though every one is
  // past the threshold.
  for (int i = 5; i < 9; ++i) {
    EXPECT_TRUE(mon.observe(sample(i, 1.0, {1.0, 0.0})).healthy())
        << "cooldown sample " << i;
  }
  // The baseline was deliberately NOT reset and the streak kept building
  // through the cooldown, so the persisting drag re-trips on the first
  // sample after it drains — this is what drives iterative repairs in the
  // control loop.
  const HealthVerdict again = mon.observe(sample(9, 1.0, {1.0, 0.0}));
  EXPECT_EQ(again.status, HealthStatus::kStraggler);
  EXPECT_EQ(mon.snapshot().verdicts, 2);
}

TEST(HealthMonitorTest, BottleneckTieBreaksToLowestStage) {
  HealthMonitor mon(tight_health());
  for (int i = 0; i < 3; ++i) mon.observe(sample(i, 0.1));
  mon.observe(sample(3, 1.0, {0.5, 0.5}));
  const HealthVerdict v = mon.observe(sample(4, 1.0, {0.5, 0.5}));
  EXPECT_EQ(v.status, HealthStatus::kStraggler);
  EXPECT_EQ(v.bottleneck_stage, 0);
}

TEST(HealthMonitorTest, MemFaultDeltaTripsMemoryPressureOnce) {
  HealthMonitorOptions h = tight_health();
  h.mem_fault_threshold = 2;
  HealthMonitor mon(h);
  for (int i = 0; i < 3; ++i) mon.observe(sample(i, 0.1));
  HealthSample s = sample(3, 0.1);
  s.mem_faults = 2;
  const HealthVerdict v = mon.observe(s);
  EXPECT_EQ(v.status, HealthStatus::kMemoryPressure);
  // The mark advances on the verdict: the same cumulative count must not
  // re-trip after the cooldown drains.
  for (int i = 4; i < 12; ++i) {
    HealthSample again = sample(i, 0.1);
    again.mem_faults = 2;
    EXPECT_TRUE(mon.observe(again).healthy()) << "sample " << i;
  }
}

TEST(HealthMonitorTest, QueueOverloadVerdictRequiresOptIn) {
  HealthMonitorOptions h = tight_health();
  HealthMonitor off(h);
  for (int i = 0; i < 3; ++i) off.observe(sample(i, 0.1));
  HealthSample deep = sample(3, 0.1);
  deep.queue_depth = 100;
  EXPECT_TRUE(off.observe(deep).healthy());  // disabled by default

  h.queue_overload_depth = 8;
  HealthMonitor on(h);
  for (int i = 0; i < 3; ++i) on.observe(sample(i, 0.1));
  const HealthVerdict v = on.observe(deep);
  EXPECT_EQ(v.status, HealthStatus::kOverload);
  EXPECT_NEAR(v.severity, 100.0 / 8.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Replanner: deterministic single-move repairs.
// ---------------------------------------------------------------------------

struct ReplanSetup {
  ModelSpec spec = tiny_spec();
  ClusterSpec cluster = make_cluster("t", {{"T4-16G", 2}});
  CostProvider cost{spec, cluster, CostMode::kProfiled};
  ExecutionPlan plan = tiny_plan();
  Replanner replanner{cost, nullptr, 0.0};
};

HealthVerdict straggler(int stage, int at_seq = 9) {
  HealthVerdict v;
  v.status = HealthStatus::kStraggler;
  v.bottleneck_stage = stage;
  v.severity = 10.0;
  v.at_seq = at_seq;
  return v;
}

TEST(ReplannerTest, HealthyVerdictProposesNothing) {
  ReplanSetup s;
  EXPECT_EQ(s.replanner.propose(s.plan, HealthVerdict{}).kind,
            PlanDeltaKind::kNone);
}

TEST(ReplannerTest, StragglerMigratesFirstLayerOffLastStage) {
  ReplanSetup s;
  const PlanDelta d = s.replanner.propose(s.plan, straggler(1));
  EXPECT_EQ(d.kind, PlanDeltaKind::kMigrateLayer);
  EXPECT_EQ(d.layer, 3);  // stage 1's first layer
  EXPECT_EQ(d.from_stage, 1);
  EXPECT_EQ(d.to_stage, 0);  // the only adjacent stage
  const ExecutionPlan next = Replanner::apply(s.plan, d);
  EXPECT_EQ(next.boundaries, (std::vector<int>{0, 4, 6}));
  EXPECT_EQ(next.stage_size(1), 2);
}

TEST(ReplannerTest, StragglerOnFirstStageMovesItsLastLayerForward) {
  ReplanSetup s;
  const PlanDelta d = s.replanner.propose(s.plan, straggler(0));
  EXPECT_EQ(d.kind, PlanDeltaKind::kMigrateLayer);
  EXPECT_EQ(d.layer, 2);  // stage 0's last layer
  EXPECT_EQ(d.from_stage, 0);
  EXPECT_EQ(d.to_stage, 1);
  EXPECT_EQ(Replanner::apply(s.plan, d).boundaries,
            (std::vector<int>{0, 2, 6}));
}

TEST(ReplannerTest, SingleLayerStageHemmedInReturnsNone) {
  ReplanSetup s;
  s.plan.boundaries = {0, 5, 6};  // stage 1 cannot shrink without emptying
  const PlanDelta d = s.replanner.propose(s.plan, straggler(1));
  EXPECT_EQ(d.kind, PlanDeltaKind::kNone);
}

TEST(ReplannerTest, MemoryPressureLowersOneBottleneckLayer) {
  ReplanSetup s;
  HealthVerdict v;
  v.status = HealthStatus::kMemoryPressure;
  v.bottleneck_stage = 1;
  const PlanDelta d = s.replanner.propose(s.plan, v);
  ASSERT_EQ(d.kind, PlanDeltaKind::kBitChange);
  EXPECT_GE(d.layer, 3);  // scoped to the bottleneck stage
  EXPECT_LT(d.layer, 6);
  EXPECT_EQ(d.new_bits, 4);  // next candidate below 8
  const ExecutionPlan next = Replanner::apply(s.plan, d);
  EXPECT_EQ(next.layer_bits[static_cast<std::size_t>(d.layer)], 4);
}

TEST(ReplannerTest, OverloadHalvesMicroBatchesUntilFloor) {
  ReplanSetup s;
  HealthVerdict v;
  v.status = HealthStatus::kOverload;
  const PlanDelta d = s.replanner.propose(s.plan, v);
  ASSERT_EQ(d.kind, PlanDeltaKind::kMicroBatch);
  EXPECT_EQ(d.prefill_micro_batch, 1);
  EXPECT_EQ(d.decode_micro_batch, 1);
  const ExecutionPlan next = Replanner::apply(s.plan, d);
  EXPECT_EQ(next.prefill_micro_batch, 1);
  // Already at the smallest quanta: no further repair.
  EXPECT_EQ(s.replanner.propose(next, v).kind, PlanDeltaKind::kNone);
}

TEST(ReplannerTest, ApplyRejectsNonAdjacentMigration) {
  ReplanSetup s;
  PlanDelta d;
  d.kind = PlanDeltaKind::kMigrateLayer;
  d.layer = 0;
  d.from_stage = 0;
  d.to_stage = 0;  // not adjacent
  EXPECT_THROW(Replanner::apply(s.plan, d), Error);
}

// ---------------------------------------------------------------------------
// MigrationController: deltas become live engines.
// ---------------------------------------------------------------------------

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : spec_(tiny_spec()),
        weights_(build_random_model(
            spec_, std::vector<int>(static_cast<std::size_t>(spec_.layers), 8),
            2024)),
        engine_(weights_, {{0, 3}, {3, 6}}, 2, 2) {
    Rng rng(3);
    for (int i = 0; i < 4; ++i) prompts_.push_back(make_prompt(rng, spec_, 8));
    reference_ = reference_generate(weights_, prompts_, 4);
  }
  ModelSpec spec_;
  ModelWeights weights_;
  PipelineEngine engine_;
  std::vector<std::vector<TokenId>> prompts_;
  std::vector<std::vector<TokenId>> reference_;
};

TEST_F(MigrationTest, NoneDeltaReturnsNullAndKeepsPlan) {
  MigrationController ctl(weights_, tiny_plan(), 2024);
  EXPECT_EQ(ctl.apply(PlanDelta{}), nullptr);
  EXPECT_EQ(ctl.migrations(), 0);
  EXPECT_EQ(ctl.plan().boundaries, (std::vector<int>{0, 3, 6}));
}

TEST_F(MigrationTest, MigrateLayerSharesWeightsAndStaysBitExact) {
  MigrationController ctl(weights_, tiny_plan(), 2024);
  PlanDelta d;
  d.kind = PlanDeltaKind::kMigrateLayer;
  d.layer = 3;
  d.from_stage = 1;
  d.to_stage = 0;
  PipelineEngine* next = ctl.apply(d);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(ctl.migrations(), 1);
  EXPECT_EQ(ctl.plan().boundaries, (std::vector<int>{0, 4, 6}));
  // The repartitioned engine runs the same tensors: greedy output is
  // bit-identical to the pre-migration reference.
  EXPECT_EQ(next->generate(prompts_, 4), reference_);
}

TEST_F(MigrationTest, BitChangeRebuildsFromTheSameMasterSeed) {
  MigrationController ctl(weights_, tiny_plan(), 2024);
  PlanDelta d;
  d.kind = PlanDeltaKind::kBitChange;
  d.layer = 0;
  d.new_bits = 4;
  PipelineEngine* next = ctl.apply(d);
  ASSERT_NE(next, nullptr);
  // Same model identity, lower precision: matches a direct build of the
  // new bit vector from the same seed (NOT the old reference — precision
  // changed by design).
  std::vector<int> bits(static_cast<std::size_t>(spec_.layers), 8);
  bits[0] = 4;
  const ModelWeights direct = build_random_model(spec_, bits, 2024);
  EXPECT_EQ(next->generate(prompts_, 4),
            reference_generate(direct, prompts_, 4));
}

TEST_F(MigrationTest, HookProposesAppliesAndAdvancesThePlan) {
  ReplanSetup s;
  MigrationController ctl(weights_, s.plan, 2024);
  auto hook = ctl.hook(s.replanner);
  const ReplanOutcome out = hook(straggler(1));
  EXPECT_EQ(out.delta.kind, PlanDeltaKind::kMigrateLayer);
  ASSERT_NE(out.engine, nullptr);
  EXPECT_EQ(ctl.plan().boundaries, (std::vector<int>{0, 4, 6}));
  // A healthy verdict through the hook is a no-op.
  const ReplanOutcome idle = hook(HealthVerdict{});
  EXPECT_EQ(idle.engine, nullptr);
  EXPECT_EQ(idle.delta.kind, PlanDeltaKind::kNone);
}

/// Two allocation faults on the dispatches right after the health warmup:
/// the next completed dispatch trips a kMemoryPressure verdict.
FaultPlan late_mem_faults() {
  FaultPlan plan;
  FaultRule alloc = rule("serve.dispatch", FaultKind::kAllocFail, 1.0, 2);
  alloc.after = 6;  // past the health warmup
  plan.rules.push_back(alloc);
  return plan;
}

TEST_F(MigrationTest, MemFaultsReplanOntoLowerBits) {
  // Repeated allocation faults trip a kMemoryPressure verdict; the
  // Replanner answers with a one-layer bit step-down and the loop migrates
  // onto the rebuilt engine live.
  ReplanSetup s;
  MigrationController ctl(weights_, s.plan, 2024);
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.max_retries = 4;
  opt.scheduler.retry_backoff_s = 0.001;
  opt.health.straggler_ratio = 1e9;  // only memory pressure can trip
  opt.replan = ctl.hook(s.replanner);

  std::vector<OnlineTraceRequest> trace(prompts_.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].prompt = prompts_[i];
    trace[i].gen_tokens = 16;
  }
  OnlineReport rep;
  {
    ArmedPlan armed(late_mem_faults());
    rep = serve_trace(engine_, trace, opt);
  }
  EXPECT_EQ(rep.completed, 4);
  EXPECT_EQ(rep.mem_faults, 2);
  ASSERT_EQ(rep.replans.size(), 1u);
  EXPECT_EQ(rep.replans[0].status, HealthStatus::kMemoryPressure);
  EXPECT_EQ(rep.replans[0].delta.kind, PlanDeltaKind::kBitChange);
  EXPECT_TRUE(rep.replans[0].applied);
  EXPECT_EQ(rep.migrations, 1);
  EXPECT_EQ(std::count_if(ctl.plan().layer_bits.begin(),
                          ctl.plan().layer_bits.end(),
                          [](int b) { return b < 8; }),
            1);
}

// ---------------------------------------------------------------------------
// Replacement-engine validation (every re-plan swap gates on it).
// ---------------------------------------------------------------------------

TEST_F(MigrationTest, ValidateReplacementEngineNamesTheMismatch) {
  ModelSpec other = spec_;
  other.vocab = 80;
  const ModelWeights other_weights = build_random_model(
      other, std::vector<int>(static_cast<std::size_t>(other.layers), 8),
      2024);
  PipelineEngine wrong_vocab(other_weights, {{0, 3}, {3, 6}}, 1, 1);
  const std::string err = validate_replacement_engine(engine_, wrong_vocab);
  EXPECT_NE(err.find("vocab"), std::string::npos) << err;

  ModelSpec shallow = spec_;
  shallow.layers = 4;
  const ModelWeights shallow_weights = build_random_model(
      shallow, std::vector<int>(4, 8), 2024);
  PipelineEngine wrong_layers(shallow_weights, {{0, 2}, {2, 4}}, 1, 1);
  EXPECT_NE(validate_replacement_engine(engine_, wrong_layers).find("layer"),
            std::string::npos);

  PipelineEngine ok(weights_, {{0, 4}, {4, 6}}, 1, 1);
  EXPECT_TRUE(validate_replacement_engine(engine_, ok).empty());
}

TEST_F(MigrationTest, IncompatibleReplanEngineIsATerminalServingError) {
  // The replan hook answers the memory-pressure verdict with an engine for
  // a different model: the loop must surface a clear error instead of
  // silently swapping it in.
  ModelSpec other = spec_;
  other.vocab = 80;
  const ModelWeights other_weights = build_random_model(
      other, std::vector<int>(static_cast<std::size_t>(other.layers), 8),
      2024);
  PipelineEngine wrong(other_weights, {{0, 3}, {3, 6}}, 1, 1);

  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.scheduler.max_retries = 4;
  opt.scheduler.retry_backoff_s = 0.001;
  opt.health.straggler_ratio = 1e9;  // only memory pressure can trip
  opt.replan = [&](const HealthVerdict&) {
    ReplanOutcome out;
    out.delta.kind = PlanDeltaKind::kBitChange;
    out.engine = &wrong;
    return out;
  };

  std::vector<OnlineTraceRequest> trace(3);
  Rng rng(11);
  for (auto& t : trace) {
    t.prompt = make_prompt(rng, spec_, 8);
    t.gen_tokens = 16;  // enough dispatches to outlast the warmup
  }
  ArmedPlan armed(late_mem_faults());
  try {
    serve_trace(engine_, trace, opt);
    FAIL() << "expected Error for the incompatible replan engine";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("vocab"), std::string::npos);
  }
  // The terminal error must not strand the run's sessions (and their KV
  // pages) on the caller's engine.
  for (int sid = 1; sid <= 3; ++sid) EXPECT_FALSE(engine_.has_session(sid));
}

// ---------------------------------------------------------------------------
// Elastic migration end to end: a sustained straggler triggers live
// re-planning, throughput recovers, and every request stays exact.
// ---------------------------------------------------------------------------

class ControlLoopTest : public MigrationTest {
 protected:
  std::vector<OnlineTraceRequest> burst_trace(int n, int gen) {
    std::vector<OnlineTraceRequest> trace;
    for (int i = 0; i < n; ++i) {
      OnlineTraceRequest t;
      t.prompt = prompts_[static_cast<std::size_t>(i) % prompts_.size()];
      t.gen_tokens = gen;
      trace.push_back(std::move(t));
    }
    return trace;
  }
};

TEST_F(ControlLoopTest, StragglerMigrationRecoversThroughputBitExact) {
  // A sustained slowdown on stage 1's workers (per micro-batch per layer,
  // so the drag scales with the layers the stage still owns). The control
  // loop should migrate layers off stage 1, shrinking the drag; the
  // no-replan run keeps paying it in full.
  FaultPlan plan;
  FaultRule slow = rule("stage.1.layer", FaultKind::kSlow, 1.0,
                        std::numeric_limits<int>::max(), 25.0);
  slow.after = 40;  // the baseline window must stay clean
  plan.rules.push_back(slow);

  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  const int n = 4, gen = 16;
  const std::vector<std::vector<TokenId>> expected =
      reference_generate(weights_, prompts_, gen);

  OnlineReport degraded;
  {
    ArmedPlan armed(plan);
    degraded = serve_trace(engine_, burst_trace(n, gen), opt);
  }
  EXPECT_EQ(degraded.completed, n);
  EXPECT_EQ(degraded.migrations, 0);

  ReplanSetup s;
  MigrationController ctl(weights_, s.plan, 2024);
  opt.health.warmup = 4;
  opt.health.hysteresis = 2;
  opt.health.cooldown = 3;  // re-trip quickly so several repairs land
  opt.replan = ctl.hook(s.replanner);
  OnlineReport migrated;
  {
    ArmedPlan armed(plan);
    migrated = serve_trace(engine_, burst_trace(n, gen), opt);
  }

  // The loop detected the straggler and migrated at least one layer off
  // stage 1 (all repairs here are bit-preserving boundary moves).
  ASSERT_GE(migrated.migrations, 1);
  ASSERT_FALSE(migrated.replans.empty());
  for (const ReplanEvent& ev : migrated.replans) {
    EXPECT_EQ(ev.status, HealthStatus::kStraggler);
    EXPECT_EQ(ev.bottleneck_stage, 1);
    if (ev.applied) {
      EXPECT_EQ(ev.delta.kind, PlanDeltaKind::kMigrateLayer);
      EXPECT_EQ(ev.delta.from_stage, 1);
    }
  }
  EXPECT_LT(ctl.plan().stage_size(1), 3);

  // Conservation: every request finished exactly once, completed.
  EXPECT_EQ(migrated.completed, n);
  std::set<int> seen;
  for (const RequestStats& r : migrated.requests)
    EXPECT_TRUE(seen.insert(r.id).second);
  EXPECT_EQ(static_cast<int>(seen.size()), n);

  // Bit-exactness across the live swaps: each request's output equals its
  // unmigrated greedy continuation.
  ASSERT_EQ(migrated.generated.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(migrated.generated[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i) % expected.size()])
        << "request " << i;

  // Recovery: shedding straggler layers must beat tolerating them.
  EXPECT_GT(migrated.throughput_tokens_per_s,
            degraded.throughput_tokens_per_s);
}

// ---------------------------------------------------------------------------
// Sim-vs-runtime parity: the re-plan decision log joins the dispatch log.
// ---------------------------------------------------------------------------

struct ParityTrace {
  int requests = 3;
  int gen = 20;
  int after = 8;        ///< clean evaluations before the slow window
  double delay_ms = 250.0;
};

TEST_F(ControlLoopTest, ReplanEventsMatchAcrossBackendsOnStragglerTraces) {
  const ParityTrace traces[] = {{3, 20, 8, 250.0}, {4, 24, 12, 300.0}};
  for (const ParityTrace& tc : traces) {
    SCOPED_TRACE("after=" + std::to_string(tc.after));
    // The serving-layer site fires once per dispatch per stage in BOTH
    // back-ends, so the slow window opens at the same decision seq.
    FaultPlan plan;
    FaultRule slow = rule("serve.stage.1", FaultKind::kSlow, 1.0,
                          std::numeric_limits<int>::max(), tc.delay_ms);
    slow.after = tc.after;
    plan.rules.push_back(slow);

    ReplanSetup s;
    OnlineEngineOptions opt;
    opt.scheduler.policy = SchedulerPolicy::kIterationLevel;

    MigrationController ctl(weights_, s.plan, 2024);
    opt.replan = ctl.hook(s.replanner);
    OnlineReport runtime;
    {
      ArmedPlan armed(plan);
      runtime = serve_trace(engine_, burst_trace(tc.requests, tc.gen), opt);
    }
    EXPECT_EQ(runtime.completed, tc.requests);

    std::vector<OnlineRequest> reqs(
        static_cast<std::size_t>(tc.requests));
    for (auto& r : reqs) {
      r.arrival_s = 0.0;
      r.prompt_len = 8;
      r.gen_tokens = tc.gen;
    }
    OnlineReplanOptions ropt;
    ropt.health = opt.health;
    ropt.cost = &s.cost;
    const OnlineSimResult sim = simulate_online(
        spec_, s.cluster, s.plan, reqs, opt.scheduler, plan, &ropt);
    ASSERT_TRUE(sim.ok) << sim.error;

    // Dispatch-decision parity (the pre-existing key) still holds with
    // the control loop in the picture...
    ASSERT_EQ(runtime.decisions.size(), sim.decisions.size());
    // ...and the new re-plan events extend it: same verdicts at the same
    // seqs proposing the same moves, on both clocks.
    ASSERT_GE(runtime.replans.size(), 2u);
    ASSERT_EQ(runtime.replans.size(), sim.replans.size());
    for (std::size_t i = 0; i < runtime.replans.size(); ++i) {
      EXPECT_TRUE(runtime.replans[i].same_decision(sim.replans[i]))
          << "event " << i << ": runtime seq " << runtime.replans[i].at_seq
          << " (" << runtime.replans[i].delta.describe() << ") vs sim seq "
          << sim.replans[i].at_seq << " ("
          << sim.replans[i].delta.describe() << ")";
    }
    EXPECT_EQ(runtime.migrations, sim.migrations);
    EXPECT_EQ(ctl.plan().boundaries, sim.final_plan.boundaries);
  }
}

TEST(SimControlLoop, ReplanningRecoversVirtualThroughputDeterministically) {
  // Pure-sim acceptance check on the virtual clock: a sustained straggler
  // with the control loop on beats the same trace with it off, and the
  // whole run (including the decision log) is bit-identical on replay.
  ModelSpec spec = tiny_spec();
  ClusterSpec cluster = make_cluster("t", {{"T4-16G", 2}});
  CostProvider cost(spec, cluster, CostMode::kProfiled);
  const ExecutionPlan plan = tiny_plan();

  std::vector<OnlineRequest> reqs(4);
  for (auto& r : reqs) {
    r.arrival_s = 0.0;
    r.prompt_len = 8;
    r.gen_tokens = 24;
  }
  OnlineSimOptions opt;
  opt.policy = SchedulerPolicy::kIterationLevel;

  FaultPlan faults;
  FaultRule slow = rule("serve.stage.1", FaultKind::kSlow, 1.0,
                        std::numeric_limits<int>::max(), 200.0);
  slow.after = 8;
  faults.rules.push_back(slow);

  const OnlineSimResult tolerate =
      simulate_online(spec, cluster, plan, reqs, opt, faults);
  ASSERT_TRUE(tolerate.ok) << tolerate.error;
  EXPECT_EQ(tolerate.migrations, 0);

  OnlineReplanOptions ropt;
  ropt.cost = &cost;
  ropt.health.cooldown = 3;
  const OnlineSimResult replanned =
      simulate_online(spec, cluster, plan, reqs, opt, faults, &ropt);
  ASSERT_TRUE(replanned.ok) << replanned.error;
  EXPECT_GE(replanned.migrations, 1);
  EXPECT_GT(replanned.throughput_tokens_per_s,
            tolerate.throughput_tokens_per_s);
  EXPECT_EQ(replanned.completed + replanned.timed_out + replanned.rejected +
                replanned.failed,
            4);

  const OnlineSimResult again =
      simulate_online(spec, cluster, plan, reqs, opt, faults, &ropt);
  ASSERT_EQ(again.replans.size(), replanned.replans.size());
  for (std::size_t i = 0; i < again.replans.size(); ++i)
    EXPECT_TRUE(again.replans[i].same_decision(replanned.replans[i]));
  EXPECT_DOUBLE_EQ(again.makespan_s, replanned.makespan_s);
}

// ---------------------------------------------------------------------------
// Metrics export: periodic llmpq-metrics/v1 snapshots from the live loop.
// ---------------------------------------------------------------------------

TEST_F(ControlLoopTest, MetricsSnapshotRoundTripsThroughTheSchema) {
  const std::string path = "replan_metrics_snapshot.json";
  std::remove(path.c_str());
  OnlineEngineOptions opt;
  opt.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opt.metrics_out = path;
  opt.metrics_interval_s = 0.0;  // snapshot after every dispatch
  const OnlineReport rep = serve_trace(engine_, burst_trace(3, 4), opt);
  EXPECT_EQ(rep.completed, 3);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "metrics file missing: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  EXPECT_EQ(doc.at("schema").string, "llmpq-metrics/v1");
  EXPECT_GE(doc.at("values").at("serve.health.samples").number, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("values").at("serve.health.migrations").number,
                   0.0);
  // The live engine's stats ride along for dashboards.
  EXPECT_GE(doc.at("engines").at("serve.engine").at("generate_calls").number,
            0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace llmpq
