// Step-level decode sessions over the paged KV cache: the KvCacheManager
// unit suite (page reuse, LRU eviction/preemption, footprint accounting
// reconciled with the planner's memory model), the engine session API, and
// the mixed-length serving regression that pins ragged batches to each
// request's unbatched greedy continuation — the fidelity bug the padded
// replay path had.

#include <gtest/gtest.h>

#include <new>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cost/mem_model.hpp"
#include "runtime/engine.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/kv_cache_manager.hpp"
#include "runtime/transformer.hpp"
#include "serve/online_engine.hpp"

namespace llmpq {
namespace {

// ---------------------------------------------------------------------------
// KvCacheManager: paged allocation, eviction, accounting.
// ---------------------------------------------------------------------------

KvCacheManagerOptions paged(std::size_t page_size, std::size_t max_pages) {
  KvCacheManagerOptions o;
  o.page_size = page_size;
  o.max_pages = max_pages;
  return o;
}

std::vector<float> vec_of(std::size_t hidden, float base) {
  std::vector<float> v(hidden);
  for (std::size_t i = 0; i < hidden; ++i)
    v[i] = base + static_cast<float>(i);
  return v;
}

TEST(KvCacheManager, AppendReadRoundTripAcrossPages) {
  KvCacheManager m(/*hidden=*/4, paged(/*page_size=*/3, /*max_pages=*/0));
  m.begin_seq(7);
  m.reserve(7, 8);  // 3 pages
  for (int t = 0; t < 8; ++t) {
    const auto k = vec_of(4, 100.0f + static_cast<float>(t));
    const auto v = vec_of(4, 200.0f + static_cast<float>(t));
    m.append(7, k.data(), v.data());
  }
  EXPECT_EQ(m.filled(7), 8u);
  for (int t = 0; t < 8; ++t) {
    const float* k = m.k_at(7, static_cast<std::size_t>(t));
    const float* v = m.v_at(7, static_cast<std::size_t>(t));
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(k[i], 100.0f + static_cast<float>(t) +
                                static_cast<float>(i));
      EXPECT_FLOAT_EQ(v[i], 200.0f + static_cast<float>(t) +
                                static_cast<float>(i));
    }
  }
}

TEST(KvCacheManager, ValidatesSequenceAndPosition) {
  KvCacheManager m(/*hidden=*/2, paged(4, 0));
  const auto k = vec_of(2, 0.0f), v = vec_of(2, 0.0f);
  EXPECT_THROW(m.append(1, k.data(), v.data()), InvalidArgumentError);
  m.begin_seq(1);
  EXPECT_THROW(m.begin_seq(1), InvalidArgumentError);  // already live
  // Appending without a reservation is rejected, not silently grown.
  EXPECT_THROW(m.append(1, k.data(), v.data()), InvalidArgumentError);
  m.reserve(1, 2);
  m.append(1, k.data(), v.data());
  EXPECT_NO_THROW(m.k_at(1, 0));
  EXPECT_THROW(m.k_at(1, 1), InvalidArgumentError);  // not filled
  EXPECT_THROW(m.v_at(1, 1), InvalidArgumentError);
  EXPECT_THROW(m.k_at(2, 0), InvalidArgumentError);  // unknown sequence
  EXPECT_THROW(m.truncate(1, 2), InvalidArgumentError);
  m.truncate(1, 0);
  EXPECT_EQ(m.filled(1), 0u);
  m.free_seq(1);
  EXPECT_THROW(m.free_seq(1), InvalidArgumentError);
}

TEST(KvCacheManager, FreedPagesAreReusedNotReallocated) {
  KvCacheManager m(/*hidden=*/8, paged(16, 0));
  m.begin_seq(1);
  m.reserve(1, 40);  // 3 pages
  EXPECT_EQ(m.pool_pages(), 3u);
  const std::size_t footprint = m.footprint_bytes();
  m.free_seq(1);
  EXPECT_EQ(m.free_pages(), 3u);
  EXPECT_EQ(m.footprint_bytes(), footprint);  // pages pooled, not released
  m.begin_seq(2);
  m.reserve(2, 48);  // exactly the 3 recycled pages
  EXPECT_EQ(m.pool_pages(), 3u);
  EXPECT_EQ(m.free_pages(), 0u);
  EXPECT_EQ(m.footprint_bytes(), footprint);
}

TEST(KvCacheManager, CappedPoolEvictsLruAndFiresPreemptHook) {
  KvCacheManager m(/*hidden=*/2, paged(/*page_size=*/4, /*max_pages=*/2));
  std::vector<int> preempted;
  m.set_preempt_hook([&](int seq) { preempted.push_back(seq); });
  const auto k = vec_of(2, 1.0f), v = vec_of(2, 2.0f);
  m.begin_seq(10);
  m.reserve(10, 4);
  m.append(10, k.data(), v.data());
  m.begin_seq(11);
  m.reserve(11, 4);  // pool full: 2 pages, both held
  m.append(11, k.data(), v.data());
  // Touch 10 (a no-op re-reservation bumps recency, exactly what a decode
  // step does) so 11 is the LRU victim.
  m.reserve(10, 4);
  m.begin_seq(12);
  m.reserve(12, 4);  // no free page, cap reached -> evict 11
  EXPECT_EQ(preempted, std::vector<int>{11});
  EXPECT_EQ(m.evictions(), 1u);
  EXPECT_EQ(m.filled(11), 0u);  // victim must be re-prefilled
  EXPECT_EQ(m.filled(10), 1u);  // survivor untouched
  EXPECT_EQ(m.pool_pages(), 2u);
}

TEST(KvCacheManager, PinnedSequencesAreNeverEvicted) {
  KvCacheManager m(/*hidden=*/2, paged(4, 1));
  const auto k = vec_of(2, 0.0f), v = vec_of(2, 0.0f);
  m.begin_seq(1);
  m.pin(1);
  m.reserve(1, 4);
  m.append(1, k.data(), v.data());
  m.begin_seq(2);
  // The only page belongs to a pinned sequence; a reservation can neither
  // steal it nor cannibalize its own sequence, so it must fail cleanly.
  EXPECT_THROW(m.reserve(2, 4), std::bad_alloc);
  EXPECT_EQ(m.filled(1), 1u);
  m.unpin(1);
  EXPECT_NO_THROW(m.reserve(2, 4));  // now 1 is evictable
  EXPECT_EQ(m.evictions(), 1u);
}

TEST(KvCacheManager, EvictedSequenceRePrefillsCorrectly) {
  KvCacheManager m(/*hidden=*/2, paged(/*page_size=*/4, /*max_pages=*/2));
  int victims = 0;
  m.set_preempt_hook([&](int) { ++victims; });
  m.begin_seq(1);
  m.reserve(1, 4);
  for (int t = 0; t < 4; ++t) {
    const auto k = vec_of(2, 10.0f + static_cast<float>(t));
    const auto v = vec_of(2, 20.0f + static_cast<float>(t));
    m.append(1, k.data(), v.data());
  }
  m.begin_seq(2);
  m.reserve(2, 8);  // takes both pages: evicts 1, then the freed page
  EXPECT_EQ(victims, 1);
  EXPECT_EQ(m.filled(1), 0u);
  m.free_seq(2);
  // Re-prefill the victim: reserve again, append the same data, read back.
  m.reserve(1, 4);
  for (int t = 0; t < 4; ++t) {
    const auto k = vec_of(2, 10.0f + static_cast<float>(t));
    const auto v = vec_of(2, 20.0f + static_cast<float>(t));
    m.append(1, k.data(), v.data());
  }
  for (int t = 0; t < 4; ++t)
    EXPECT_FLOAT_EQ(m.k_at(1, static_cast<std::size_t>(t))[0],
                    10.0f + static_cast<float>(t));
}

TEST(KvCacheManager, FootprintIsMonotonicAcrossChurn) {
  KvCacheManager m(/*hidden=*/4, paged(8, 0));
  std::size_t last = m.footprint_bytes();
  for (int round = 0; round < 5; ++round) {
    m.begin_seq(round);
    m.reserve(round, 8 * (round + 1));
    EXPECT_GE(m.footprint_bytes(), last);
    EXPECT_LE(m.used_bytes(), m.footprint_bytes());
    last = m.footprint_bytes();
    m.free_seq(round);
    EXPECT_EQ(m.footprint_bytes(), last);  // frees return pages to the pool
  }
}

TEST(KvCacheManager, PlannedBytesReconcilesWithPlannerMemModel) {
  // The planner reserves FP16 K+V at full length (layer_kv_bytes); the
  // runtime pools FP32 pages. Whenever the page size divides max_seq the
  // paged plan is exactly the FP32/FP16 factor (2x) of the planner's
  // number — the two memory models agree up to precision.
  ModelSpec spec;
  spec.hidden = 64;
  const std::size_t batch = 4, max_seq = 128, page = 16;
  const auto planner =
      static_cast<std::size_t>(layer_kv_bytes(spec, batch, max_seq));
  EXPECT_EQ(KvCacheManager::planned_bytes(batch, max_seq, 64, page),
            2 * planner);
  // Non-dividing page size rounds up by at most one page per sequence.
  const std::size_t ragged =
      KvCacheManager::planned_bytes(batch, 100, 64, page);
  EXPECT_EQ(ragged, KvCacheManager::planned_bytes(batch, 112, 64, page));
  // And the real pool matches the static plan.
  KvCacheManager m(64, paged(page, 0));
  for (int b = 0; b < static_cast<int>(batch); ++b) {
    m.begin_seq(b);
    m.reserve(b, max_seq);
  }
  EXPECT_EQ(m.footprint_bytes(),
            KvCacheManager::planned_bytes(batch, max_seq, 64, page));
}

// ---------------------------------------------------------------------------
// Legacy KvCache: reads are bounds-checked (same contract as the manager).
// ---------------------------------------------------------------------------

TEST(KvCache, ReadsValidateSequenceAndFilledPosition) {
  KvCache c(/*batch=*/2, /*max_seq=*/4, /*hidden=*/2);
  const auto k = vec_of(2, 1.0f), v = vec_of(2, 2.0f);
  c.append(0, k.data(), v.data());
  EXPECT_NO_THROW(c.k_at(0, 0));
  EXPECT_NO_THROW(c.v_at(0, 0));
  // Position 1 exists in the reservation but was never written: reading it
  // would silently return zeros, so it must throw instead.
  EXPECT_THROW(c.k_at(0, 1), InvalidArgumentError);
  EXPECT_THROW(c.v_at(0, 1), InvalidArgumentError);
  EXPECT_THROW(c.k_at(1, 0), InvalidArgumentError);  // nothing filled
  EXPECT_THROW(c.k_at(2, 0), InvalidArgumentError);  // sequence OOR
  EXPECT_THROW(c.v_at(2, 0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Engine session API: step-level decode with persistent KV.
// ---------------------------------------------------------------------------

ModelSpec tiny_spec() {
  ModelSpec m;
  m.name = "tiny-session";
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

class SessionEngineTest : public ::testing::Test {
 protected:
  SessionEngineTest()
      : spec_(tiny_spec()),
        weights_(build_random_model(
            spec_, std::vector<int>(static_cast<std::size_t>(spec_.layers), 8),
            2024)),
        engine_(weights_, {{0, 3}, {3, 6}}, 2, 2) {}

  /// Unbatched ground truth for one prompt.
  std::vector<TokenId> reference_one(const std::vector<TokenId>& prompt,
                                     int gen) {
    return reference_generate(weights_, {prompt}, gen)[0];
  }

  ModelSpec spec_;
  ModelWeights weights_;
  PipelineEngine engine_;
};

TEST_F(SessionEngineTest, MixedLengthSessionsMatchUnbatchedReference) {
  // The tentpole property: sessions of DIFFERENT lengths prefill and
  // decode together in one ragged batch, and every request reproduces its
  // unbatched greedy continuation exactly — there is no padding anywhere
  // to perturb attention.
  Rng rng(101);
  const int lens[] = {5, 11, 17};
  const int gen = 6;
  std::vector<std::vector<TokenId>> prompts;
  std::vector<int> sessions;
  for (int len : lens) {
    prompts.push_back(make_prompt(rng, spec_, len));
    sessions.push_back(engine_.begin_session(prompts.back()));
  }
  std::vector<std::vector<TokenId>> got(prompts.size());
  std::vector<TokenId> toks = engine_.prefill(sessions);
  for (std::size_t i = 0; i < toks.size(); ++i) got[i].push_back(toks[i]);
  for (int step = 1; step < gen; ++step) {
    toks = engine_.decode_step(sessions);
    for (std::size_t i = 0; i < toks.size(); ++i) got[i].push_back(toks[i]);
  }
  for (std::size_t i = 0; i < prompts.size(); ++i)
    EXPECT_EQ(got[i], reference_one(prompts[i], gen)) << "request " << i;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(engine_.session_length(sessions[i]),
              prompts[i].size() + static_cast<std::size_t>(gen));
    engine_.end_session(sessions[i]);
    EXPECT_FALSE(engine_.has_session(sessions[i]));
  }
}

TEST_F(SessionEngineTest, SessionsJoinMidStreamWithKvReuse) {
  // Continuous batching shape: one session decodes alone, a second joins
  // later, and both keep matching their unbatched references — the first
  // session's KV survives across every call.
  Rng rng(7);
  const auto p0 = make_prompt(rng, spec_, 9);
  const auto p1 = make_prompt(rng, spec_, 13);
  const auto ref0 = reference_one(p0, 5);
  const auto ref1 = reference_one(p1, 3);

  const int s0 = engine_.begin_session(p0);
  std::vector<TokenId> got0{engine_.prefill({s0})[0]};
  got0.push_back(engine_.decode_step({s0})[0]);

  const int s1 = engine_.begin_session(p1);
  std::vector<TokenId> got1{engine_.prefill({s1})[0]};
  for (int step = 0; step < 2; ++step) {
    const auto toks = engine_.decode_step({s0, s1});
    got0.push_back(toks[0]);
    got1.push_back(toks[1]);
  }
  got0.push_back(engine_.decode_step({s0})[0]);

  EXPECT_EQ(got0, ref0);
  EXPECT_EQ(got1, ref1);
  engine_.end_session(s0);
  engine_.end_session(s1);
}

TEST_F(SessionEngineTest, SessionMisuseIsRejected) {
  EXPECT_THROW(engine_.begin_session({}), InvalidArgumentError);
  Rng rng(3);
  const int s = engine_.begin_session(make_prompt(rng, spec_, 6));
  EXPECT_THROW(engine_.decode_step({s}), InvalidArgumentError);  // no prefill
  EXPECT_THROW(engine_.prefill({}), InvalidArgumentError);       // empty call
  (void)engine_.prefill({s});
  EXPECT_THROW(engine_.prefill({s}), InvalidArgumentError);  // already done
  EXPECT_EQ(engine_.session_committed(s), 6u);
  EXPECT_EQ(engine_.session_length(s), 7u);
  engine_.end_session(s);
  EXPECT_THROW(engine_.end_session(s), InvalidArgumentError);
  EXPECT_THROW(engine_.decode_step({s}), InvalidArgumentError);  // unknown
}

TEST_F(SessionEngineTest, KvFootprintGrowsThenPoolsPages) {
  const std::size_t before = engine_.kv_footprint_bytes();
  Rng rng(5);
  const int s = engine_.begin_session(make_prompt(rng, spec_, 12));
  (void)engine_.prefill({s});
  const std::size_t during = engine_.kv_footprint_bytes();
  EXPECT_GT(during, before);
  engine_.end_session(s);
  // Pages return to the pool, not the OS: footprint is monotonic.
  EXPECT_EQ(engine_.kv_footprint_bytes(), during);
}

// ---------------------------------------------------------------------------
// Serving regression: mixed-length batches under session execution.
// ---------------------------------------------------------------------------

class MixedLengthServeTest : public SessionEngineTest {
 protected:
  /// A burst of mixed-length requests (the shape the paper's ShareGPT
  /// workload produces) plus each request's unbatched greedy continuation.
  void build_trace() {
    Rng rng(29);
    const int lens[] = {4, 10, 16};
    for (int len : lens) {
      OnlineTraceRequest t;
      t.prompt = make_prompt(rng, spec_, len);
      t.gen_tokens = 6;
      reference_.push_back(reference_one(t.prompt, t.gen_tokens));
      trace_.push_back(std::move(t));
    }
  }

  OnlineReport serve(SchedulerPolicy policy, DecodeExec exec) {
    OnlineEngineOptions opt;
    opt.scheduler.policy = policy;
    opt.scheduler.exec = exec;
    opt.scheduler.batch_size = 3;
    opt.scheduler.max_batch = 3;
    return serve_trace(engine_, trace_, opt);
  }

  std::vector<OnlineTraceRequest> trace_;
  std::vector<std::vector<TokenId>> reference_;
};

TEST_F(MixedLengthServeTest, SessionDecodeIsExactForMixedLengths) {
  build_trace();
  for (SchedulerPolicy policy : {SchedulerPolicy::kStaticBatching,
                                 SchedulerPolicy::kIterationLevel}) {
    const OnlineReport rep = serve(policy, DecodeExec::kSession);
    EXPECT_EQ(rep.completed, 3);
    ASSERT_EQ(rep.generated.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(rep.generated[i], reference_[i])
          << scheduler_policy_name(policy) << " request " << i;
  }
}

TEST_F(MixedLengthServeTest, EmptyPromptRejectedAtTheBoundary) {
  // Zero-length prompts have no last token to sample: both entry points
  // reject them up front with InvalidArgumentError instead of failing
  // mid-dispatch.
  OnlineTraceRequest bad;
  bad.gen_tokens = 2;
  EXPECT_THROW(serve_trace(engine_, {bad}, OnlineEngineOptions{}),
               InvalidArgumentError);
  OnlineEngineOptions opt;
  OnlineEngine server(engine_, opt);
  EXPECT_THROW(server.submit({}, 2), InvalidArgumentError);
  server.close();
  const OnlineReport rep = server.wait();
  EXPECT_EQ(rep.completed, 0);
}

}  // namespace
}  // namespace llmpq
