#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "quant/qgemm.hpp"
#include "runtime/transformer.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace llmpq;

namespace {

/// Probes the first eight passes of each phase and every fifth after that,
/// which keeps a traced run within about twice the untraced one.
bool sampled(int pass_index) { return pass_index < 8 || pass_index % 5 == 0; }

/// One row of an engine pass as the kernels see it: `len` new token rows
/// over `cached` positions already in the KV cache.
struct ProbeRow {
  std::size_t len = 0;
  std::size_t cached = 0;
};

/// Times the kernels of one engine pass outside the pipeline, on the
/// engine's own weights and a bench-owned KV cache: per micro-batch slice
/// (as the engine splits the pass) the embedding, each layer's forward,
/// sampling, and the four projections of one layer per bit width.
class Prober {
 public:
  Prober(const ModelWeights& mw, SpanLog& log)
      : mw_(mw),
        log_(log),
        hidden_(static_cast<std::size_t>(mw.spec.hidden)),
        ffn_(static_cast<std::size_t>(mw.spec.ffn)),
        cache_(hidden_) {
    Rng rng(99);
    kv_.resize(hidden_);
    for (float& v : kv_) v = static_cast<float>(rng.normal(0.0, 0.5));
    for (int s = 0; s < kMaxSlice; ++s) cache_.begin_seq(s);
    const std::vector<std::pair<int, int>> stages = stage_layers();
    for (std::size_t p = 0; p < stages.size(); ++p)
      for (int l = stages[p].first; l < stages[p].second; ++l)
        stage_of_.push_back(static_cast<int>(p));
    for (int bits : {4, 8, 16})
      for (std::size_t l = 0; l < mw.layers.size(); ++l)
        if (mw.layers[l].bits == bits) {
          qgemm_layer_.emplace_back(bits, l);
          break;
        }
  }

  /// Probes one pass and returns its ideal pipelined time in microseconds:
  /// the master embeds every slice, the stages run the slices in order
  /// with perfect hand-off, and the master samples each as it returns.
  double probe_pass(bool decode, const std::vector<ProbeRow>& rows) {
    const std::size_t per = decode ? kDecodeMicroBatch : kPrefillMicroBatch;
    const int num_stages = stage_of_.back() + 1;
    double embed_done = 0.0, sample_done = 0.0;
    std::vector<double> stage_done(static_cast<std::size_t>(num_stages), 0.0);
    for (std::size_t s0 = 0; s0 < rows.size(); s0 += per) {
      const std::size_t n = std::min(per, rows.size() - s0);
      std::vector<SeqSpan> spans;
      std::vector<std::size_t> offsets;
      std::size_t tokens = 0;
      for (std::size_t j = 0; j < n; ++j) {
        spans.push_back(SeqSpan{static_cast<int>(j), rows[s0 + j].len});
        offsets.push_back(rows[s0 + j].cached);
        tokens += rows[s0 + j].len;
      }
      const std::vector<TokenId> flat(tokens, 1);
      const double rows_arg = static_cast<double>(tokens);
      Tensor2D x;
      embed_done += timed_span(
          &log_, decode ? "transformer.embed.decode" : "transformer.embed.prefill",
          [&] { x = embed(mw_, flat, spans, offsets); }, {{"rows", rows_arg}});
      std::vector<double> stage_us(static_cast<std::size_t>(num_stages), 0.0);
      for (std::size_t l = 0; l < mw_.layers.size(); ++l) {
        for (std::size_t j = 0; j < n; ++j)
          fill_to(static_cast<int>(j), rows[s0 + j].cached, rows[s0 + j].len);
        StageMetrics m;
        const double ts = log_.now_us();
        StopwatchNs sw;
        decoder_layer_forward(mw_.spec, mw_.layers[l], x, cache_, spans,
                              nullptr, static_cast<int>(l), &m);
        const double dur = sw.elapsed_s() * 1e6;
        log_.add(decode ? "transformer.layer.decode" : "transformer.layer.prefill",
                 ts, dur,
                 {{"layer", static_cast<double>(l)},
                  {"rows", rows_arg},
                  {"qgemm_us", m.snapshot().qgemm_s * 1e6}});
        stage_us[static_cast<std::size_t>(stage_of_[l])] += dur;
      }
      const double sample_us = timed_span(
          &log_, decode ? "transformer.sample.decode" : "transformer.sample.prefill",
          [&] { (void)project_and_sample(mw_, x, spans); }, {{"rows", rows_arg}});
      // Pipeline recurrence over this slice.
      double t = embed_done;
      for (int p = 0; p < num_stages; ++p) {
        double& done = stage_done[static_cast<std::size_t>(p)];
        done = std::max(done, t) + stage_us[static_cast<std::size_t>(p)];
        t = done;
      }
      sample_done = std::max(sample_done, t) + sample_us;
      probe_qgemm(decode, tokens);
    }
    return sample_done;
  }

 private:
  static constexpr int kMaxSlice = std::max(kDecodeMicroBatch, kPrefillMicroBatch);

  /// Sets probe sequence `seq` to hold exactly `cached` positions, with
  /// room reserved for the `len` rows the forward will append.
  void fill_to(int seq, std::size_t cached, std::size_t len) {
    std::size_t f = cache_.filled(seq);
    cache_.reserve(seq, std::max(f, cached + len));
    if (f > cached) cache_.truncate(seq, cached);
    for (; f < cached; ++f) cache_.append(seq, kv_.data(), kv_.data());
  }

  /// The four projections of one layer per probed bit width at `m` rows.
  void probe_qgemm(bool decode, std::size_t m) {
    if (x_.size() < m * ffn_) {
      x_.assign(m * ffn_, 0.25f);
      y_.assign(m * std::max(3 * hidden_, ffn_), 0.0f);
    }
    for (const auto& [bits, l] : qgemm_layer_) {
      const LayerWeights& w = mw_.layers[l];
      const double bytes = static_cast<double>(
          w.qkv.packed_bytes() + w.out.packed_bytes() + w.fc1.packed_bytes() +
          w.fc2.packed_bytes());
      const auto run = [&](const QuantizedMatrix& q, std::size_t cols,
                           const std::vector<float>& bias) {
        qgemm(std::span<const float>(x_.data(), m * cols), m, cols, q, bias,
              std::span<float>(y_.data(), m * q.rows()));
      };
      StopwatchNs sw;
      const double ts = log_.now_us();
      run(w.qkv, hidden_, w.qkv_bias);
      run(w.out, hidden_, w.out_bias);
      run(w.fc1, hidden_, w.fc1_bias);
      run(w.fc2, ffn_, w.fc2_bias);
      const double dur = sw.elapsed_s() * 1e6;
      const std::string name = "quant.qgemm.b" + std::to_string(bits) +
                               (decode ? ".decode" : ".prefill");
      log_.add(name, ts, dur,
               {{"rows", static_cast<double>(m)},
                {"gbps", dur > 0.0 ? bytes / (dur * 1e3) : 0.0}});
    }
  }

  const ModelWeights& mw_;
  SpanLog& log_;
  std::size_t hidden_, ffn_;
  KvCacheManager cache_;
  std::vector<float> kv_;
  std::vector<int> stage_of_;  ///< layer -> pipeline stage
  std::vector<std::pair<int, std::size_t>> qgemm_layer_;  ///< bits -> layer
  std::vector<float> x_, y_;
};

}  // namespace

ReplayRun replay_traced(PipelineEngine& engine, const ModelWeights& weights,
                        const WorkloadSpec& w,
                        const std::vector<Request>& trace, SpanLog& log) {
  ServeScheduler sched(serve_options(w).scheduler);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ServeRequest r;
    r.id = static_cast<int>(i);
    r.arrival_s = trace[i].due_s;
    r.prompt_len = static_cast<int>(trace[i].prompt.size());
    r.gen_tokens = trace[i].gen;
    sched.submit(r);
  }
  sched.close();

  Prober prober(weights, log);
  ReplayRun out;
  out.generated.resize(trace.size());
  out.first_due_s = trace.empty() ? 0.0 : trace.front().due_s;
  std::unordered_map<int, int> session;  // request id -> engine session
  std::size_t finished_seen = 0;
  int prefill_passes = 0, decode_passes = 0;
  // Virtual clock: arrivals per the trace, plus the measured time of every
  // scheduler and engine call (probes excluded).
  double vt = 0.0;
  for (;;) {
    const double dispatch_ts = log.now_us();
    SchedulerAction a;
    const double next_us = timed_span(nullptr, "", [&] { a = sched.next(vt); });
    vt += next_us * 1e-6;
    if (a.kind == SchedulerAction::Kind::kDone) break;
    if (a.kind == SchedulerAction::Kind::kWait) {
      vt = std::max(vt, a.wait_until);
      continue;
    }
    const DispatchDecision& d = a.decision;
    double call_us = 0.0;
    for (int rid : d.preempted)
      call_us += timed_span(&log, "runtime.preempt_session",
                            [&] { engine.preempt_session(session.at(rid)); });
    std::vector<int> pre_sids, step_sids;
    std::vector<std::size_t> pre_rows, step_rows;
    std::vector<ProbeRow> pre_probe, step_probe;
    for (std::size_t i = 0; i < d.request_ids.size(); ++i) {
      const int rid = d.request_ids[i];
      auto it = session.find(rid);
      if (it == session.end()) {
        int sid = 0;
        call_us += timed_span(&log, "runtime.begin_session", [&] {
          sid = engine.begin_session(trace[static_cast<std::size_t>(rid)].prompt);
        });
        it = session.emplace(rid, sid).first;
      }
      const int sid = it->second;
      if (engine.session_committed(sid) == 0) {
        pre_sids.push_back(sid);
        pre_rows.push_back(i);
        pre_probe.push_back({engine.session_length(sid), 0});
      } else {
        step_sids.push_back(sid);
        step_rows.push_back(i);
        step_probe.push_back({1, engine.session_committed(sid)});
      }
    }
    std::vector<TokenId> toks(d.request_ids.size(), 0);
    double prefill_end = -1.0;
    if (!pre_sids.empty()) {
      std::size_t tokens = 0;
      for (const ProbeRow& r : pre_probe) tokens += r.len;
      std::vector<TokenId> got;
      call_us += timed_span(
          &log, "runtime.prefill", [&] { got = engine.prefill(pre_sids); },
          {{"seqs", static_cast<double>(pre_sids.size())},
           {"tokens", static_cast<double>(tokens)}});
      for (std::size_t j = 0; j < got.size(); ++j) toks[pre_rows[j]] = got[j];
      prefill_end = vt + call_us * 1e-6;
      if (sampled(prefill_passes++)) (void)prober.probe_pass(false, pre_probe);
    }
    if (!step_sids.empty()) {
      const double ts = log.now_us();
      StopwatchNs sw;
      const std::vector<TokenId> got = engine.decode_step(step_sids);
      const double dur = sw.elapsed_s() * 1e6;
      call_us += dur;
      for (std::size_t j = 0; j < got.size(); ++j) toks[step_rows[j]] = got[j];
      SpanLog::Args args{{"rows", static_cast<double>(step_sids.size())}};
      if (sampled(decode_passes++))
        args.emplace_back("ideal_us", prober.probe_pass(true, step_probe));
      log.add("runtime.decode_step", ts, dur, std::move(args));
    }
    for (std::size_t i = 0; i < d.request_ids.size(); ++i) {
      const auto rid = static_cast<std::size_t>(d.request_ids[i]);
      if (static_cast<int>(out.generated[rid].size()) < trace[rid].gen)
        out.generated[rid].push_back(toks[i]);
    }
    const double finish = vt + call_us * 1e-6;
    const double complete_us = timed_span(
        nullptr, "", [&] { sched.complete(d, finish, prefill_end); });
    vt = finish + complete_us * 1e-6;
    const std::vector<RequestStats>& done = sched.finished();
    for (; finished_seen < done.size(); ++finished_seen) {
      const RequestStats& rs = done[finished_seen];
      if (rs.outcome == RequestOutcome::kCompleted) {
        ++out.completed;
        out.output_tokens += rs.gen_tokens;
        out.last_finish_s = std::max(out.last_finish_s, rs.finish_s);
      }
      const auto it = session.find(rs.id);
      if (it == session.end()) continue;
      vt += timed_span(&log, "runtime.end_session",
                       [&] { engine.end_session(it->second); }) * 1e-6;
      session.erase(it);
    }
    log.add("serve.dispatch", dispatch_ts, log.now_us() - dispatch_ts,
            {{"sched_us", next_us + complete_us},
             {"rows", static_cast<double>(d.request_ids.size())},
             {"joins", static_cast<double>(d.num_join)},
             {"preempted", static_cast<double>(d.preempted.size())}});
  }
  if (sched.preemptions() == 0 && !trace.empty()) {
    // No capacity pressure in this workload: time one preemption of a
    // prefilled session anyway, so every run reports the call's cost.
    const int sid = engine.begin_session(trace.front().prompt);
    (void)engine.prefill({sid});
    timed_span(&log, "runtime.preempt_session",
               [&] { engine.preempt_session(sid); }, {{"probe", 1.0}});
    engine.end_session(sid);
  }
  return out;
}

}  // namespace perfbench
