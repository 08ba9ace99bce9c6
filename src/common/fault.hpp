#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace llmpq {

/// Deterministic fault injection for chaos testing the serving stack.
///
/// The design mirrors `common/trace`: one process-wide singleton
/// (`FaultInjector`), armed explicitly, whose *disarmed* fast path is a
/// single relaxed atomic load — every `FAULT_POINT` compiled into the hot
/// runtime paths costs ~1 ns until a test or a `--faults plan.json` flag
/// arms a plan. The decision core (`FaultLottery`) is a plain object so the
/// discrete-event simulators can run the *same* `FaultPlan` through a local
/// instance and reproduce a chaos scenario on their virtual clocks without
/// touching global state.
///
/// Determinism: whether the n-th evaluation of a rule fires is a pure
/// function of (plan seed, rule index, n) via a splitmix64 hash — not a
/// sequential RNG — so the set of firing indices is independent of thread
/// interleaving. Concurrent threads still race for *which* invocation index
/// they draw, but the number and pattern of fires per site is reproducible
/// from the seed, which is what the conservation tests sweep.
///
/// Named sites currently compiled in:
///   stage.work      pipeline stage worker, per micro-batch (throw => the
///                   poisoned-message protocol; delay => straggler)
///   stage.qgemm     quantized GEMM entry (throw/delay inside a stage pass)
///   engine.embed    master-side embedding, per micro-batch push
///   engine.kv_alloc KV-cache (re)allocation (alloc_fail => bad_alloc, the
///                   mem-fault count behind a kMemoryPressure re-plan)
///   engine.mailbox  inter-stage forward (drop => message vanishes; the
///                   master's deadline converts it into a restartable fault)
///   serve.dispatch  online serving loop, per scheduler decision
///   serve.stage.<p> online serving loop, once per dispatch per pipeline
///                   stage, in BOTH back-ends: the runtime sleeps and
///                   attributes the delay to stage p; the online simulator
///                   charges it per layer of stage p so migrating layers
///                   away measurably relieves the straggler (mirroring the
///                   per-layer engine site below). The control loop's
///                   parity trace is keyed on these evaluations.
///   stage.<p>.layer pipeline stage worker, per micro-batch per layer of
///                   stage p — a slow rule here models a degraded device
///                   whose drag shrinks when layers migrate off it
///   sim.stage       pipeline_sim stage pass (virtual-clock straggler/fail)
///   sim.dispatch    online_sim dispatch (virtual-clock fail/straggler)

enum class FaultKind : char {
  kNone,       ///< no action (the default)
  kThrow,      ///< throw InjectedFault at the site
  kDelay,      ///< sleep `delay_ms` (straggler); sims add virtual time
  kAllocFail,  ///< throw std::bad_alloc (simulated allocation failure)
  kDrop,       ///< site-specific: drop the message/work item
  kSlow,       ///< sustained straggler: once the probability draw first
               ///< fires, the site stays slow (`delay_ms` per evaluation)
               ///< for `duration` consecutive evaluations
};

const char* fault_kind_name(FaultKind kind);

/// One injection rule. `site` matches a fault point by exact name, or by
/// prefix when it ends in '*' ("stage.*"). Rules are evaluated in plan
/// order; the first rule that fires decides the action for that check.
struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kThrow;
  double probability = 1.0;  ///< chance an eligible evaluation fires
  int after = 0;             ///< skip the first `after` evaluations
  int max_fires = std::numeric_limits<int>::max();
  double delay_ms = 0.0;     ///< kDelay / kSlow payload
  /// kSlow only: how many consecutive evaluations stay slow once the onset
  /// draw fires (default: forever, i.e. a device that degrades and stays
  /// degraded until disarmed). The onset index is itself deterministic —
  /// the first eligible evaluation whose hash draw fires — so a slow window
  /// is a pure function of (seed, rule index) across thread interleavings.
  int duration = std::numeric_limits<int>::max();
  std::string message;       ///< optional InjectedFault text
};

/// A seeded set of rules — the unit tests and CLIs pass around. JSON shape:
///   {"seed": 7, "rules": [{"site": "stage.work", "kind": "throw",
///     "probability": 0.25, "after": 1, "max_fires": 3, "delay_ms": 0,
///     "duration": 4, "message": "boom"}]}
/// (`duration` only applies to "slow" rules; omitted means slow forever.)
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  std::string to_json() const;
  /// Strict parse; throws InvalidArgumentError naming the bad field.
  static FaultPlan from_json(std::string_view text);
};

/// What a fault point should do, as decided by the lottery.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  double delay_s = 0.0;
  const FaultRule* rule = nullptr;  ///< firing rule (owned by the lottery)
};

/// Thrown by a firing kThrow rule. Derives from Error so existing
/// exception-safety paths (poisoned messages, serving retry) treat it like
/// any recoverable fault.
class InjectedFault : public Error {
 public:
  InjectedFault(const std::string& site, const std::string& message)
      : Error("injected fault at " + site +
              (message.empty() ? "" : ": " + message)),
        site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// The deterministic decision core: owns a plan plus per-rule atomic
/// counters. check() is thread-safe and lock-free. Local instances give the
/// simulators their own reproducible chaos stream; the global
/// FaultInjector wraps one for the real runtime.
class FaultLottery {
 public:
  FaultLottery();
  explicit FaultLottery(FaultPlan plan);
  ~FaultLottery();  // out of line: RuleState is incomplete here
  FaultLottery(FaultLottery&&) noexcept;
  FaultLottery& operator=(FaultLottery&&) noexcept;

  bool empty() const { return states_.empty(); }
  const FaultPlan& plan() const { return plan_; }

  /// Evaluates `site` against every matching rule in order; returns the
  /// first firing rule's action (kNone if nothing fires).
  FaultAction check(std::string_view site);

  /// Total fires across all rules since construction.
  std::uint64_t total_fires() const;
  /// Fires charged to rule `index` (plan order).
  std::uint64_t rule_fires(std::size_t index) const;

 private:
  struct RuleState;
  FaultPlan plan_;
  std::vector<std::unique_ptr<RuleState>> states_;
};

/// Record of one fire, kept (bounded) for tests and the chaos report.
struct FaultFire {
  std::string site;
  FaultKind kind = FaultKind::kNone;
  std::uint64_t seq = 0;  ///< global fire index
};

/// Process-wide injector driving the FAULT_* macros. arm() swaps in a fresh
/// lottery (counters reset); disarm() returns every fault point to the
/// one-relaxed-load fast path.
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(const FaultPlan& plan);
  void disarm();

  static bool armed() {
    return instance().armed_.load(std::memory_order_relaxed);
  }

  /// Armed-path decision for `site` (kNone when disarmed or no rule fires).
  /// `site` must be a string literal (fire records keep the text).
  static FaultAction check(const char* site);

  std::uint64_t fires() const;
  /// The most recent fires, oldest first (bounded ring; for tests/demos).
  std::vector<FaultFire> fire_log() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::shared_ptr<FaultLottery> lottery_;
  std::atomic<std::uint64_t> fires_{0};
  std::vector<FaultFire> log_;  ///< ring, capped at kLogCap
  std::size_t log_next_ = 0;

  static constexpr std::size_t kLogCap = 1024;
  void record(const char* site, FaultKind kind);
};

/// Armed-path helper behind FAULT_POINT: evaluates the site and *acts* —
/// sleeps on kDelay, throws InjectedFault on kThrow, throws std::bad_alloc
/// on kAllocFail. kDrop is ignored here (use FAULT_DROP for sites that can
/// drop work).
void fault_point_act(const char* site);

/// Armed-path helper behind FAULT_DROP: true when a kDrop rule fired
/// (delays are honored first, throw rules also act).
bool fault_drop_check(const char* site);

/// One relaxed load when disarmed; may sleep/throw when armed.
#define FAULT_POINT(site)                   \
  do {                                      \
    if (::llmpq::FaultInjector::armed())    \
      ::llmpq::fault_point_act(site);       \
  } while (0)

/// Evaluates to true when an armed kDrop rule says to drop at `site`.
#define FAULT_DROP(site) \
  (::llmpq::FaultInjector::armed() && ::llmpq::fault_drop_check(site))

}  // namespace llmpq
