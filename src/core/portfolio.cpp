#include "core/portfolio.hpp"

#include <atomic>
#include <string>
#include <thread>

#include "analysis/staticinfo.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace stsyn::core {

PortfolioResult synthesizePortfolio(const protocol::Protocol& proto,
                                    const std::vector<Schedule>& schedules,
                                    const PortfolioOptions& options) {
  PortfolioResult out;
  const std::size_t total = schedules.size();
  out.instances.resize(total);
  if (total == 0) return out;

  // Prefill every instance's schedule so skipped/pruned rows still report
  // it.
  for (std::size_t i = 0; i < total; ++i) {
    out.instances[i].schedule = schedules[i];
  }

  // Orbit pruning: schedules whose orbit signature repeats an earlier
  // schedule are deferred to a fallback phase. The orbit relation is a
  // necessary condition for true process interchangeability, so the
  // fallback (run only when every representative failed) guarantees the
  // pruned portfolio succeeds exactly when the unpruned one would.
  std::vector<std::size_t> upfront;
  std::vector<std::size_t> fallback;
  upfront.reserve(total);
  if (options.orbitPrune) {
    const analysis::ProcessOrbits orbits = analysis::computeOrbits(proto);
    out.symmetryOrbits = orbits.orbitCount;
    const std::vector<std::size_t> reps =
        analysis::scheduleRepresentatives(orbits, schedules);
    for (std::size_t i = 0; i < total; ++i) {
      if (reps[i] == i) {
        upfront.push_back(i);
      } else {
        out.instances[i].pruned = true;
        fallback.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < total; ++i) upfront.push_back(i);
  }

  unsigned threads = options.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  const util::Stopwatch portfolioWatch;
  obs::Span portfolioSpan("portfolio", "portfolio");
  portfolioSpan.arg("schedules", schedules.size());
  portfolioSpan.arg("threads", static_cast<std::size_t>(threads));
  if (options.orbitPrune) {
    portfolioSpan.arg("symmetry_orbits", out.symmetryOrbits);
    portfolioSpan.arg("schedules_deferred", fallback.size());
  }

  // First-success early exit: once any instance succeeds, workers stop
  // claiming new instances. Claims are handed out in increasing input
  // order, so a released or skipped index always has a successful instance
  // BELOW it — the lowest-index-success winner was claimed earlier, runs
  // to completion, and stays deterministic.
  std::atomic<bool> succeeded{false};
  // The caller's cancellation token (CLI --timeout, serve deadlines) is
  // thread-local, so each worker re-installs it; the first worker to
  // observe expiry stops every other one via `cancelled` and the
  // CancelledError is rethrown on the calling thread after the join.
  util::CancelToken* parentCancel = util::currentCancelToken();
  std::atomic<bool> cancelled{false};
  auto runPhase = [&](const std::vector<std::size_t>& order) {
    if (order.empty() || cancelled.load(std::memory_order_acquire)) return;
    const std::size_t count = order.size();
    std::atomic<std::size_t> next{0};
    auto worker = [&](unsigned workerIdx) {
      const util::CancelScope cancelScope(parentCancel);
      obs::Tracer::global().setThreadName("portfolio-worker-" +
                                          std::to_string(workerIdx));
      for (;;) {
        if (succeeded.load(std::memory_order_acquire) ||
            cancelled.load(std::memory_order_acquire)) {
          return;
        }
        // Claim with a CAS bounded by `count`: an unconditional fetch_add
        // would let racing workers push `next` arbitrarily far past the
        // end, so late joiners claimed garbage indices before bailing.
        std::size_t pos = next.load(std::memory_order_relaxed);
        do {
          if (pos >= count) return;
        } while (!next.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed));
        // Re-check AFTER the claim: a success published between the check
        // above and the CAS used to slip through, making instancesRun()
        // (and the set of `ran` instances) depend on the interleaving.
        // Releasing this claim cannot hide a winner — the success that
        // triggered the release was claimed earlier (claims are ordered),
        // so every candidate winner below it already runs.
        if (succeeded.load(std::memory_order_acquire)) return;
        PortfolioInstance& inst = out.instances[order[pos]];
        inst.ran = true;
        obs::Span span("portfolio_instance", "portfolio");
        span.arg("schedule", toString(inst.schedule));
        const util::Stopwatch watch;
        inst.encoding = std::make_unique<symbolic::Encoding>(proto);
        inst.symbolic =
            std::make_unique<symbolic::SymbolicProtocol>(*inst.encoding);
        StrongOptions opt = options.strong;
        opt.schedule = inst.schedule;
        try {
          inst.result = addStrongConvergence(*inst.symbolic, opt);
        } catch (const util::CancelledError&) {
          cancelled.store(true, std::memory_order_release);
          inst.wallSeconds = watch.seconds();
          return;
        }
        inst.wallSeconds = watch.seconds();
        span.arg("success", inst.result.success);
        if (inst.result.success) {
          succeeded.store(true, std::memory_order_release);
        }
      }
    };

    const unsigned phaseThreads = static_cast<unsigned>(
        std::min<std::size_t>(threads, count));
    if (phaseThreads <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(phaseThreads);
      for (unsigned t = 0; t < phaseThreads; ++t) pool.emplace_back(worker, t);
      for (std::thread& t : pool) t.join();
    }
  };

  runPhase(upfront);
  // Fallback: every representative failed, so the orbit hash may have
  // grouped schedules that are not truly interchangeable — run the
  // deferred ones too. On a correct grouping they all fail as well, and
  // the portfolio's overall success matches the unpruned run either way.
  if (!succeeded.load(std::memory_order_acquire)) runPhase(fallback);

  // Each instance's manager was constructed (and its result BDDs built) on
  // a worker thread that is now joined. Re-pin every manager to this
  // thread so the caller may read, copy, and destroy the results — the
  // managers are thread-confined, and the join established the
  // happens-before edge that makes the handoff sound.
  for (PortfolioInstance& inst : out.instances) {
    if (inst.encoding) inst.encoding->manager().bindToCurrentThread();
  }

  // Surface a deadline hit only after every manager is re-pinned, so the
  // unwinding destroys `out` (and with it every instance manager) on the
  // thread that now owns them.
  if (cancelled.load(std::memory_order_acquire)) throw util::CancelledError();

  // Winner: first success in instance order among the phase(s) that ran.
  // Within the upfront phase claim order is increasing instance order, so
  // this is the historical deterministic choice; the fallback phase only
  // produces successes when the upfront phase produced none.
  for (std::size_t i = 0; i < out.instances.size(); ++i) {
    if (out.instances[i].result.success) {
      out.winner = i;
      break;
    }
  }
  out.wallSeconds = portfolioWatch.seconds();
  portfolioSpan.arg(
      "winner", out.winner == SIZE_MAX
                    ? std::string("none")
                    : toString(out.instances[out.winner].schedule));
  portfolioSpan.arg("instances_run", out.instancesRun());
  if (options.orbitPrune) {
    portfolioSpan.arg("schedules_pruned", out.schedulesPruned());
  }
  return out;
}

PortfolioResult synthesizePortfolio(const protocol::Protocol& proto,
                                    const std::vector<Schedule>& schedules,
                                    unsigned threads) {
  PortfolioOptions options;
  options.threads = threads;
  return synthesizePortfolio(proto, schedules, options);
}

}  // namespace stsyn::core
