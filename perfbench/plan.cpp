// plan_transient2d: in-process planning. One pared::TransientRun (grid 40,
// max_level 6, 100 steps) and one Session2D (PNR strategy, MLKL engine,
// p = 8) on one thread. A round is advance() + step(); Session::metrics()
// runs after each round, outside the round timing. Planning dominates the
// round, so this workload exercises KL/rebalance (core, partition) with no
// svc or fed code in it.

#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "bench.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "util/fnv.hpp"

namespace pnrbench {

namespace {

constexpr int kParts = 8;
/// Input variants per run (odd: see run_passes). Each pass is ~1.7 s here.
constexpr int kVariants = 7;

/// Chain one round's adopted assignment into the pass fingerprint.
std::uint64_t chain(std::uint64_t fp, const std::vector<pnr::part::PartId>& a,
                    std::int64_t elements) {
  fp = pnr::util::fnv1a(a.data(), a.size() * sizeof(a[0]), fp);
  return pnr::util::fnv1a_value(elements, fp);
}

}  // namespace

Result run_plan_transient2d(const Options& options, Tracer& tracer) {
  Result result;
  result.rounds_per_pass = pnr::pared::TransientOptions{}.steps;
  std::vector<double> adapt_ms, step_ms, metrics_ms;
  Variants variants(kVariants);

  run_passes(options, tracer, result, kVariants,
             [&](int pass, std::uint64_t seed, bool traced) {
    pnr::pared::TransientOptions topt;  // grid 40, max_level 6, 100 steps
    topt.seed = derive_seed(seed, 0);
    const std::uint64_t session_seed = derive_seed(seed, 1);
    const std::int64_t s0 = now_ns();
    std::optional<pnr::pared::TransientRun> run;
    std::optional<pnr::pared::Session2D> session;
    {
      Scope span(tracer, "setup");
      run.emplace(topt);
      session.emplace(pnr::pared::Strategy::kPNR, kParts, session_seed,
                      pnr::core::PnrOptions{}, pnr::engine::Kind::kMlkl);
      session->set_defer_metrics(true);
    }
    result.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

    QualityAcc quality;
    std::uint64_t fp = pnr::util::kFnvSeed;
    bool pass_ok = true;
    const std::int64_t loop0 = now_ns();
    for (int r = 0; !run->done(); ++r) {
      tracer.set_round(static_cast<std::int32_t>(result.attempted));
      ++result.attempted;
      pnr::pared::StepReport report;
      std::int64_t t0 = 0, t1 = 0, t2 = 0;
      try {
        Scope round_span(tracer, "round");
        t0 = now_ns();
        {
          Scope span(tracer, "mesh.adapt");
          run->advance();
        }
        t1 = now_ns();
        {
          Scope span(tracer, "pared.step");
          session->step(run->mutable_mesh());
        }
        t2 = now_ns();
      } catch (const std::exception& e) {
        ++result.failed;
        pass_ok = false;
        std::fprintf(stderr, "round %d failed: %s\n", r, e.what());
        break;
      }
      add_round(result, traced, static_cast<double>(t2 - t0) / 1e6);
      adapt_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      step_ms.push_back(static_cast<double>(t2 - t1) / 1e6);

      const std::int64_t m0 = now_ns();
      {
        Scope span(tracer, "pared.metrics");
        report = session->metrics(run->mesh());
      }
      metrics_ms.push_back(static_cast<double>(now_ns() - m0) / 1e6);

      const auto& assign = session->coarse_assignment();
      bool sane = report.elements == run->mesh().num_leaves() &&
                  report.cut_new > 0 && report.migrated >= 0 &&
                  report.migrated <= report.elements &&
                  std::isfinite(report.imbalance) && report.imbalance >= 0.0;
      for (const auto part : assign) sane = sane && part >= 0 && part < kParts;
      if (!sane) {
        result.fail_check("round " + std::to_string(r) +
                          ": step report or assignment out of range");
      }
      quality.add(report.cut_new, report.migrated, report.elements,
                  report.imbalance);
      fp = chain(fp, assign, report.elements);
    }
    tracer.set_round(-1);
    result.busy_seconds += static_cast<double>(now_ns() - loop0) / 1e9;
    if (pass_ok) variants.complete(result, pass, fp, quality);
  });
  variants.finish(result);

  result.layer["mesh.adapt_ms_p50"] = quantile(adapt_ms, 0.5);
  result.layer["pared.step_ms_p50"] = quantile(step_ms, 0.5);
  result.layer["pared.metrics_ms_p50"] = quantile(metrics_ms, 0.5);
  return result;
}

}  // namespace pnrbench
