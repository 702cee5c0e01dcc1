// fed_transient3d: the federation round protocol. Four serial svc::Server
// daemons on socketpair loopback, driven by one fed::Coordinator3D (default
// 3D transient, PNR with the MLKL engine, check_level 1 audits on) on one
// thread: each daemon's poll loop runs inside its client's pump whenever a
// coordinator call would block. It is the only workload that exercises
// fed/migrate, the federation audits and the 3D TetMesh, and it uses the
// svc layer through few, bulky frames on serial servers.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fed/coordinator.hpp"
#include "svc/loopback.hpp"
#include "svc/server.hpp"
#include "util/fnv.hpp"

namespace pnrbench {

namespace {

namespace svc = pnr::svc;
namespace pared = pnr::pared;

constexpr int kDaemons = 4;
/// A pass runs the first half (50 of 100 steps) of the default transient.
/// Quality varies far more between input variants than between rounds of
/// one variant, so short passes and many variants keep the quality means
/// steady from seed to seed: 21 passes of ~1.7 s fit in a 36 s run.
constexpr int kRounds = 50;
constexpr int kVariants = 21;

svc::WorkloadSpec fed_spec(std::uint64_t seed) {
  svc::WorkloadSpec spec;
  spec.kind = svc::WorkloadKind::kTransient3D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = kDaemons;
  spec.session_seed = derive_seed(seed, 300);
  spec.transient = pared::TransientRun3D::default_options();
  spec.transient.seed = derive_seed(seed, 301);
  spec.engine = static_cast<std::uint8_t>(pnr::engine::Kind::kMlkl);
  return spec;
}

/// The fed-free single-process run of the same workload, chaining the digest
/// the coordinator chains: the federation must reproduce it bit for bit.
/// Its advance/step/metrics calls are the per-layer timings of this
/// workload's mesh and planning layers.
std::uint64_t reference_trajectory(const svc::WorkloadSpec& spec,
                                   Result& result) {
  pared::TransientRun3D run(spec.transient);
  pnr::core::PnrOptions popt;
  popt.alpha = spec.alpha;
  popt.beta = spec.beta;
  pared::Session3D session(spec.strategy, spec.parts, spec.session_seed, popt,
                           pnr::engine::Kind::kMlkl);
  std::vector<double> adapt_ms, step_ms, metrics_ms;
  std::uint64_t fp = pnr::util::kFnvSeed;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    run.advance();
    const std::int64_t t1 = now_ns();
    session.step(run.mutable_mesh());
    const std::int64_t t2 = now_ns();
    session.metrics(run.mesh());
    const std::int64_t t3 = now_ns();
    adapt_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    step_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    metrics_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    fp = pnr::util::fnv1a_value(
        pnr::fed::assignment_fingerprint(session.coarse_assignment()), fp);
    fp = pnr::util::fnv1a_value(pnr::fed::mesh_fingerprint(run.mesh()), fp);
  }
  result.layer["mesh.adapt_ms_p50"] = quantile(adapt_ms, 0.5);
  result.layer["pared.step_ms_p50"] = quantile(step_ms, 0.5);
  result.layer["pared.metrics_ms_p50"] = quantile(metrics_ms, 0.5);
  return fp;
}

}  // namespace

Result run_fed_transient3d(const Options& options, Tracer& tracer) {
  Result result;
  result.rounds_per_pass = kRounds;
  std::vector<double> attach_ms;
  std::int64_t pump_ns = 0;  // daemon time inside traced rounds
  std::int64_t round_ns = 0;
  std::int64_t payload_bytes = 0, elements_moved = 0;
  std::int64_t round_seq = 0;
  Variants variants(kVariants);
  std::optional<svc::WorkloadSpec> checked;  // the variant the reference runs
  std::uint64_t checked_fp = 0;

  run_passes(options, tracer, result, kVariants,
             [&](int pass, std::uint64_t seed, bool traced) {
    const svc::WorkloadSpec spec = fed_spec(seed);
    const std::int64_t s0 = now_ns();
    std::vector<std::unique_ptr<svc::Server>> servers;
    std::vector<std::unique_ptr<svc::Client>> clients;
    std::vector<svc::Client*> daemons;
    std::optional<pnr::fed::Coordinator3D> coord;
    bool in_round = false;
    std::int64_t pass_pump_ns = 0;
    {
      Scope span(tracer, "setup");
      for (int i = 0; i < kDaemons; ++i) {
        servers.push_back(std::make_unique<svc::Server>(svc::ServerOptions{}));
        clients.push_back(std::make_unique<svc::Client>());
        svc::Server& server = *servers.back();
        if (!svc::connect_loopback(server, *clients.back()))
          throw std::runtime_error("loopback connect failed");
        // The daemon runs only inside this pump: timing it from here is
        // the daemon's whole busy time.
        clients.back()->set_pump([&server, &tracer, &in_round, &pass_pump_ns] {
          const std::int64_t t0 = now_ns();
          server.poll_once(0);
          const std::int64_t t1 = now_ns();
          if (in_round) pass_pump_ns += t1 - t0;
          tracer.record(in_round ? "svc.pump" : "svc.pump_setup", t0, t1);
        });
        daemons.push_back(clients.back().get());
      }
      pnr::fed::CoordinatorOptions fopt;
      fopt.check_level = 1;
      coord.emplace(spec, pnr::engine::Kind::kMlkl, daemons, fopt);
      const std::int64_t a0 = now_ns();
      Scope attach_span(tracer, "fed.attach");
      std::string why;
      if (!coord->attach(&why)) throw std::runtime_error("attach: " + why);
      attach_ms.push_back(static_cast<double>(now_ns() - a0) / 1e6);
    }
    result.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

    QualityAcc quality;
    bool pass_ok = true;
    std::int64_t pass_round_ns = 0, pass_payload = 0, pass_moved = 0;
    const std::int64_t loop0 = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      tracer.set_round(static_cast<std::int32_t>(round_seq++));
      ++result.attempted;
      in_round = true;
      const std::int64_t t0 = now_ns();
      pnr::fed::RoundResult rr;
      {
        Scope round_span(tracer, "round");
        Scope span(tracer, "fed.round");
        rr = coord->round();
      }
      const std::int64_t t1 = now_ns();
      in_round = false;
      if (!rr.ok) {
        ++result.failed;
        pass_ok = false;
        std::fprintf(stderr, "fed round %d failed: %s\n", rr.step,
                     rr.why.c_str());
        break;
      }
      add_round(result, traced, static_cast<double>(t1 - t0) / 1e6);
      pass_round_ns += t1 - t0;
      pass_payload += rr.payload_bytes;
      pass_moved += rr.elements_moved;
      quality.add(rr.report.cut_new, rr.report.migrated, rr.report.elements,
                  rr.report.imbalance);
    }
    tracer.set_round(-1);
    result.busy_seconds += static_cast<double>(now_ns() - loop0) / 1e9;
    if (traced) {
      pump_ns += pass_pump_ns;
      round_ns += pass_round_ns;
      payload_bytes += pass_payload;
      elements_moved += pass_moved;
    }
    std::string why;
    if (!coord->finish(/*shutdown_daemons=*/true, &why))
      std::fprintf(stderr, "fed teardown: %s\n", why.c_str());
    if (!pass_ok) return;
    variants.complete(result, pass, coord->trajectory_fingerprint(), quality);
    if (!checked) {
      checked = spec;
      checked_fp = coord->trajectory_fingerprint();
    }
  });
  variants.finish(result);

  // Outside the timing: the federation must equal the fed-free run.
  if (checked && reference_trajectory(*checked, result) != checked_fp)
    result.fail_check("federated trajectory differs from the single-process "
                      "session");

  const double rounds = static_cast<double>(result.traced_rounds);
  if (rounds > 0) {
    result.layer["fed.shard_busy_ms_per_round"] =
        static_cast<double>(pump_ns) / 1e6 / rounds;
    result.layer["fed.coord_self_ms_per_round"] =
        static_cast<double>(round_ns - pump_ns) / 1e6 / rounds;
    result.layer["fed.payload_kb_per_round"] =
        static_cast<double>(payload_bytes) / 1024.0 / rounds;
    result.layer["fed.elements_moved_per_round"] =
        static_cast<double>(elements_moved) / rounds;
  }
  result.layer["fed.attach_ms"] = quantile(attach_ms, 0.5);
  return result;
}

}  // namespace pnrbench
