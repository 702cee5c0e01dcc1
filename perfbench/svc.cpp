// svc_sfc_sessions: the sharded service under pipelined load. An in-process
// svc::Server with 3 shard threads; this thread is the generator and the
// server's I/O loop (4 threads in all). 12 transient2d sessions (grid 12,
// max_level 4, p = 4, engine sfc-hilbert) are created round-robin over 4
// loopback connections. A round pipelines advance + step + get_metrics for
// every session and ends when all 36 replies are in. SFC skips KL, so the
// codec, the shard hop and the detached drain tasks dominate; with 3 shards
// each connection's sessions sit on different shards, so replies to one
// connection come back in cross-shard order.
//
// The I/O loop spins on Server::poll_once(0): a call that did work is I/O
// busy time, one that found nothing is time spent waiting on the shards.

#include <malloc.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "svc/codec.hpp"
#include "svc/loopback.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "util/fnv.hpp"

namespace pnrbench {

namespace svc = pnr::svc;
namespace pared = pnr::pared;

namespace {

constexpr int kShards = 3;
constexpr int kConns = 4;
constexpr int kSessions = 12;
constexpr std::int32_t kParts = 4;
constexpr int kSteps = 100;  // a pass runs the whole transient
/// Input variants per run (odd: see run_passes); 12 sessions each.
constexpr int kVariants = 5;
/// A session id the server never hands out (ids count up from 1).
constexpr std::uint32_t kUnknownSession = 0x7fffffffu;
/// A round that has not completed after this long is a transport failure.
constexpr std::int64_t kRoundDeadlineNs = 10'000'000'000;

svc::WorkloadSpec spec_for(std::uint64_t seed, int s) {
  svc::WorkloadSpec spec;
  spec.kind = svc::WorkloadKind::kTransient2D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = kParts;
  spec.session_seed = derive_seed(seed, 100 + static_cast<std::uint64_t>(s));
  spec.transient.grid_n = 12;
  spec.transient.max_level = 4;
  spec.transient.steps = kSteps;
  spec.transient.seed = derive_seed(seed, 200 + static_cast<std::uint64_t>(s));
  spec.engine = static_cast<std::uint8_t>(pnr::engine::Kind::kSfcHilbert);
  return spec;
}

svc::Bytes id_frame(std::uint16_t op, std::uint32_t id) {
  pnr::par::Writer w;
  w.put(id);
  return svc::encode_frame(op, w.take());
}

struct AdvanceReply {
  std::int64_t elements = 0, refined = 0, coarsened = 0;
  double position = 0.0;
  bool operator==(const AdvanceReply&) const = default;
};

bool same_report(const pared::StepReport& a, const pared::StepReport& b) {
  return a.elements == b.elements && a.cut_prev == b.cut_prev &&
         a.cut_new == b.cut_new && a.shared_vertices == b.shared_vertices &&
         a.migrated == b.migrated &&
         a.migrated_remapped == b.migrated_remapped &&
         a.imbalance == b.imbalance;
}

/// Decoded replies of one connection in one round, for the replay check.
struct ConnRound {
  std::vector<AdvanceReply> advances;
  std::vector<pared::StepReport> steps;
  std::vector<pared::StepReport> metrics;
};

/// One reply frame, decoded and type-checked against the wire layout.
struct Reply {
  enum Kind { kAdvance, kStep, kMetrics, kError, kBad } kind = kBad;
  AdvanceReply advance;
  pared::StepReport report;
  svc::Err err = svc::Err::kInternal;
};

Reply decode_reply(std::uint16_t type, const svc::Bytes& body) {
  Reply out;
  pnr::par::TryReader r(body);
  if (type == svc::kTypeError) {
    const auto info = svc::decode_error(body);
    if (info) {
      out.kind = Reply::kError;
      out.err = info->code;
    }
    return out;
  }
  if (type == (svc::kOpAdvance | svc::kReplyBit)) {
    const auto e = r.get<std::int64_t>(), ref = r.get<std::int64_t>(),
               co = r.get<std::int64_t>();
    const auto pos = r.get<double>();
    if (e && ref && co && pos && r.done()) {
      out.kind = Reply::kAdvance;
      out.advance = {*e, *ref, *co, *pos};
    }
    return out;
  }
  if (type == (svc::kOpStep | svc::kReplyBit)) {
    const auto rep = svc::decode_step_report(r);
    if (rep && r.done()) {
      out.kind = Reply::kStep;
      out.report = *rep;
    }
    return out;
  }
  if (type == (svc::kOpGetMetrics | svc::kReplyBit)) {
    // kind string, strategy, engine, parts, elements, ops applied, then an
    // optional StepReport and an optional repartition-stats block.
    const auto kind = r.get_string(64);
    const auto strategy = r.get<std::uint8_t>(), eng = r.get<std::uint8_t>();
    const auto parts = r.get<std::int32_t>();
    const auto elements = r.get<std::int64_t>(), ops = r.get<std::int64_t>();
    const auto has_report = r.get<std::uint8_t>();
    if (!kind || !strategy || !eng || !parts || !elements || !ops ||
        !has_report || *has_report != 1 || *parts != kParts ||
        *eng != static_cast<std::uint8_t>(pnr::engine::Kind::kSfcHilbert))
      return out;
    const auto rep = svc::decode_step_report(r);
    const auto has_stats = r.get<std::uint8_t>();
    if (!rep || !has_stats || rep->elements != *elements) return out;
    if (*has_stats) {
      const auto cb = r.get<std::int64_t>(), ca = r.get<std::int64_t>(),
                 mig = r.get<std::int64_t>();
      const auto ib = r.get<double>(), ia = r.get<double>();
      const auto levels = r.get<std::int32_t>();
      if (!cb || !ca || !mig || !ib || !ia || !levels) return out;
    }
    if (!r.done()) return out;
    out.kind = Reply::kMetrics;
    out.report = *rep;
    return out;
  }
  return out;
}

struct Conn {
  int fd = -1;
  svc::Bytes in;
};

class Transport {
 public:
  Transport(svc::Server& server, Tracer& tracer)
      : server_(server), tracer_(tracer) {}

  void send(Conn& c, const svc::Bytes& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(c.fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        poll();
      } else {
        throw std::runtime_error("loopback send failed");
      }
    }
  }

  /// One timed Server::poll_once(0); true when it did work. Replies reach
  /// the client sockets only inside poll_once, so a call that did nothing
  /// leaves nothing new to read.
  bool poll() {
    const std::int64_t t0 = now_ns();
    const int n = server_.poll_once(0);
    const std::int64_t t1 = now_ns();
    (n > 0 ? busy_ns : idle_ns) += t1 - t0;
    tracer_.record("svc.poll", t0, t1, /*keep=*/n > 0);
    return n > 0;
  }

  /// Pull whatever the server has written to `c`.
  void recv(Conn& c) {
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EAGAIN || errno == EINTR) return;
      throw std::runtime_error("loopback recv failed");
    }
  }

  /// Pop one complete frame off `c.in`. Throws on a frame that breaks the
  /// protocol (bad magic, version or CRC): the stream cannot be trusted.
  bool pop(Conn& c, std::uint16_t* type, svc::Bytes* body) {
    if (c.in.size() < svc::kHeaderBytes) return false;
    const auto h = svc::decode_header(c.in.data());
    if (!h || h->version != svc::kWireVersion)
      throw std::runtime_error("reply frame with bad magic or version");
    if (c.in.size() - svc::kHeaderBytes < h->payload_len) return false;
    const auto* p = c.in.data() + svc::kHeaderBytes;
    body->assign(p, p + h->payload_len);
    c.in.erase(c.in.begin(),
               c.in.begin() + static_cast<std::ptrdiff_t>(
                                  svc::kHeaderBytes + h->payload_len));
    if (svc::crc32(*body) != h->payload_crc)
      throw std::runtime_error("reply frame with bad CRC");
    *type = h->type;
    return true;
  }

  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;

 private:
  svc::Server& server_;
  Tracer& tracer_;
};

/// Replay session `s` in process and require the reply values the server
/// gave its connection in every round to include the session's own.
void replay_check(std::uint64_t seed, int s, const std::vector<ConnRound>& got,
                  Result& result, std::vector<double>& adapt_ms,
                  std::vector<double>& step_ms,
                  std::vector<double>& metrics_ms) {
  const svc::WorkloadSpec spec = spec_for(seed, s);
  pared::TransientRun run(spec.transient);
  pnr::core::PnrOptions popt;
  popt.alpha = spec.alpha;
  popt.beta = spec.beta;
  pared::Session2D session(spec.strategy, spec.parts, spec.session_seed, popt,
                           pnr::engine::Kind::kSfcHilbert);
  session.set_defer_metrics(true);
  for (std::size_t r = 0; r < got.size(); ++r) {
    const std::int64_t t0 = now_ns();
    const auto info = run.advance();
    const std::int64_t t1 = now_ns();
    const pared::StepReport step = session.step(run.mutable_mesh());
    const std::int64_t t2 = now_ns();
    const pared::StepReport full = session.metrics(run.mesh());
    const std::int64_t t3 = now_ns();
    adapt_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    step_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    metrics_ms.push_back(static_cast<double>(t3 - t2) / 1e6);

    const AdvanceReply adv{run.mesh().num_leaves(), info.bisections,
                           info.merges, info.t};
    bool seen_adv = false, seen_step = false, seen_full = false;
    for (const auto& a : got[r].advances) seen_adv = seen_adv || a == adv;
    for (const auto& x : got[r].steps)
      seen_step = seen_step || same_report(x, step);
    for (const auto& x : got[r].metrics)
      seen_full = seen_full || same_report(x, full);
    if (!seen_adv || !seen_step || !seen_full) {
      result.fail_check("session " + std::to_string(s) + " round " +
                        std::to_string(r) +
                        ": server replies differ from the in-process replay");
      return;
    }
  }
}

}  // namespace

Result run_svc_sfc_sessions(const Options& options, Tracer& tracer) {
  Result result;
  result.rounds_per_pass = kSteps;
  std::vector<double> adapt_ms, step_ms, metrics_ms;
  std::int64_t io_busy_ns = 0, io_idle_ns = 0;
  Variants variants(kVariants);
  std::int64_t round_seq = 0;

  run_passes(options, tracer, result, kVariants,
             [&](int pass, std::uint64_t seed, bool traced) {
    const std::int64_t s0 = now_ns();
    std::optional<svc::Server> server;
    std::vector<Conn> conns(kConns);
    std::vector<std::uint32_t> ids(kSessions, 0);
    std::optional<Transport> io;
    {
      Scope span(tracer, "setup");
      svc::ServerOptions sopt;
      sopt.threads = kShards;
      sopt.max_connections = kConns + 1;
      server.emplace(sopt);
      io.emplace(*server, tracer);
      for (Conn& c : conns) {
        c.fd = svc::adopt_loopback_raw(*server);
        if (c.fd < 0) throw std::runtime_error("loopback adopt failed");
      }
      // All 12 creates go out at once, session s on connection s % 4. The
      // server's control FIFO assigns ids in arrival order and answers each
      // connection in order, so connection c's replies are sessions c,
      // c + 4, c + 8, whose ids land on three different shards.
      for (int s = 0; s < kSessions; ++s) {
        pnr::par::Writer w;
        svc::encode_workload_spec(w, spec_for(seed, s));
        io->send(conns[static_cast<std::size_t>(s % kConns)],
                 svc::encode_frame(svc::kOpCreateWorkload, w.take()));
      }
      for (int s = 0; s < kSessions; ++s) {
        Conn& c = conns[static_cast<std::size_t>(s % kConns)];
        std::uint16_t type = 0;
        svc::Bytes body;
        const std::int64_t deadline = now_ns() + kRoundDeadlineNs;
        while (!io->pop(c, &type, &body)) {
          if (now_ns() > deadline)
            throw std::runtime_error("create_workload timed out");
          if (io->poll())
            for (Conn& any : conns) io->recv(any);
        }
        pnr::par::TryReader r(body);
        const auto id = r.get<std::uint32_t>();
        const auto elements = r.get<std::int64_t>();
        if (type != (svc::kOpCreateWorkload | svc::kReplyBit) || !id ||
            !elements || !r.done())
          throw std::runtime_error("create_workload refused");
        ids[static_cast<std::size_t>(s)] = *id;
      }
      std::vector<int> shards_of_conn;
      for (int c = 0; c < kConns; ++c)
        for (int s = c; s < kSessions; s += kConns)
          shards_of_conn.push_back(
              static_cast<int>(ids[static_cast<std::size_t>(s)] % kShards));
      for (int c = 0; c < kConns; ++c) {
        const auto* sh = &shards_of_conn[static_cast<std::size_t>(3 * c)];
        if (sh[0] == sh[1] || sh[1] == sh[2] || sh[0] == sh[2])
          throw std::runtime_error("a connection's sessions share a shard");
      }
    }
    result.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    io->busy_ns = io->idle_ns = 0;

    const int replay = pass % kSessions;
    const auto replay_conn = static_cast<std::size_t>(replay % kConns);
    std::vector<ConnRound> replay_got;
    QualityAcc quality;
    std::uint64_t digest = 0;
    bool pass_ok = true;
    const std::int64_t loop0 = now_ns();
    for (int r = 0; r < kSteps && pass_ok; ++r) {
      tracer.set_round(static_cast<std::int32_t>(round_seq++));
      const bool inject = options.inject_unknown_every > 0 &&
                          r % options.inject_unknown_every == 0;
      std::vector<int> expect(kConns, 0);
      std::vector<ConnRound> got(kConns);
      int pending = 0, failed = 0, unknown_errors = 0;
      const std::int64_t t0 = now_ns();
      try {
        Scope round_span(tracer, "round");
        {
          Scope span(tracer, "svc.send");
          for (int c = 0; c < kConns; ++c) {
            int& want = expect[static_cast<std::size_t>(c)];
            svc::Bytes burst;
            for (int s = c; s < kSessions; s += kConns) {
              const std::uint32_t id = ids[static_cast<std::size_t>(s)];
              for (const auto op : {svc::kOpAdvance, svc::kOpStep,
                                    svc::kOpGetMetrics}) {
                const svc::Bytes f = id_frame(op, id);
                burst.insert(burst.end(), f.begin(), f.end());
                ++want;
              }
            }
            if (inject && c == 0) {
              const svc::Bytes f =
                  id_frame(svc::kOpGetMetrics, kUnknownSession);
              burst.insert(burst.end(), f.begin(), f.end());
              ++want;
            }
            result.attempted += want;
            pending += want;
            io->send(conns[static_cast<std::size_t>(c)], burst);
          }
        }
        while (pending > 0) {
          if (now_ns() - t0 > kRoundDeadlineNs)
            throw std::runtime_error("round timed out waiting for replies");
          if (!io->poll()) continue;
          Scope span(tracer, "svc.recv");
          for (int c = 0; c < kConns; ++c) {
            Conn& conn = conns[static_cast<std::size_t>(c)];
            ConnRound& cr = got[static_cast<std::size_t>(c)];
            io->recv(conn);
            std::uint16_t type = 0;
            svc::Bytes body;
            while (io->pop(conn, &type, &body)) {
              if (--expect[static_cast<std::size_t>(c)] < 0)
                throw std::runtime_error("more replies than requests");
              --pending;
              digest += pnr::util::fnv1a_value(
                  r, pnr::util::fnv1a(body.data(), body.size(),
                                      pnr::util::fnv1a_value(type)));
              const Reply rep = decode_reply(type, body);
              switch (rep.kind) {
                case Reply::kAdvance: cr.advances.push_back(rep.advance); break;
                case Reply::kStep: cr.steps.push_back(rep.report); break;
                case Reply::kMetrics:
                  cr.metrics.push_back(rep.report);
                  quality.add(rep.report.cut_new, rep.report.migrated,
                              rep.report.elements, rep.report.imbalance);
                  break;
                case Reply::kError:
                  ++failed;
                  if (rep.err == svc::Err::kUnknownSession) ++unknown_errors;
                  break;
                case Reply::kBad:
                  ++failed;
                  result.fail_check("round " + std::to_string(r) +
                                    ": reply failed to decode or type-check");
                  break;
              }
            }
          }
        }
      } catch (const std::runtime_error& e) {
        // A broken transport ends the pass; every unanswered op failed.
        std::fprintf(stderr, "svc round %d: %s\n", r, e.what());
        failed += pending;
        pass_ok = false;
      }
      const std::int64_t t1 = now_ns();
      result.failed += failed;
      if (pass_ok && unknown_errors != (inject ? 1 : 0))
        result.fail_check("round " + std::to_string(r) +
                          ": unexpected unknown-session errors");
      // Every session must have answered each of its three ops once.
      for (const ConnRound& cr : got) {
        if (cr.advances.size() != 3 || cr.steps.size() != 3 ||
            cr.metrics.size() != 3)
          pass_ok = false;
      }
      // A round with a failed op is not a latency sample.
      if (failed == 0 && pass_ok)
        add_round(result, traced, static_cast<double>(t1 - t0) / 1e6);
      replay_got.push_back(std::move(got[replay_conn]));
    }
    tracer.set_round(-1);
    result.busy_seconds += static_cast<double>(now_ns() - loop0) / 1e9;
    if (traced) {
      io_busy_ns += io->busy_ns;
      io_idle_ns += io->idle_ns;
    }
    for (Conn& c : conns) svc::raw_close(c.fd);
    server.reset();
    // Every pass starts new shard threads, and glibc gives them malloc
    // arenas that keep their pages after the threads exit. Handing free
    // pages back here keeps peak RSS from depending on which arenas earlier
    // passes happened to populate (it varied 7.7-12.6 MB between runs).
    malloc_trim(0);

    if (!pass_ok) return;
    // The replay is a check, not part of the traced service.
    pnr::prof::set_enabled(false);
    replay_check(seed, replay, replay_got, result, adapt_ms, step_ms,
                 metrics_ms);
    variants.complete(result, pass, digest, quality);
  });
  variants.finish(result);

  const double rounds = static_cast<double>(result.traced_rounds);
  if (rounds > 0) {
    result.layer["svc.io_busy_ms_per_round"] =
        static_cast<double>(io_busy_ns) / 1e6 / rounds;
    result.layer["svc.io_idle_ms_per_round"] =
        static_cast<double>(io_idle_ns) / 1e6 / rounds;
  }
  result.layer["mesh.adapt_ms_p50"] = quantile(adapt_ms, 0.5);
  result.layer["pared.step_ms_p50"] = quantile(step_ms, 0.5);
  result.layer["pared.metrics_ms_p50"] = quantile(metrics_ms, 0.5);
  return result;
}

}  // namespace pnrbench
