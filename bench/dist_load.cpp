// Distributed serving load bench: an in-process dist::Router driving real
// `tvsc served` agent *subprocesses* over loopback TCP — the full
// multi-process wire path, not the in-process shortcut the unit tests take.
//
// Three scenarios:
//
//  * identity — the correctness anchor: the same NonSpeculative specs
//    through router + 2 remote agents and through one local
//    serve::SessionManager must produce byte-identical containers.
//    Reported as a paired-ratio median and quartiles (per rep, wall_local /
//    wall_dist back to back) plus rollback counts — this host's wall clock cannot
//    resolve gaps under ~±10%, so raw deltas are noise.
//
//  * scaling — the same Balanced-policy session batch through 1 agent vs
//    2 agents, paired per rep; the median wall ratio (with its quartiles) is
//    the subsystem's scale-out signal.
//
//  * spill — one agent started with --bulk-cap=0 (saturated for Bulk by
//    construction), one with room: every Bulk submit must spill to the
//    roomy node instead of being shed. BENCH_dist.json records the
//    spill/shed counts under the shared provenance header (bench_util.h).
//
// Agents are discovered via --port-file and reaped via --once (they exit
// when the router drains). --tvsc=<path> overrides the agent binary;
// the default resolves ../tools/tvsc next to this bench binary.
// --smoke runs every scenario once, small, in well under 30 s and exits
// nonzero unless identity holds and Bulk spilled instead of shedding.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dist/protocol.h"
#include "dist/router.h"
#include "serve/session_manager.h"

namespace {

constexpr unsigned kWorkers = 4;
constexpr std::size_t kConcurrent = 2;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string default_tvsc() {
  // The bench lives in build/bench/, tvsc in build/tools/.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "tools/tvsc";
  return (self.parent_path() / ".." / "tools" / "tvsc").lexically_normal()
      .string();
}

struct Agent {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks one `tvsc served --once` agent and waits for its port file.
Agent spawn_agent(const std::string& tvsc, const std::string& name,
                  const std::vector<std::string>& extra) {
  const std::string port_file =
      (std::filesystem::temp_directory_path() /
       ("tvs_dist_load." + std::to_string(::getpid()) + "." + name + ".port"))
          .string();
  std::error_code ec;
  std::filesystem::remove(port_file, ec);

  std::vector<std::string> args = {tvsc,      "served",
                                   "--once",  "--name=" + name,
                                   "--port-file=" + port_file,
                                   "--workers=" + std::to_string(kWorkers),
                                   "--concurrent=" + std::to_string(kConcurrent)};
  args.insert(args.end(), extra.begin(), extra.end());

  Agent a;
  a.pid = ::fork();
  if (a.pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    ::execv(tvsc.c_str(), argv.data());
    std::fprintf(stderr, "dist_load: execv %s failed: %s\n", tvsc.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  if (a.pid < 0) {
    std::fprintf(stderr, "dist_load: fork failed\n");
    return a;
  }
  for (int i = 0; i < 200; ++i) {  // up to ~10 s for a cold binary
    std::ifstream f(port_file);
    unsigned port = 0;
    if (f >> port && port != 0) {
      a.port = static_cast<std::uint16_t>(port);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::filesystem::remove(port_file, ec);
  if (a.port == 0) {
    std::fprintf(stderr, "dist_load: agent %s never reported a port\n",
                 name.c_str());
    ::kill(a.pid, SIGKILL);
    ::waitpid(a.pid, nullptr, 0);
    a.pid = -1;
  }
  return a;
}

void reap(std::vector<Agent>& agents) {
  for (auto& a : agents) {
    if (a.pid <= 0) continue;
    // --once agents exit on their own once the router drained; give them a
    // moment, then escalate.
    for (int i = 0; i < 100; ++i) {
      if (::waitpid(a.pid, nullptr, WNOHANG) == a.pid) {
        a.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (a.pid > 0) {
      ::kill(a.pid, SIGKILL);
      ::waitpid(a.pid, nullptr, 0);
      a.pid = -1;
    }
  }
}

dist::SessionSpec make_spec(const std::string& name, serve::Priority p,
                            std::uint64_t seed, std::size_t bytes,
                            sre::DispatchPolicy policy) {
  dist::SessionSpec s;
  s.name = name;
  s.priority = p;
  s.file = wl::FileKind::Txt;
  s.bytes = bytes;
  s.seed = seed;
  s.policy = policy;
  return s;
}

std::vector<dist::SessionSpec> session_batch(std::size_t n, std::size_t bytes,
                                             sre::DispatchPolicy policy) {
  const serve::Priority prios[] = {serve::Priority::Interactive,
                                   serve::Priority::Batch,
                                   serve::Priority::Bulk};
  std::vector<dist::SessionSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back(make_spec("s" + std::to_string(i), prios[i % 3],
                              /*seed=*/700 + i, bytes, policy));
  }
  return specs;
}

struct RunOut {
  bool ok = false;
  double wall_ms = 0.0;
  std::uint64_t rollbacks = 0;
  std::vector<std::vector<std::uint8_t>> containers;
};

/// The specs through router + n_agents `tvsc served` subprocesses.
RunOut run_distributed(const std::string& tvsc, std::size_t n_agents,
                       const std::vector<dist::SessionSpec>& specs) {
  RunOut out;
  std::vector<Agent> agents;
  for (std::size_t i = 0; i < n_agents; ++i) {
    agents.push_back(
        spawn_agent(tvsc, "node" + std::to_string(i), {}));
    if (agents.back().pid < 0) {
      reap(agents);
      return out;
    }
  }
  {
    dist::Router router;
    for (const auto& a : agents) router.add_node("127.0.0.1", a.port);

    const double t0 = now_ms();
    std::vector<std::uint64_t> ids;
    for (const auto& s : specs) {
      const auto so = router.submit(s);
      if (!so.placed) {
        std::fprintf(stderr, "dist_load: unexpected shed: %s\n",
                     so.shed_reason.c_str());
        reap(agents);
        return out;
      }
      ids.push_back(so.id);
    }
    out.ok = true;
    for (const auto id : ids) {
      const auto so = router.wait(id);
      if (so.state != dist::WireState::Done) {
        std::fprintf(stderr, "dist_load: session %s not Done: %s\n",
                     so.name.c_str(), so.detail.c_str());
        out.ok = false;
        continue;
      }
      out.rollbacks += so.rollbacks;
      out.containers.push_back(so.container);
    }
    out.wall_ms = now_ms() - t0;
    router.drain();
  }  // ~Router closes connections; --once agents exit
  reap(agents);
  return out;
}

/// The same specs through one local SessionManager (same fleet shape as
/// each agent: the single-process baseline of the identity check).
RunOut run_local(const std::vector<dist::SessionSpec>& specs) {
  serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.max_concurrent = kConcurrent;
  serve::SessionManager mgr(cfg);

  RunOut out;
  const double t0 = now_ms();
  std::vector<serve::SessionId> ids;
  for (const auto& s : specs) {
    serve::SessionConfig sc;
    sc.name = s.name;
    sc.priority = s.priority;
    sc.run = dist::to_run_config(s);
    const auto o = mgr.submit(std::move(sc));
    if (!o.accepted) return out;
    ids.push_back(o.id);
  }
  out.ok = true;
  for (const auto id : ids) {
    const pipeline::RunResult* r = mgr.wait(id);
    if (r == nullptr) {
      out.ok = false;
      continue;
    }
    out.rollbacks += r->rollbacks;
    out.containers.push_back(r->container);
    mgr.release(id);
  }
  out.wall_ms = now_ms() - t0;
  mgr.drain();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Before the output is opened, which would read a tracked file as dirty.
  const std::string sha = benchutil::git_sha();
  std::string out_path = "BENCH_dist.json";
  std::string tvsc = default_tvsc();
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--tvsc=", 7) == 0) {
      tvsc = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (!std::filesystem::exists(tvsc)) {
    std::fprintf(stderr, "dist_load: tvsc binary not found at %s "
                 "(pass --tvsc=<path>)\n", tvsc.c_str());
    return 2;
  }

  const std::size_t reps = quick || smoke ? 1 : 3;
  const std::size_t bytes = smoke ? 48 * 1024 : 128 * 1024;
  const std::size_t n_sessions = smoke ? 6 : 12;

  // --- identity: dist(2 agents) vs local, paired per rep -----------------
  std::printf("dist_load: identity — router + 2 served subprocesses vs "
              "local SessionManager (%zu rep(s))\n", reps);
  const auto id_specs =
      session_batch(n_sessions, bytes, sre::DispatchPolicy::NonSpeculative);
  bool identity_ok = true;
  std::vector<double> id_ratios;
  std::uint64_t id_rollbacks_dist = 0, id_rollbacks_local = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const RunOut d = run_distributed(tvsc, 2, id_specs);
    const RunOut l = run_local(id_specs);
    if (!d.ok || !l.ok || d.containers != l.containers) {
      identity_ok = false;
      std::fprintf(stderr, "dist_load: identity MISMATCH (rep %zu)\n", rep);
    }
    if (d.wall_ms > 0.0) id_ratios.push_back(l.wall_ms / d.wall_ms);
    id_rollbacks_dist += d.rollbacks;
    id_rollbacks_local += l.rollbacks;
  }
  const benchutil::Spread id_ratio = benchutil::spread(id_ratios);
  std::printf("  identity_ok=%d  wall(local)/wall(dist) median=%.2f "
              "(%.2f..%.2f)  rollbacks dist=%llu local=%llu\n",
              identity_ok ? 1 : 0, id_ratio.median, id_ratio.p25, id_ratio.p75,
              static_cast<unsigned long long>(id_rollbacks_dist),
              static_cast<unsigned long long>(id_rollbacks_local));

  // --- scaling: 1 agent vs 2 agents, paired per rep ----------------------
  std::printf("dist_load: scaling — 1 vs 2 served subprocesses\n");
  const auto sc_specs =
      session_batch(n_sessions, bytes, sre::DispatchPolicy::Balanced);
  bool scaling_ok = true;
  std::vector<double> sc_ratios;
  std::uint64_t sc_rollbacks = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const RunOut one = run_distributed(tvsc, 1, sc_specs);
    const RunOut two = run_distributed(tvsc, 2, sc_specs);
    scaling_ok = scaling_ok && one.ok && two.ok;
    if (two.wall_ms > 0.0) sc_ratios.push_back(one.wall_ms / two.wall_ms);
    sc_rollbacks += one.rollbacks + two.rollbacks;
  }
  const benchutil::Spread sc_ratio = benchutil::spread(sc_ratios);
  std::printf("  ok=%d  wall(1 node)/wall(2 nodes) median=%.2f (%.2f..%.2f)  "
              "rollbacks=%llu\n",
              scaling_ok ? 1 : 0, sc_ratio.median, sc_ratio.p25, sc_ratio.p75,
              static_cast<unsigned long long>(sc_rollbacks));

  // --- spill-before-shed: saturated + roomy node -------------------------
  std::printf("dist_load: spill — one agent with --bulk-cap=0, one with "
              "room\n");
  dist::Router::Totals spill_totals;
  bool spill_ok = false;
  {
    std::vector<Agent> agents;
    agents.push_back(spawn_agent(tvsc, "saturated", {"--bulk-cap=0"}));
    agents.push_back(spawn_agent(tvsc, "roomy", {}));
    if (agents[0].pid >= 0 && agents[1].pid >= 0) {
      dist::Router router;
      router.add_node("127.0.0.1", agents[0].port);
      router.add_node("127.0.0.1", agents[1].port);
      std::vector<std::uint64_t> ids;
      for (std::size_t i = 0; i < n_sessions; ++i) {
        const auto prio = i % 3 == 0 ? serve::Priority::Interactive
                                     : serve::Priority::Bulk;
        const auto so = router.submit(
            make_spec("sp" + std::to_string(i), prio, /*seed=*/900 + i,
                      bytes, sre::DispatchPolicy::Balanced));
        if (so.placed) ids.push_back(so.id);
      }
      spill_ok = true;
      for (const auto id : ids) {
        spill_ok = spill_ok &&
                   router.wait(id).state == dist::WireState::Done;
      }
      router.drain();
      spill_totals = router.totals();
      spill_ok = spill_ok && spill_totals.spilled > 0 &&
                 spill_totals.shed_router == 0 &&
                 spill_totals.shed_node == 0;
    }
    reap(agents);
  }
  std::printf("  ok=%d  submitted=%llu spilled=%llu shed=%llu done=%llu\n",
              spill_ok ? 1 : 0,
              static_cast<unsigned long long>(spill_totals.submitted),
              static_cast<unsigned long long>(spill_totals.spilled),
              static_cast<unsigned long long>(spill_totals.shed_router +
                                              spill_totals.shed_node),
              static_cast<unsigned long long>(spill_totals.done));

  // --- report ------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"benchmark\": \"dist_load\",\n");
    benchutil::write_provenance(f, static_cast<unsigned>(reps), sha);
    std::fprintf(f,
                 "  \"description\": \"distributed serving: in-process "
                 "router over tvsc served subprocesses on loopback\",\n");
    std::fprintf(f,
                 "  \"identity\": {\"ok\": %s, \"reps\": %zu, "
                 "\"wall_local_over_dist_median\": %.3f, "
                 "\"wall_local_over_dist_p25\": %.3f, "
                 "\"wall_local_over_dist_p75\": %.3f, "
                 "\"rollbacks_dist\": %llu, \"rollbacks_local\": %llu},\n",
                 identity_ok ? "true" : "false", reps, id_ratio.median,
                 id_ratio.p25, id_ratio.p75,
                 static_cast<unsigned long long>(id_rollbacks_dist),
                 static_cast<unsigned long long>(id_rollbacks_local));
    std::fprintf(f,
                 "  \"scaling\": {\"ok\": %s, \"reps\": %zu, "
                 "\"wall_1node_over_2node_median\": %.3f, "
                 "\"wall_1node_over_2node_p25\": %.3f, "
                 "\"wall_1node_over_2node_p75\": %.3f, "
                 "\"rollbacks\": %llu},\n",
                 scaling_ok ? "true" : "false", reps, sc_ratio.median,
                 sc_ratio.p25, sc_ratio.p75,
                 static_cast<unsigned long long>(sc_rollbacks));
    std::fprintf(f,
                 "  \"spill\": {\"ok\": %s, \"submitted\": %llu, "
                 "\"spilled\": %llu, \"shed_router\": %llu, "
                 "\"shed_node\": %llu, \"done\": %llu, "
                 "\"node_deaths\": %llu},\n",
                 spill_ok ? "true" : "false",
                 static_cast<unsigned long long>(spill_totals.submitted),
                 static_cast<unsigned long long>(spill_totals.spilled),
                 static_cast<unsigned long long>(spill_totals.shed_router),
                 static_cast<unsigned long long>(spill_totals.shed_node),
                 static_cast<unsigned long long>(spill_totals.done),
                 static_cast<unsigned long long>(spill_totals.node_deaths));
    std::fprintf(f,
                 "  \"headline\": {\"identity_ok\": %s, \"spill_ok\": %s}\n}\n",
                 identity_ok ? "true" : "false", spill_ok ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "dist_load: cannot write %s\n", out_path.c_str());
  }

  if (!identity_ok || !scaling_ok || !spill_ok) {
    std::fprintf(stderr, "dist_load: FAIL (see above)\n");
    return 1;
  }
  std::printf("dist_load: OK\n");
  return 0;
}
