//===- perfbench/Served.cpp - served_ingest workload -----------------------===//
///
/// \file
/// Fleet profile collection: nproc-1 loopback clients stream framed
/// counts messages into an in-process ProfileServer while one more load
/// thread runs hottestPaths() queries and decay() passes on a fixed
/// open-loop schedule. The messages come from real PPP runs made during
/// set-up, replicated under enough module identities that the key set
/// sits near the default aggregator's fast capacity, so both the
/// lock-free cells and the overflow maps see traffic. The timed part
/// does no interpretation.
///
/// A round starts a fresh server, lets every client send its fixed
/// frame count, and ends when the server has quiesced. The warm-up
/// round runs without decay and its aggregate must equal a sequential
/// mergeCounts fold byte for byte; the timed rounds decay, so their
/// aggregate must stay at or below that fold, key by key.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"
#include "Stats.h"

#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/Format.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <latch>
#include <map>
#include <thread>
#include <tuple>

using namespace pb;
using namespace ppp;
using namespace ppp::serve;

namespace {

/// The default aggregator's fast capacity (8 shards x 4096 cells).
constexpr uint64_t TargetKeys = 8 * 4096;
/// Packed aggregation keys carry an 8-bit benchmark id.
constexpr size_t MaxIdentities = 250;
/// Counter merges per round, whatever the seed's message sizes.
constexpr double TargetMergesPerRound = 1.2e6;
/// Open-loop schedule of the query thread: one call per period; the
/// second call and every DecayEvery-th after it a decay pass, the others
/// hottest-paths queries. A round lasts 50-100 ms, so each round decays
/// once. A query costs ~2 ms on this load, so the thread is busy ~15% of
/// the time.
constexpr auto QueryPeriod = std::chrono::microseconds(15000);
constexpr unsigned DecayEvery = 8;
/// Rows per query, as in tools/ppp_served.cpp.
constexpr unsigned HotK = 16;

using RowKey = std::tuple<std::string, CountKind, uint32_t, uint64_t>;

/// The precomputed load: per-identity messages, per-client streams, and
/// the sequential fold every round is checked against.
struct Load {
  unsigned Clients = 1;
  std::vector<CountsMessage> Msgs; ///< One per identity.
  unsigned FramesPerIdentity = 1;   ///< Sends of each identity per round.
  std::vector<std::string> Streams; ///< One per client.
  uint64_t MergesPerRound = 0;
  std::string OracleDump; ///< formatAggregate of the fold.
  std::map<RowKey, uint64_t> Oracle;
};

uint64_t entries(const CountsMessage &M) {
  uint64_t N = 0;
  for (const FunctionCounts &F : M.Funcs)
    N += F.PathCounts.size() + F.EdgeCounts.size() + (F.Lost > 0) +
         (F.Cold > 0) + (F.Invalid > 0);
  return N;
}

/// Builds the load from one PPP run per module; returns its seconds.
double buildLoad(const SuiteSetup &S, unsigned Clients, Load &L) {
  uint64_t T0 = nowNs();
  L = Load();
  L.Clients = Clients;
  std::vector<CountsMessage> Base;
  for (const PreparedModule &M : S.Mods) {
    InstrumentationResult IR =
        instrumentModule(M.B.Expanded, M.B.EP, ProfilerOptions::ppp());
    ProfileRuntime RT = IR.makeRuntime();
    InterpOptions IO;
    IO.Costs = M.B.Costs;
    Interpreter I(IR.Instrumented, IO);
    I.setProfileRuntime(&RT);
    RunResult Res = I.run();
    if (Res.FuelExhausted || Res.MemChecksum != M.Clean.MemChecksum)
      fatal("ppp run of " + M.B.Name + " differs from its clean run");
    Base.push_back(countsFromRun(M.B.Name, IR, RT, &M.B.EP));
  }
  // The module messages over and over under distinct identities until
  // the key set reaches TargetKeys; then enough sends of each that every
  // round does about the same merge work whatever the seed.
  uint64_t Keys = 0;
  for (size_t I = 0; Keys < TargetKeys && I < MaxIdentities; ++I) {
    const CountsMessage &M = Base[I % Base.size()];
    L.Msgs.push_back(M);
    L.Msgs.back().Benchmark = formatString("id%03zu.%s", I, M.Benchmark.c_str());
    Keys += entries(M);
  }
  L.FramesPerIdentity = static_cast<unsigned>(std::max(
      1.0, std::round(TargetMergesPerRound / static_cast<double>(Keys))));

  L.Streams.assign(Clients, "");
  std::vector<uint64_t> Frames(Clients, 0);
  for (unsigned Client = 0; Client < Clients; ++Client)
    L.Streams[Client] = helloMessage(formatString("client%u", Client));
  for (unsigned Rep = 0; Rep < L.FramesPerIdentity; ++Rep)
    for (size_t Id = 0; Id < L.Msgs.size(); ++Id) {
      L.Streams[Id % Clients] += writeCountsBinary(L.Msgs[Id]);
      ++Frames[Id % Clients];
      L.MergesPerRound += entries(L.Msgs[Id]);
    }
  for (unsigned Client = 0; Client < Clients; ++Client)
    L.Streams[Client] += byeMessage(Frames[Client]);

  std::vector<NamedRow> Rows;
  for (const CountsMessage &M : L.Msgs) {
    CountsMessage Fold;
    for (unsigned Rep = 0; Rep < L.FramesPerIdentity; ++Rep)
      mergeCounts(Fold, M);
    std::vector<NamedRow> R = rowsFromMessage(Fold);
    Rows.insert(Rows.end(), R.begin(), R.end());
  }
  for (const NamedRow &Row : Rows)
    L.Oracle[{Row.Bench, Row.Kind, Row.Func, Row.Index}] = Row.Count;
  L.OracleDump = formatAggregate(std::move(Rows));

  // A server start and stop is part of set-up too.
  ServerConfig Cfg;
  ProfileServer Probe(Cfg);
  std::string Error;
  if (!Probe.start(Error))
    fatal("cannot start the profile server: " + Error);
  Probe.stop();
  return msBetween(T0, nowNs()) / 1e3;
}

/// Samples from the timed rounds.
struct Samples {
  uint64_t Merges = 0, Fast = 0, Probes = 0;
  std::vector<double> RoundMs; ///< First connect to last session quiesced.
  std::vector<double> SessionMs, QueryMs, LagMs, DecayMs, OverflowKeys;
};

/// The aggregate after a decaying round: every key known to the fold,
/// no count above it, rows of hottestPaths in order.
bool boundedByOracle(const Aggregator &Agg, const Load &L) {
  for (const NamedRow &Row : Agg.snapshotRows()) {
    auto It = L.Oracle.find({Row.Bench, Row.Kind, Row.Func, Row.Index});
    if (It == L.Oracle.end() || Row.Count > It->second)
      return false;
  }
  return true;
}

/// One round: fresh server, all clients, query thread; then checks.
void round(const Load &L, bool Decay, uint64_t Unit, Samples *S, Report &R) {
  setUnit(Unit);
  Span Round("round");
  ServerConfig Cfg;
  Cfg.ExpectClients = L.Clients;
  ProfileServer Server(Cfg);
  std::string Error;
  if (!Server.start(Error))
    fatal("cannot start the profile server: " + Error);
  Aggregator &Agg = Server.aggregator();

  std::latch Go(1);
  std::atomic<bool> Stop{false};
  Clock::time_point T0;
  std::vector<double> SessionMs(L.Clients, 0);
  std::vector<char> Connected(L.Clients, 0), Sent(L.Clients, 0);
  std::vector<double> QueryMs, LagMs, DecayMs;
  bool QueriesOrdered = true;

  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < L.Clients; ++C)
    Threads.emplace_back([&, C] {
      setUnit(Unit);
      Go.wait();
      // A session lasts from connect until the server hangs up, which it
      // does only after ingesting the whole stream.
      Span Session("session");
      std::string Err;
      Span Connect("connect");
      int Fd = connectLoopback(Server.port(), Err);
      Connect.end();
      Connected[C] = Fd >= 0;
      if (Fd >= 0) {
        Span Send("send");
        Sent[C] = sendAll(Fd, L.Streams[C], Err);
        Send.end();
        ::shutdown(Fd, SHUT_WR);
        Span Ack("ack");
        char Byte;
        ssize_t N;
        while ((N = ::recv(Fd, &Byte, 1, 0)) > 0 || (N < 0 && errno == EINTR))
          Sent[C] = false; // The server never writes.
        Ack.end();
        closeFd(Fd);
      }
      SessionMs[C] = Session.end();
      if (!Sent[C])
        fprintf(stderr, "perfbench: client %u: %s\n", C, Err.c_str());
    });
  Threads.emplace_back([&] {
    setUnit(Unit);
    Go.wait();
    for (unsigned J = 1;; ++J) {
      Clock::time_point Due = T0 + J * QueryPeriod;
      std::this_thread::sleep_until(Due);
      if (Stop.load(std::memory_order_acquire))
        break;
      auto Late = [&] {
        return std::chrono::duration<double, std::milli>(Clock::now() - Due)
            .count();
      };
      LagMs.push_back(Late());
      if (Decay && J % DecayEvery == 2) {
        Span D("decay");
        Agg.decay();
        DecayMs.push_back(D.end());
        continue;
      }
      Span Q("query");
      std::vector<NamedRow> Hot = Agg.hottestPaths(HotK);
      Q.end();
      QueryMs.push_back(Late());
      for (size_t I = 1; I < Hot.size(); ++I)
        QueriesOrdered &= Hot[I - 1].Count >= Hot[I].Count;
    }
  });

  T0 = Clock::now();
  Go.count_down();
  {
    // Clients return once the server has hung up on them; the server
    // then counts each session as ended. A client that never connected
    // is a session the server will not see, so do not wait for it.
    Span Quiesce("quiesce");
    for (unsigned C = 0; C < L.Clients; ++C)
      Threads[C].join();
    if (std::all_of(Connected.begin(), Connected.end(),
                    [](char Ok) { return Ok; }))
      Server.waitForClients();
  }
  double WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  Stop.store(true, std::memory_order_release);
  Threads.back().join();
  Server.stop();
  Round.end();

  Aggregator::Stats St = Agg.stats();
  std::string Why;
  if (Server.cleanSessions() != L.Clients || Server.failedSessions() != 0)
    Why = "a session did not end cleanly";
  else if (St.Merges != L.MergesPerRound)
    Why = formatString("server applied %llu merges, expected %llu",
                       (unsigned long long)St.Merges,
                       (unsigned long long)L.MergesPerRound);
  else if (!QueriesOrdered)
    Why = "hottestPaths returned rows out of order";
  else if (!Decay && formatAggregate(Agg.snapshotRows()) != L.OracleDump)
    Why = "aggregate differs from the sequential mergeCounts fold";
  else if (Decay && !boundedByOracle(Agg, L))
    Why = "decayed aggregate exceeds the sequential mergeCounts fold";
  if (!Why.empty())
    fprintf(stderr, "perfbench: round %llu failed: %s\n",
            (unsigned long long)Unit, Why.c_str());
  for (unsigned C = 0; C < L.Clients; ++C)
    R.attempt(Why.empty() && Sent[C]);
  R.set("serve.sessions_clean",
        R.get("serve.sessions_clean") + static_cast<double>(Server.cleanSessions()));
  R.set("serve.sessions_failed", R.get("serve.sessions_failed") +
                                     static_cast<double>(Server.failedSessions()));
  if (!S)
    return;
  S->RoundMs.push_back(WallMs);
  S->Merges += St.Merges;
  S->Fast += St.FastMerges;
  S->Probes += St.Probes;
  S->OverflowKeys.push_back(static_cast<double>(St.OverflowKeys));
  S->SessionMs.insert(S->SessionMs.end(), SessionMs.begin(), SessionMs.end());
  S->QueryMs.insert(S->QueryMs.end(), QueryMs.begin(), QueryMs.end());
  S->LagMs.insert(S->LagMs.end(), LagMs.begin(), LagMs.end());
  S->DecayMs.insert(S->DecayMs.end(), DecayMs.begin(), DecayMs.end());
}

/// Rounds until \p Seconds of wall time have passed, each followed by
/// one step of the blocked comparison.
void rounds(const Load &L, double Seconds, Samples &S,
            BlockedComparison &Blocked, uint64_t &Unit, Report &R) {
  uint64_t T0 = nowNs();
  do {
    round(L, /*Decay=*/true, Unit++, &S, R);
    Blocked.step(R);
  } while (msBetween(T0, nowNs()) < Seconds * 1e3);
}

/// Repetitions of the bare ingest; its rate is their median.
constexpr unsigned BareIngestReps = 3;

/// The same messages ingested straight into a bare Aggregator by the
/// same number of threads (no TCP, no framing): merges per second.
double bareIngestRate(const Load &L) {
  std::vector<double> Rates;
  for (unsigned Rep = 0; Rep < BareIngestReps; ++Rep) {
    Aggregator Agg;
    std::vector<uint16_t> Ids;
    for (const CountsMessage &M : L.Msgs)
      Ids.push_back(Agg.internBenchmark(M.Benchmark));
    std::latch Go(1);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < L.Clients; ++C)
      Threads.emplace_back([&, C] {
        Go.wait();
        Span Ingest("agg_ingest");
        for (unsigned Rep = 0; Rep < L.FramesPerIdentity; ++Rep)
          for (size_t Id = C; Id < L.Msgs.size(); Id += L.Clients)
            Agg.ingest(Ids[Id], L.Msgs[Id]);
      });
    uint64_t T0 = nowNs();
    Go.count_down();
    for (std::thread &T : Threads)
      T.join();
    Rates.push_back(static_cast<double>(L.MergesPerRound) /
                    (msBetween(T0, nowNs()) / 1e3));
  }
  return median(Rates);
}

} // namespace

void pb::runServed(const RunOptions &O, Report &R) {
  unsigned Cores = std::thread::hardware_concurrency();
  unsigned Clients = Cores > 1 ? Cores - 1 : 1;
  Load L;
  setTracing(O.Trace);
  SuiteSetup Setup = prepareSuiteMedian(
      suiteRecipes(O.Seed), R,
      [&](const SuiteSetup &S) { return buildLoad(S, Clients, L); });
  setTracing(false);
  printf("%u clients, %zu identities sent %u times each, %llu merges per "
         "round\n",
         Clients, L.Msgs.size(), L.FramesPerIdentity,
         (unsigned long long)L.MergesPerRound);

  uint64_t Unit = 1;
  round(L, /*Decay=*/false, Unit++, nullptr, R); // Warm-up, exact check.

  // The clients' side of collection: the PPP runs whose counts they ship.
  BlockedComparison Blocked(Setup.Mods, {ProfilerOptions::ppp()});
  Samples Timed;
  if (!O.Trace) {
    rounds(L, O.Seconds, Timed, Blocked, Unit, R);
  } else {
    Samples Untraced;
    for (int W = 0; W < 4; ++W) {
      bool Traced = W == 1 || W == 2;
      setTracing(Traced);
      rounds(L, O.Seconds / 4, Traced ? Timed : Untraced, Blocked, Unit, R);
    }
    setTracing(true);
    R.set("serve.agg_ingest_per_s", bareIngestRate(L));
    setTracing(false);
    auto Rate = [](const Samples &S) { return 1 / median(S.RoundMs); };
    R.set("tracing.overhead_frac", 1 - Rate(Timed) / Rate(Untraced));
    reportSelfTimes(R,
                    {"round", "session", "connect", "send", "ack", "quiesce",
                     "query", "decay"},
                    static_cast<double>(Timed.RoundMs.size()));
    // Bare ingest self time per repetition (one round's messages), summed
    // over its threads.
    R.set("self_ms.agg_ingest", selfTimes()["agg_ingest"] / BareIngestReps);
  }

  Tail SessionTail = tailOf(Timed.SessionMs), QueryTail = tailOf(Timed.QueryMs);
  printf("%zu timed rounds; cycle_tail_ms is p%g of %zu sessions, "
         "query_tail_ms is p%g of %zu queries\n",
         Timed.RoundMs.size(), SessionTail.Percentile,
         Timed.SessionMs.size(), QueryTail.Percentile, Timed.QueryMs.size());
  // Every round does the same work, so rates come from the median round.
  double RoundS = median(Timed.RoundMs) / 1e3;
  R.set("cycles_per_s", L.Clients / RoundS);
  R.set("cycle_p50_ms", median(Timed.SessionMs));
  R.set("cycle_tail_ms", SessionTail.Value);
  R.set("merges_per_s", static_cast<double>(L.MergesPerRound) / RoundS);
  R.set("query_p50_ms", median(Timed.QueryMs));
  R.set("query_tail_ms", QueryTail.Value);
  R.set("serve.fast_frac",
        static_cast<double>(Timed.Fast) / static_cast<double>(Timed.Merges));
  R.set("serve.probes_per_merge",
        static_cast<double>(Timed.Probes) / static_cast<double>(Timed.Merges));
  R.set("serve.overflow_keys", median(Timed.OverflowKeys));
  R.set("serve.decay_ms", median(Timed.DecayMs));
  R.set("serve.query_sched_lag_ms", median(Timed.LagMs));
  Blocked.cover(R);
  Blocked.report(R);
}
