//===- tools/ppp_served.cpp - Profile-collection server driver ----------------===//
///
/// The profile-collection server and its load generator in one binary:
///
///   ppp_served serve --expect=K [--port=P] [--shards=N] [--cells=N]
///                    [--probes=N] [--dump=FILE] [--decay-ms=MS]
///       Listen on loopback TCP (port 0 = ephemeral; the actual port is
///       printed as "listening <port>"), ingest until K client sessions
///       ended, then write the canonical aggregate dump and exit 0 iff
///       every session was clean.
///
///   ppp_served client --port=P --bench=NAME [--profiler=SPEC]
///                     [--name=ID] [--repeat=R]
///       Prepare + instrument + run NAME under SPEC (any profiler spec
///       parseProfilerSpec accepts; default ppp), flatten the run to a
///       counts message, and stream HELLO + R copies + BYE to the server.
///
///   ppp_served oracle --bench=NAME[,NAME...] [--profiler=SPEC]
///                     [--repeat=R] [--out=FILE]
///       The sequential ground truth: build the same messages, fold
///       them with mergeCounts in order, and write the same dump format
///       the server produces. Byte-identical output is the smoke test's
///       pass criterion.
///
///   ppp_served bench [--out=FILE]
///       The ingest benchmark: shard counts {1,2,4,8} are the variants
///       of bench/Measure.h's blocked loop. Each rep is one fixed-work
///       round on that configuration's aggregator, filled with every key
///       before timing starts -- 8 concurrent client threads each
///       perform 512 ingests (rotating through 16 module identities)
///       while decay passes and hottest-path queries run every 100 ms --
///       reporting merges/sec per configuration to stdout and a
///       "serve."-prefixed metrics JSON (BENCH_served.json).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Measure.h"
#include "obs/Obs.h"
#include "pass/Pipeline.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/Format.h"
#include "trace/Collect.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ppp;
using namespace ppp::serve;

namespace {

/// --key=value / --key value flag scanner over argv past the
/// subcommand.
class Flags {
public:
  Flags(int Argc, char **Argv) : Args(Argv + 2, Argv + Argc) {}

  std::optional<std::string> get(const std::string &Key) {
    std::string Prefix = "--" + Key + "=";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (Args[I].rfind(Prefix, 0) == 0) {
        Seen.insert(Seen.end(), I);
        return Args[I].substr(Prefix.size());
      }
      if (Args[I] == "--" + Key && I + 1 < Args.size()) {
        Seen.insert(Seen.end(), I);
        Seen.insert(Seen.end(), I + 1);
        return Args[I + 1];
      }
    }
    return std::nullopt;
  }

  uint64_t getNum(const std::string &Key, uint64_t Default) {
    auto V = get(Key);
    return V ? strtoull(V->c_str(), nullptr, 10) : Default;
  }

  /// Any argument no get()/getNum() call consumed.
  std::optional<std::string> unknown() const {
    for (size_t I = 0; I < Args.size(); ++I)
      if (std::find(Seen.begin(), Seen.end(), I) == Seen.end())
        return Args[I];
    return std::nullopt;
  }

private:
  std::vector<std::string> Args;
  std::vector<size_t> Seen;
};

int usage() {
  fprintf(stderr,
          "usage: ppp_served serve --expect=K [--port=P] [--shards=N]"
          " [--cells=N] [--probes=N] [--dump=FILE] [--decay-ms=MS]\n"
          "       ppp_served client --port=P --bench=NAME [--profiler=SPEC]"
          " [--name=ID] [--repeat=R]\n"
          "       ppp_served oracle --bench=NAME[,NAME...] [--profiler=SPEC]"
          " [--repeat=R] [--out=FILE]\n"
          "       ppp_served bench [--out=FILE]\n");
  return 2;
}

/// parseProfilerSpec with this tool's error text and exit code.
std::optional<ProfilerOptions> parseProfiler(const std::string &Spec) {
  ProfilerOptions O;
  std::string Error;
  if (parseProfilerSpec(Spec, O, Error))
    return O;
  fprintf(stderr, "error: unknown profiler '%s': %s\n", Spec.c_str(),
          Error.c_str());
  return std::nullopt;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// Prepares \p BenchName, profiles one run of it with \p Prof
/// (trace::collect), and flattens the run. Exits on unknown names.
CountsMessage buildRunMessage(const std::string &BenchName,
                              const ProfilerOptions &Prof) {
  std::optional<BenchmarkSpec> Spec = findBenchmark(BenchName);
  if (!Spec) {
    fprintf(stderr, "error: unknown benchmark '%s'\n", BenchName.c_str());
    exit(2);
  }
  bench::PreparedBenchmark B = bench::prepare(*Spec);
  InstrumentationResult IR = instrumentModule(B.Expanded, B.EP, Prof);
  ProfileRuntime RT = IR.makeRuntime();
  InterpOptions IO;
  IO.Costs = B.Costs;
  RunResult Res;
  std::string Error;
  if (!trace::collect(B.Expanded, IR, IO, RT, Res, Error, nullptr, &B.EP)) {
    fprintf(stderr, "error: %s: %s\n", BenchName.c_str(), Error.c_str());
    exit(1);
  }
  return countsFromRun(BenchName, IR, RT, &B.EP);
}

bool writeFile(const std::string &Path, const std::string &Data) {
  FILE *F = fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = fwrite(Data.data(), 1, Data.size(), F) == Data.size();
  return fclose(F) == 0 && Ok;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

int cmdServe(Flags &F) {
  ServerConfig Cfg;
  Cfg.Port = static_cast<uint16_t>(F.getNum("port", 0));
  Cfg.ExpectClients = static_cast<unsigned>(F.getNum("expect", 0));
  Cfg.Agg.Shards = static_cast<uint32_t>(F.getNum("shards", 8));
  Cfg.Agg.CellsPerShard = static_cast<uint32_t>(F.getNum("cells", 4096));
  Cfg.Agg.MaxProbes = static_cast<uint32_t>(F.getNum("probes", 8));
  std::string Dump = F.get("dump").value_or("");
  uint64_t DecayMs = F.getNum("decay-ms", 0);
  if (auto U = F.unknown()) {
    fprintf(stderr, "error: unknown argument '%s'\n", U->c_str());
    return usage();
  }
  if (Cfg.ExpectClients == 0) {
    fprintf(stderr, "error: serve requires --expect=K > 0\n");
    return 2;
  }

  ProfileServer Server(Cfg);
  std::string Error;
  if (!Server.start(Error)) {
    fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  printf("listening %u\n", (unsigned)Server.port());
  fflush(stdout);

  std::atomic<bool> StopDecay{false};
  std::thread Decayer;
  if (DecayMs > 0)
    Decayer = std::thread([&] {
      while (!StopDecay.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(DecayMs));
        if (!StopDecay.load(std::memory_order_acquire))
          Server.aggregator().decay();
      }
    });

  Server.waitForClients();
  Server.stop();
  if (Decayer.joinable()) {
    StopDecay.store(true, std::memory_order_release);
    Decayer.join();
  }

  std::string Out = formatAggregate(Server.aggregator().snapshotRows());
  if (!Dump.empty()) {
    if (!writeFile(Dump, Out)) {
      fprintf(stderr, "error: cannot write %s\n", Dump.c_str());
      return 1;
    }
  } else {
    fputs(Out.c_str(), stdout);
  }

  Aggregator::Stats S = Server.aggregator().stats();
  fprintf(stderr,
          "served %llu clean / %llu failed sessions; %llu merges "
          "(%llu fast, %llu overflow)\n",
          (unsigned long long)Server.cleanSessions(),
          (unsigned long long)Server.failedSessions(),
          (unsigned long long)S.Merges, (unsigned long long)S.FastMerges,
          (unsigned long long)S.OverflowMerges);
  return Server.failedSessions() == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// client
//===----------------------------------------------------------------------===//

int cmdClient(Flags &F) {
  uint16_t Port = static_cast<uint16_t>(F.getNum("port", 0));
  std::string Bench = F.get("bench").value_or("");
  std::string ProfName = F.get("profiler").value_or("ppp");
  std::string Name = F.get("name").value_or("client");
  uint64_t Repeat = F.getNum("repeat", 1);
  if (auto U = F.unknown()) {
    fprintf(stderr, "error: unknown argument '%s'\n", U->c_str());
    return usage();
  }
  if (Port == 0 || Bench.empty()) {
    fprintf(stderr, "error: client requires --port and --bench\n");
    return 2;
  }
  std::optional<ProfilerOptions> Prof = parseProfiler(ProfName);
  if (!Prof)
    return 2;

  CountsMessage M = buildRunMessage(Bench, *Prof);
  std::string CountsFrame = writeCountsBinary(M);

  std::string Error;
  int Fd = connectLoopback(Port, Error);
  if (Fd < 0) {
    fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::string Stream = helloMessage(Name);
  for (uint64_t R = 0; R < Repeat; ++R)
    Stream += CountsFrame;
  Stream += byeMessage(Repeat);
  bool Ok = sendAll(Fd, Stream, Error);
  closeFd(Fd);
  if (!Ok) {
    fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  fprintf(stderr, "%s: sent %llu counts frames (%zu bytes) for %s\n",
          Name.c_str(), (unsigned long long)Repeat, Stream.size(),
          Bench.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// oracle
//===----------------------------------------------------------------------===//

int cmdOracle(Flags &F) {
  std::string Benches = F.get("bench").value_or("");
  std::string ProfName = F.get("profiler").value_or("ppp");
  uint64_t Repeat = F.getNum("repeat", 1);
  std::string OutPath = F.get("out").value_or("");
  if (auto U = F.unknown()) {
    fprintf(stderr, "error: unknown argument '%s'\n", U->c_str());
    return usage();
  }
  if (Benches.empty()) {
    fprintf(stderr, "error: oracle requires --bench\n");
    return 2;
  }
  std::optional<ProfilerOptions> Prof = parseProfiler(ProfName);
  if (!Prof)
    return 2;

  // Fold each benchmark's repeats sequentially -- the ground truth the
  // server's concurrent sharded merge must match byte-for-byte. A
  // benchmark listed N times contributes N clients' worth of counts.
  std::map<std::string, uint64_t> Times;
  for (const std::string &B : splitList(Benches))
    Times[B] += Repeat;
  std::vector<NamedRow> Rows;
  for (const auto &[Bench, N] : Times) {
    CountsMessage M = buildRunMessage(Bench, *Prof);
    CountsMessage Agg;
    for (uint64_t R = 0; R < N; ++R)
      mergeCounts(Agg, M);
    std::vector<NamedRow> R = rowsFromMessage(Agg);
    Rows.insert(Rows.end(), R.begin(), R.end());
  }
  std::string Out = formatAggregate(std::move(Rows));
  if (!OutPath.empty()) {
    if (!writeFile(OutPath, Out)) {
      fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
      return 1;
    }
  } else {
    fputs(Out.c_str(), stdout);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// bench
//===----------------------------------------------------------------------===//

/// The ingest benchmark's fixed shape: 8 senders x 16 module identities
/// (~95k distinct keys), 16384 cells and 16 probes per shard, decay and
/// a hottestPaths(16) query every QueryPeriod while a round runs. The
/// one shard's overflow lock sets the 1-shard rate; a 4x faster or
/// once-per-round cadence moves it by under 10%, and rounds 4x longer
/// than IngestsPerClient by 2-5% (DESIGN.md §10.4).
constexpr unsigned BenchClients = 8, BenchIdentities = 16;
constexpr uint32_t BenchCells = 16384, BenchProbes = 16;
constexpr uint32_t BenchShards[] = {1, 2, 4, 8};
constexpr uint64_t IngestsPerClient = 512;
constexpr auto QueryPeriod = std::chrono::milliseconds(100);
constexpr unsigned BenchWarmup = 1, BenchReps = 8;

/// One configuration: its aggregator, which lives across every round,
/// the ids its senders ingest under (Ids[client][identity]), each
/// round's fast-path fraction, overflow keys and decay+query passes
/// (they move with how decay interleaves the ingest), and the wall
/// milliseconds of every decay and query call, taken under ingest.
struct BenchTable {
  std::unique_ptr<Aggregator> Agg;
  std::vector<std::vector<uint16_t>> Ids;
  std::vector<double> FastFraction, OverflowKeys, DecayPasses;
  std::vector<double> DecayMs, QueryMs;
};

int cmdBench(Flags &F) {
  std::string OutPath = F.get("out").value_or("BENCH_served.json");
  if (auto U = F.unknown()) {
    fprintf(stderr, "error: unknown argument '%s'\n", U->c_str());
    return usage();
  }

  // Load generation: each simulated client replays a real instrumented
  // run's counts message, rotating through BenchIdentities distinct
  // module identities (distinct benchmark id => distinct key space), the
  // way a worker that cycles through a suite would. The aggregate key
  // working set therefore grows with clients x identities, which is
  // exactly the axis that saturates a low shard count.
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  std::vector<BenchmarkSpec> Specs(
      Suite.begin(), Suite.begin() + std::min<size_t>(BenchClients,
                                                      Suite.size()));
  fprintf(stderr, "preparing %zu benchmarks on %u jobs...\n", Specs.size(),
          bench::parallelJobs(Specs.size()));
  std::vector<CountsMessage> Msgs = bench::runSuiteParallel(
      Specs, [](const BenchmarkSpec &S) {
        return buildRunMessage(S.Name, ProfilerOptions::ppp());
      });

  // Every configuration's aggregator is built, and every key inserted
  // once, before the clock starts: a timed round merges into a table
  // that already holds its working set, as a live server's does, and
  // charges no construction, interning or first-touch inserts. Decay
  // still evicts overflow keys whose count halves to zero, and the
  // round re-inserts those, as a live server would.
  constexpr size_t NumConfigs = std::size(BenchShards);
  std::vector<BenchTable> Tables(NumConfigs);
  for (size_t C = 0; C < NumConfigs; ++C) {
    AggregatorConfig AC;
    AC.Shards = BenchShards[C];
    AC.CellsPerShard = BenchCells;
    AC.MaxProbes = BenchProbes;
    BenchTable &T = Tables[C];
    T.Agg = std::make_unique<Aggregator>(AC);
    T.Ids.resize(BenchClients);
    for (unsigned I = 0; I < BenchClients; ++I)
      for (unsigned V = 0; V < BenchIdentities; ++V) {
        T.Ids[I].push_back(T.Agg->internBenchmark(
            formatString("client%02u.v%02u:%s", I, V,
                         Specs[I % Specs.size()].Name.c_str())));
        T.Agg->ingest(T.Ids[I][V], Msgs[I % Msgs.size()]);
      }
  }
  // Every distinct key now holds one cell or one overflow entry.
  Aggregator::Stats Filled = Tables[0].Agg->stats();
  uint64_t Keys = Filled.CellsClaimed + Filled.OverflowKeys;

  // One round: fixed work per client -- every sender performs exactly
  // IngestsPerClient ingests, and the round ends when the LAST sender
  // finishes. A fixed-duration free-for-all would overweight whichever
  // clients' keys happen to be cell-resident (they complete more,
  // cheaper, iterations); fixed work charges every configuration for
  // its slowest traffic. Decay and queries run concurrently, as they
  // would on a live server: one pass as the round starts, then one per
  // QueryPeriod until the last sender finishes.
  uint64_t MergesPerRound = 0;
  auto Round = [&](size_t Config) {
    BenchTable &T = Tables[Config];
    Aggregator &Agg = *T.Agg;
    Aggregator::Stats Before = Agg.stats();
    std::mutex M;
    std::condition_variable Cv;
    unsigned Done = 0;
    std::vector<std::thread> Senders;
    for (unsigned I = 0; I < BenchClients; ++I)
      Senders.emplace_back([&, I] {
        for (uint64_t Rep = 0; Rep < IngestsPerClient; ++Rep)
          Agg.ingest(T.Ids[I][Rep % BenchIdentities], Msgs[I % Msgs.size()]);
        std::lock_guard<std::mutex> L(M);
        if (++Done == BenchClients)
          Cv.notify_one();
      });
    uint64_t Queries = 0;
    auto MsSince = [](std::chrono::steady_clock::time_point T) {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T)
          .count();
    };
    std::unique_lock<std::mutex> L(M);
    do {
      L.unlock();
      auto T0 = std::chrono::steady_clock::now();
      Agg.decay();
      T.DecayMs.push_back(MsSince(T0));
      T0 = std::chrono::steady_clock::now();
      (void)Agg.hottestPaths(16);
      T.QueryMs.push_back(MsSince(T0));
      ++Queries;
      L.lock();
    } while (
        !Cv.wait_for(L, QueryPeriod, [&] { return Done == BenchClients; }));
    L.unlock();
    for (std::thread &S : Senders)
      S.join();
    Aggregator::Stats A = Agg.stats();
    uint64_t Merges = A.Merges - Before.Merges;
    if (MergesPerRound == 0)
      MergesPerRound = Merges;
    if (Merges != MergesPerRound) {
      fprintf(stderr, "error: shards=%u round merged %llu, expected %llu\n",
              BenchShards[Config], (unsigned long long)Merges,
              (unsigned long long)MergesPerRound);
      exit(1);
    }
    T.FastFraction.push_back(
        static_cast<double>(A.FastMerges - Before.FastMerges) /
        static_cast<double>(Merges));
    T.OverflowKeys.push_back(static_cast<double>(A.OverflowKeys));
    T.DecayPasses.push_back(static_cast<double>(Queries));
  };
  std::vector<std::function<void()>> Variants;
  for (size_t C = 0; C < NumConfigs; ++C)
    Variants.push_back([&, C] { Round(C); });
  bench::Samples S = bench::measure(Variants, BenchWarmup, BenchReps);

  printf("%-8s %14s %10s %8s %12s %8s %10s %10s\n", "shards", "merges/sec",
         "iqr", "fast%", "overflow", "decays", "decay-ms", "query-ms");
  for (size_t C = 0; C < NumConfigs; ++C) {
    bench::Spread Rate = S.rate(C, static_cast<double>(MergesPerRound));
    bench::Spread Fast = bench::spreadOf(Tables[C].FastFraction);
    bench::Spread Overflow = bench::spreadOf(Tables[C].OverflowKeys);
    bench::Spread Decay = bench::spreadOf(Tables[C].DecayMs);
    bench::Spread Query = bench::spreadOf(Tables[C].QueryMs);
    std::string Prefix = formatString("serve.bench.shards%u", BenchShards[C]);
    bench::publish(Prefix + ".merges_per_sec", Rate);
    bench::publish(Prefix + ".fast_fraction", Fast);
    bench::publish(Prefix + ".overflow_keys", Overflow);
    bench::publish(Prefix + ".decay_ms", Decay);
    bench::publish(Prefix + ".query_ms", Query);
    printf("%-8u %14.0f %10.0f %7.1f%% %12.0f %8.0f %10.2f %10.2f\n",
           BenchShards[C], Rate.Median, Rate.Iqr, 100.0 * Fast.Median,
           Overflow.Median, bench::spreadOf(Tables[C].DecayPasses).Median,
           Decay.Median, Query.Median);
  }
  bench::Spread Scaling = S.ratio(0, NumConfigs - 1);
  bench::publish("serve.bench.scaling_max_vs_1", Scaling);
  printf("scaling %u-shard vs 1-shard: %.2fx (iqr %.2f)\n",
         BenchShards[NumConfigs - 1], Scaling.Median, Scaling.Iqr);

  obs::gauge("serve.bench.clients").set(BenchClients);
  obs::gauge("serve.bench.variants").set(BenchIdentities);
  obs::gauge("serve.bench.ingests_per_client")
      .set(static_cast<double>(IngestsPerClient));
  obs::gauge("serve.bench.reps").set(BenchReps);
  obs::gauge("serve.bench.keys").set(static_cast<double>(Keys));
  obs::gauge("serve.bench.cells_per_shard").set(BenchCells);
  obs::gauge("serve.bench.max_probes").set(BenchProbes);
  bench::writeReport(OutPath, "serve.");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  Flags F(Argc, Argv);
  if (Cmd == "serve")
    return cmdServe(F);
  if (Cmd == "client")
    return cmdClient(F);
  if (Cmd == "oracle")
    return cmdOracle(F);
  if (Cmd == "bench")
    return cmdBench(F);
  return usage();
}
