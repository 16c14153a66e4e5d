//===- bench/Measure.cpp - The one wall-clock measurement loop ------------===//

#include "Measure.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// Linear-interpolated quantile \p Q of sorted, non-empty \p V.
double quantile(const std::vector<double> &V, double Q) {
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

} // namespace

Spread ppp::bench::spreadOf(std::vector<double> Samples) {
  if (Samples.empty())
    return {};
  std::sort(Samples.begin(), Samples.end());
  return {quantile(Samples, 0.5),
          quantile(Samples, 0.75) - quantile(Samples, 0.25), Samples.size()};
}

Spread ppp::bench::meanOf(const std::vector<Spread> &Spreads) {
  Spread Out;
  for (const Spread &S : Spreads) {
    Out.Median += S.Median;
    Out.Iqr += S.Iqr;
    Out.N = Out.N == 0 ? S.N : std::min(Out.N, S.N);
  }
  if (!Spreads.empty()) {
    Out.Median /= static_cast<double>(Spreads.size());
    Out.Iqr /= static_cast<double>(Spreads.size());
  }
  return Out;
}

Spread Samples::time(size_t V, double Scale) const {
  std::vector<double> Scaled;
  for (double S : Secs[V])
    Scaled.push_back(S * Scale);
  return spreadOf(std::move(Scaled));
}

Spread Samples::rate(size_t V, double Work) const {
  std::vector<double> Rates;
  for (double S : Secs[V])
    if (S > 0)
      Rates.push_back(Work / S);
  return spreadOf(std::move(Rates));
}

Spread Samples::ratio(size_t V, size_t Base) const {
  std::vector<double> Ratios;
  for (size_t I = 0; I < Secs[V].size() && I < Secs[Base].size(); ++I)
    if (Secs[Base][I] > 0)
      Ratios.push_back(Secs[V][I] / Secs[Base][I]);
  return spreadOf(std::move(Ratios));
}

std::vector<size_t> ppp::bench::mirroredOrder(size_t NumVariants,
                                              unsigned HalfRounds) {
  std::vector<size_t> Order;
  for (unsigned H = 0; H < HalfRounds; ++H)
    for (size_t I = 0; I < NumVariants; ++I)
      Order.push_back(H % 2 == 0 ? I : NumVariants - 1 - I);
  return Order;
}

Samples ppp::bench::measure(const std::vector<std::function<void()>> &Variants,
                            unsigned Warmup, unsigned Reps) {
  for (size_t V : mirroredOrder(Variants.size(), Warmup))
    Variants[V]();
  using Clock = std::chrono::steady_clock;
  Samples Out;
  Out.Secs.resize(Variants.size());
  for (size_t V : mirroredOrder(Variants.size(), Reps)) {
    Variants[V](); // The block's untimed lead call.
    Clock::time_point Begin = Clock::now();
    Variants[V]();
    Out.Secs[V].push_back(
        std::chrono::duration<double>(Clock::now() - Begin).count());
  }
  return Out;
}

void ppp::bench::publish(const std::string &Key, const Spread &S) {
  obs::gauge(Key).set(S.Median);
  obs::gauge(Key + ".iqr").set(S.Iqr);
  obs::gauge(Key + ".n").set(static_cast<double>(S.N));
}

namespace {

/// N from an argument `--reps=N` with 1 <= N <= 1e6, else 0.
unsigned repsValue(const char *Arg) {
  if (std::strncmp(Arg, "--reps=", 7) != 0 ||
      !std::isdigit(static_cast<unsigned char>(Arg[7])))
    return 0;
  errno = 0;
  char *End = nullptr;
  unsigned long N = std::strtoul(Arg + 7, &End, 10);
  return *End == '\0' && errno == 0 && N <= 1'000'000
             ? static_cast<unsigned>(N)
             : 0;
}

} // namespace

bool ppp::bench::jsonFlag(int Argc, char **Argv, std::string &Path,
                          unsigned *Reps) {
  bool Json = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0) {
      Json = true;
    } else if (std::strncmp(Argv[I], "--json=", 7) == 0) {
      Json = true;
      Path = Argv[I] + 7;
    } else if (unsigned N = Reps ? repsValue(Argv[I]) : 0) {
      *Reps = N;
    } else {
      const char *Slash = std::strrchr(Argv[0], '/');
      fprintf(stderr, "usage: %s [--json[=PATH]]%s\n",
              Slash ? Slash + 1 : Argv[0], Reps ? " [--reps=N]" : "");
      exit(2);
    }
  }
  return Json;
}

void ppp::bench::writeReport(const std::string &Path,
                             const std::string &Prefix) {
  std::string Error;
  if (!obs::writeMetricsJson(Path, Prefix, &Error)) {
    fprintf(stderr, "error: %s\n", Error.c_str());
    exit(1);
  }
  printf("\nwrote %s\n", Path.c_str());
}
