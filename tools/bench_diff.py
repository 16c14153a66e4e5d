#!/usr/bin/env python3
"""Compare two ppp-metrics-v1 JSON files (PPP_METRICS run reports or
BENCH_*.json trajectory files -- same schema, same serializer).

Usage:
  tools/bench_diff.py OLD.json NEW.json
      Print every key whose value changed, with relative deltas. Exit 0.

  tools/bench_diff.py --keys k1,k2,... OLD.json NEW.json
      Check only the named keys (globs: '*' matches any run of
      characters) and exit 1 if any moved, in either direction (a big
      move either way on a watched key deserves a look): by more than a
      10% floor and -- when both files carry the key's spread, as the
      <key>.iqr and <key>.n (sample count) that bench/Measure.h
      publishes beside every wall-clock median -- by more than 3x the
      larger IQR/sqrt(n), the spread of the median rather than of one
      sample. The .iqr and .n keys themselves are never gated.

      Keys present in only one snapshot are reported as new/gone but do
      not fail the gate: growing a benchmark (a new serve.bench.* gauge,
      say) must not break an older baseline, and retiring one must not
      require editing every CI invocation first. A pattern that matches
      nothing in either file is noted and skipped for the same reason.

  tools/bench_diff.py --gate NAME OLD.json NEW.json
      Shorthand for the committed trajectory files: NAME picks the key
      patterns for one of the tracked BENCH_*.json baselines
      (throughput, served, adapt); --keys overrides them.

  tools/bench_diff.py --self-test
      Run the built-in unit checks against generated fixtures; exit 0
      iff all pass.

Histograms are flattened to <name>.count and <name>.sum. No third-party
dependencies; stdlib json only.
"""

import argparse
import fnmatch
import json
import math
import os
import sys
import tempfile

# Gated key patterns, one per committed BENCH_*.json file.
GATES = {
    # The suite averages, the counter-operation ratios, and per benchmark
    # the trace backend's columns with the clean rate they are taken
    # against.
    "throughput": ("throughput.average.*,throughput.counters.*_ratio,"
                   "throughput.reps,throughput.bench.*.clean_mips,"
                   "throughput.bench.*.record_*,throughput.bench.*.decode_*,"
                   "throughput.bench.*.bytes_per_event,"
                   "throughput.bench.*.events,throughput.bench.*.chunks"),
    "served": "serve.bench.*",
    "adapt": "adapt.average.*,adapt.bench.*,adapt.accept.*",
}

# The one gating rule: a key fails only past the floor, and past
# IQR_MULT times the larger spread of the median, IQR / sqrt(n), when
# both files carry one.
FLOOR_PCT = 10.0
IQR_MULT = 3.0
SPREAD_SUFFIXES = (".iqr", ".n")


def flatten(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "ppp-metrics-v1":
        sys.exit(f"error: {path}: expected schema ppp-metrics-v1, "
                 f"got {doc.get('schema')!r}")
    flat = {}
    for section in ("counters", "gauges"):
        for name, value in doc.get(section, {}).items():
            flat[name] = float(value)
    for name, histo in doc.get("histograms", {}).items():
        flat[f"{name}.count"] = float(histo.get("count", 0))
        flat[f"{name}.sum"] = float(histo.get("sum", 0))
    return flat


def rel_change(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return float("inf")
    return (new - old) / abs(old) * 100.0


def fmt_change(pct):
    return "new" if pct == float("inf") else f"{pct:+.1f}%"


def select(flat_keys, patterns, out=sys.stderr):
    chosen = set()
    for pat in patterns:
        hits = {k for k in flat_keys if fnmatch.fnmatchcase(k, pat)}
        if not hits:
            print(f"note: key '{pat}' matches nothing in either file; "
                  f"skipped", file=out)
            continue
        chosen |= hits
    return sorted(chosen)


def moved(key, old, new):
    """Why `key` fails the gate rule, or None when it holds."""
    pct = rel_change(old[key], new[key])
    if abs(pct) <= FLOOR_PCT:
        return None
    spread = [f[key + ".iqr"] / math.sqrt(f[key + ".n"])
              for f in (old, new)
              if key + ".iqr" in f and f.get(key + ".n", 0) > 0]
    if len(spread) < 2:
        return fmt_change(pct)
    tolerance = IQR_MULT * max(spread)
    if abs(new[key] - old[key]) <= tolerance:
        return None
    return (f"{fmt_change(pct)}, beyond {IQR_MULT:g}x IQR/sqrt(n) "
            f"({tolerance:g})")


def row(k, old, new, width, tag=""):
    """One report line; a key missing on one side shows as new/gone."""
    o = f"{old[k]:>14g}" if k in old else f"{'-':>14}"
    n = f"{new[k]:>14g}" if k in new else f"{'-':>14}"
    change = ("new" if k not in old else "gone" if k not in new
              else fmt_change(rel_change(old[k], new[k])))
    return f"{k:<{width}}  {o}  {n}  {change:>8}{tag}"


def run(args, out=sys.stdout, err=sys.stderr):
    old = flatten(args.old)
    new = flatten(args.new)
    width = max((len(k) for k in set(old) | set(new)), default=4)

    if args.keys:
        patterns = [k.strip() for k in args.keys.split(",") if k.strip()]
        keys = [k for k in select(set(old) | set(new), patterns, out=err)
                if not k.endswith(SPREAD_SUFFIXES)]
        failed = []
        checked = 0
        for k in keys:
            # One-sided keys are informational, never gate failures.
            why = None
            if k in old and k in new:
                checked += 1
                why = moved(k, old, new)
            if why:
                failed.append((k, why))
            print(row(k, old, new, width, "  FLAGGED" if why else ""),
                  file=out)
        if failed:
            print(f"\n{len(failed)} of {checked} compared key(s) moved "
                  f"more than {FLOOR_PCT:g}% and {IQR_MULT:g}x IQR/sqrt(n) "
                  f"({checked - len(failed)} within tolerance):", file=err)
            for k, why in failed:
                print(f"  {k}: {why}", file=err)
            return 1
        print(f"\nok: {checked} comparable key(s) within {FLOOR_PCT:g}% "
              f"or {IQR_MULT:g}x IQR/sqrt(n)", file=out)
        return 0

    changed = [k for k in sorted(set(old) | set(new))
               if old.get(k) != new.get(k)]
    for k in changed:
        print(row(k, old, new, width), file=out)
    print(f"\n{len(changed)} key(s) changed", file=out)
    return 0


def self_test():
    """Unit checks over generated fixtures: the gate rule, tolerance of
    one-sided keys, empty patterns, and histogram flattening."""
    import io

    def metrics(counters=None, gauges=None, histograms=None):
        return {"schema": "ppp-metrics-v1",
                "counters": counters or {},
                "gauges": gauges or {},
                "histograms": histograms or {}}

    def write(doc, directory, name):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(old_doc, new_doc, keys):
        with tempfile.TemporaryDirectory() as d:
            ns = argparse.Namespace(old=write(old_doc, d, "old.json"),
                                    new=write(new_doc, d, "new.json"),
                                    keys=keys)
            out, err = io.StringIO(), io.StringIO()
            rc = run(ns, out=out, err=err)
            return rc, out.getvalue(), err.getvalue()

    base = metrics(gauges={"serve.bench.shards1.merges_per_sec": 1000.0,
                           "serve.bench.shards8.merges_per_sec": 4000.0},
                   counters={"serve.merge.entries": 500},
                   histograms={"serve.query.ns": {"count": 9, "sum": 900}})

    checks = []

    def check(name, cond):
        checks.append((name, cond))

    # 1. Identical snapshots pass; a move inside the floor passes.
    rc, out, _ = gate(base, base, "serve.*")
    check("identical snapshots pass", rc == 0 and "ok:" in out)
    drift = metrics(gauges={"serve.bench.shards1.merges_per_sec": 1050.0,
                            "serve.bench.shards8.merges_per_sec": 4100.0},
                    counters={"serve.merge.entries": 500},
                    histograms={"serve.query.ns": {"count": 9, "sum": 900}})
    rc, _, _ = gate(base, drift, "serve.*")
    check("drift inside the floor passes", rc == 0)

    # 2. The gate rule on a median carrying its spread: a 20% move
    #    passes when 3x the larger IQR/sqrt(n) covers it, fails when it
    #    does not, and falls back to the floor when either file lacks
    #    the spread.
    def spread(key, median, iqr=None, n=None):
        out = {key: median}
        if iqr is not None:
            out[key + ".iqr"] = iqr
        if n is not None:
            out[key + ".n"] = n
        return out

    def mips(value, old_iqr=None, new_iqr=None, n=4):
        key = "throughput.average.clean_mips"
        return gate(metrics(gauges=spread(key, 300.0, old_iqr,
                                          n if old_iqr else None)),
                    metrics(gauges=spread(key, value, new_iqr,
                                          n if new_iqr else None)),
                    "throughput.average.*")

    rc, _, _ = mips(360.0, old_iqr=15.0, new_iqr=50.0)
    check("move inside 3x IQR/sqrt(n) passes", rc == 0)
    rc, _, err = mips(360.0, old_iqr=15.0, new_iqr=5.0)
    check("move past floor and 3x IQR/sqrt(n) fails",
          rc == 1 and "beyond 3x IQR/sqrt(n)" in err)
    rc, _, err = mips(360.0)
    check("key without IQR fails past the floor",
          rc == 1 and "moved more than" in err)
    rc, _, _ = mips(320.0)
    check("key without IQR passes inside the floor", rc == 0)
    rc, _, err = mips(360.0, old_iqr=100.0)
    check("IQR in one file only falls back to the floor",
          rc == 1 and "beyond" not in err)
    rc, out, _ = mips(301.0, old_iqr=15.0, new_iqr=45.0)
    check("IQR and n keys are never gated themselves",
          rc == 0 and "ok: 1 comparable" in out)
    # A per-sample IQR excuses little once many samples back the
    # median: PPP's overhead ratio doubling fails, and so does its
    # overhead growing tenfold (1.03 -> 1.30, the paper's PP level),
    # which 3x the per-sample IQR would have covered.
    ratio = "throughput.average.ppp_instr_ratio"
    for name, new_median, new_iqr in (("2x ratio move", 2.06, 0.18),
                                      ("tenfold overhead", 1.30, 0.092)):
        rc, _, err = gate(metrics(gauges=spread(ratio, 1.03, 0.092, 40)),
                          metrics(gauges=spread(ratio, new_median, new_iqr,
                                                40)),
                          "throughput.average.*")
        check(f"{name} with typical per-sample IQR fails",
              rc == 1 and ratio + ":" in err)

    # 3. Keys present in only one snapshot are tolerated (new gauge
    #    appears, old one retired) -- reported but rc 0.
    grown = metrics(gauges={"serve.bench.shards8.merges_per_sec": 4000.0,
                            "serve.bench.scaling_max_vs_1": 4.0},
                    counters={"serve.merge.entries": 500},
                    histograms={"serve.query.ns": {"count": 9, "sum": 900}})
    rc, out, _ = gate(base, grown, "serve.*")
    check("one-sided keys tolerated", rc == 0 and "new" in out
          and "gone" in out)

    # 4. A pattern matching nothing is noted and skipped, not an error.
    rc, _, err = gate(base, base, "serve.*,nosuch.*,alsonothere")
    check("empty pattern skipped", rc == 0 and err.count("matches nothing")
          == 2)

    # 5. Histogram flattening gates on .count/.sum.
    hist = metrics(histograms={"serve.query.ns": {"count": 90, "sum": 900}})
    rc, _, _ = gate(base, hist, "serve.query.ns.count")
    check("histogram count gates", rc == 1)

    # 6. Every named preset is a non-empty pattern list.
    check("gate presets well-formed",
          all(p.strip() for p in GATES.values()) and set(GATES) ==
          {"throughput", "served", "adapt"})

    def named(old_gauges, new_gauges, name):
        return gate(metrics(gauges=old_gauges), metrics(gauges=new_gauges),
                    GATES[name])

    # 6a. The throughput gate over the trace backend's keys: steady
    #     numbers pass, a decode-throughput collapse fails, and a
    #     benchmark added to the suite does not break the older
    #     baseline. A counter-operation ratio regressing past the bound
    #     fails too.
    trace_base = {
        **spread("throughput.bench.mcf.record_mips", 120.0, 6.0, 40),
        **spread("throughput.bench.mcf.decode_eps_j4", 6.0e7, 6e6, 20),
        **spread("throughput.average.decode_eps_j4", 6.0e7, 6e6, 20),
        **spread("throughput.counters.hash_array_ratio", 1.80, 0.05, 40),
        "throughput.bench.mcf.bytes_per_event": 0.18}
    rc, out, _ = named(trace_base, trace_base, "throughput")
    check("throughput gate: steady run passes", rc == 0 and "ok:" in out)
    collapsed = {
        **trace_base,
        **spread("throughput.bench.mcf.decode_eps_j4", 2.0e7, 2e6, 20),
        **spread("throughput.average.decode_eps_j4", 2.0e7, 2e6, 20)}
    rc, _, err = named(trace_base, collapsed, "throughput")
    check("throughput gate: decode collapse fails",
          rc == 1 and "decode_eps_j4" in err)
    grown_trace = {**trace_base,
                   **spread("throughput.bench.vpr.record_mips", 90.0, 4.0,
                            40)}
    rc, out, _ = named(trace_base, grown_trace, "throughput")
    check("throughput gate: new benchmark tolerated",
          rc == 0 and "new" in out)
    dearer_hash = {**trace_base,
                   **spread("throughput.counters.hash_array_ratio", 2.50,
                            0.05, 40)}
    rc, _, err = named(trace_base, dearer_hash, "throughput")
    check("throughput gate: counter ratio regression fails",
          rc == 1 and "hash_array_ratio" in err)

    # 6b. The adapt gate: a steady static/adaptive ratio passes, losing
    #     the adaptive win (ratio collapse) fails.
    adapt_base = {**spread("adapt.bench.phased_ab.ratio", 1.12, 0.05, 6),
                  **spread("adapt.average.best_phased_ratio", 1.12, 0.05, 6),
                  "adapt.bench.phased_ab.versions_installed": 3.0}
    rc, out, _ = named(adapt_base, adapt_base, "adapt")
    check("adapt gate: steady run passes", rc == 0 and "ok:" in out)
    lost_win = {**adapt_base,
                **spread("adapt.bench.phased_ab.ratio", 0.80, 0.05, 6),
                **spread("adapt.average.best_phased_ratio", 0.80, 0.05, 6)}
    rc, _, err = named(adapt_base, lost_win, "adapt")
    check("adapt gate: ratio collapse fails",
          rc == 1 and "best_phased_ratio" in err)

    # 6c. The adapt gate's acceptance keys: picks_differ dropping to 0
    #     (both controllers picking the same candidate on the skewed
    #     subject) is a -100% move, so it always trips; a move outside
    #     the preset's patterns is ignored.
    accept_base = {"adapt.accept.picks_differ": 1.0,
                   "adapt.bench.skewed.steady_cost_ratio": 1.02,
                   "throughput.bench.x.record_mips": 100.0}
    lost_pick = {**accept_base, "adapt.accept.picks_differ": 0.0}
    rc, _, err = named(accept_base, lost_pick, "adapt")
    check("adapt gate: lost pick separation fails",
          rc == 1 and "picks_differ" in err)
    elsewhere = {**accept_base, "throughput.bench.x.record_mips": 200.0}
    rc, _, _ = named(accept_base, elsewhere, "adapt")
    check("named gate ignores other keys", rc == 0)

    # 6d. '*' matches mid-key too.
    rc, _, err = gate(metrics(gauges={"serve.bench.shards1.fast_fraction":
                                      0.17}),
                      metrics(gauges={"serve.bench.shards1.fast_fraction":
                                      0.5}),
                      "serve.bench.shards*.fast_fraction")
    check("mid-key glob gates", rc == 1 and "fast_fraction" in err)

    # 7. Report-only mode never fails.
    with tempfile.TemporaryDirectory() as d:
        ns = argparse.Namespace(old=write(base, d, "o.json"),
                                new=write(grown, d, "n.json"), keys="")
        out = io.StringIO()
        rc = run(ns, out=out, err=out)
        check("report mode exits 0", rc == 0 and "changed" in out.getvalue())

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"self-test: {len(failed)}/{len(checks)} checks failed",
              file=sys.stderr)
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--keys", default="",
                    help="comma-separated keys to gate on ('*' matches "
                         "any run of characters); without this, "
                         "report-only mode")
    ap.add_argument("--gate", choices=sorted(GATES),
                    help="named key patterns for a committed BENCH_*.json "
                         "baseline, unless --keys is given")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.gate:
        args.keys = args.keys or GATES[args.gate]
    if not args.old or not args.new:
        ap.error("OLD and NEW metrics files are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
