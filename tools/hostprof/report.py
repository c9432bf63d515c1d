#!/usr/bin/env python3
"""Symbolise a hostprof profile: percent of samples by symbol.

    report.py <profile> <binary> [--top N] [--workload-only]

Addresses are mapped back through the profile's /proc/self/maps lines to the
binary's own (`nm -C -n --defined-only`) symbols; samples in other mappings
are counted under the mapping's name. --workload-only drops the benchmark's
speed probe, about 30 % of any xkbench run and none of the workload:
`xkbench::probe::run` and the `HashMap::insert` it calls 800,000 times a
probe (nm prints every instantiation under one name; the workloads' tables
insert once per session, not per call).
"""
import argparse
import bisect
import collections
import os
import re
import subprocess

PROBE = re.compile(r"xkbench::probe::|^hashbrown::map::HashMap<K,V,S,A>::insert$")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--workload-only", action="store_true")
    args = ap.parse_args()

    maps, samples = [], []
    with open(args.profile) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "S":
                samples.append(int(rest, 16))
            elif kind == "M":
                fields = rest.split()
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, fields[5] if len(fields) > 5 else "[anon]"))
    binary = os.path.realpath(args.binary)
    # A PIE's first mapping is file offset 0, which nm's addresses count from.
    base = min(lo for lo, _, path in maps if path == binary)

    nm = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                        check=True, capture_output=True, text=True).stdout
    syms = [(int(a, 16), name) for a, kind, name in
            (l.split(" ", 2) for l in nm.splitlines() if l.count(" ") >= 2)
            if kind in "tTwW"]
    addrs = [a for a, _ in syms]

    counts = collections.Counter()
    for pc in samples:
        path = next((p for lo, hi, p in maps if lo <= pc < hi), "[unmapped]")
        if path == binary:
            i = bisect.bisect_right(addrs, pc - base) - 1
            counts[syms[i][1] if i >= 0 else "[before first symbol]"] += 1
        else:
            counts["[" + os.path.basename(path) + "]"] += 1
    if args.workload_only:
        counts = collections.Counter({s: n for s, n in counts.items() if not PROBE.search(s)})

    total = sum(counts.values())
    print(f"{total} samples ({len(samples)} taken), {len(counts)} symbols")
    for sym, n in counts.most_common(args.top):
        print(f"{100 * n / total:6.2f}%  {n:6d}  {sym}")


if __name__ == "__main__":
    main()
