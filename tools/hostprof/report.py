#!/usr/bin/env python3
"""Symbolise a hostprof profile: percent of samples by symbol.

    report.py <profile> <binary> [--top N] [--workload-only] [--split-libc]
              [--atomics]

Addresses are mapped back through the profile's /proc/self/maps lines to the
binary's own (`nm -C -n --defined-only`) symbols; samples in other mappings
are counted under the mapping's name. --workload-only drops the benchmark's
speed probe, about 30 % of any xkbench run and none of the workload: the
`xkbench::probe::*` symbols, and every function whose direct references in
the binary's code (calls, tail jumps, address loads; `objdump -d`) all come
from dropped symbols — the `HashMap::insert` the probe calls 800,000 times a
probe, the SipHash `BuildHasher::hash_one` behind it. This works by address,
so an instantiation the workload shares keeps its samples even though nm
prints every instantiation under one name; a function reached only through a
vtable has no direct reference and is kept. It cannot drop the `libc` samples
the probe causes: a flat profile does not say who called `malloc`.

--split-libc breaks the `[libc.so.6]` line down by the nearest symbol libc
exports (`nm -D`; its own symbol table is stripped) into the allocator —
`malloc` ... `malloc_info`, and `__default_morecore`, the last export before
the allocator's unexported `_int_malloc`, `_int_free`, `malloc_consolidate` —
the `mem*` routines, and the rest. The `mem*` routines are reached through
IFUNCs whose targets are not exported either; this process runs the same libc
on the same CPU, so it asks its own copy where each one resolved to.

--atomics reports the share of samples whose *preceding* instruction in the
binary is `lock`-prefixed or an `xchg` with a memory operand (implicitly
locked), by symbol. A sampled PC is the next instruction to run, and a locked
read-modify-write is slow enough that the sample lands just after it, so this
is what reference counts and atomic counters cost. It reads the binary's
instructions with `objdump -d`; the share is of the same total as the table
above (so --workload-only excludes the probe here too).
"""
import argparse
import bisect
import collections
import ctypes
import os
import re
import subprocess

PROBE = re.compile(r"xkbench::probe::")
ALLOCATOR = re.compile(
    r"^(__default_morecore|(__libc_)?(malloc|free|realloc|calloc|memalign)|cfree|aligned_alloc"
    r"|p?valloc|posix_memalign|malloc_(trim|usable_size|stats|info)|mallinfo2?|mallopt)$")
MEM = re.compile(r"^(__)?(w?mem|bcopy|bzero|bcmp)")


def libc_symbols(path):
    """(offset, name) of what libc exports, IFUNCs replaced by their targets."""
    nm = subprocess.run(["nm", "-D", "-n", "--defined-only", path],
                        check=True, capture_output=True, text=True).stdout
    rows = [l.split(" ", 2) for l in nm.splitlines() if l.count(" ") >= 2]
    syms = {int(a, 16): n.split("@")[0] for a, kind, n in rows if kind in "tTwW"}
    with open("/proc/self/maps") as f:
        mine = [l.split() for l in f if l.rstrip().endswith(path)]
    if mine:  # the profiled program's libc is the one loaded here
        base = min(int(m[0].split("-")[0], 16) for m in mine)
        lib = ctypes.CDLL(path)
        for name in sorted({n.split("@")[0] for _, kind, n in rows if kind == "i"}):
            try:
                target = ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
            except AttributeError:
                continue
            syms.setdefault(target - base, name)
    return sorted(syms.items())


def kind_of(name):
    return "allocator" if ALLOCATOR.match(name) else "mem*" if MEM.match(name) else "other"


def split_libc(offsets, path, total, top):
    syms = libc_symbols(path)
    addrs = [a for a, _ in syms]
    near = collections.Counter(
        syms[max(bisect.bisect_right(addrs, off) - 1, 0)][1] for off in offsets)
    print(f"\n[libc.so.6] by nearest exported symbol ({len(offsets)} samples):")
    for kind in ("allocator", "mem*", "other"):
        names = [(s, n) for s, n in near.most_common() if kind_of(s) == kind]
        n = sum(n for _, n in names)
        print(f"{100 * n / total:6.2f}%  {n:6d}  {kind}: "
              + ", ".join(f"{s} {n}" for s, n in names[:top]))
    print("A flat profile cannot tell the probe's allocator and memcpy time from the\n"
          "workload's: --workload-only drops the xkbench::probe::* symbols, not the libc\n"
          "samples they cause, so these shares are upper bounds on the workload's.\n"
          "A sample in the unexported code just before __default_morecore lands on\n"
          "whatever libc exports before it (here timer_settime): likely allocator too.")


INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S.*)$")
# A direct target: `call 3c4f0 <sym>`, `jmp ...`, or `lea ..., %rdi  # 3c4f0 <sym>`.
TARGET = re.compile(r"(?:^\S+\s+|# )([0-9a-f]+) <")


def disassemble(binary):
    """[(address, instruction text)] of the binary's code, in address order."""
    dump = subprocess.run(["objdump", "-d", "--no-show-raw-insn", binary],
                          check=True, capture_output=True, text=True).stdout
    return [(int(m.group(1), 16), m.group(2))
            for m in map(INSN.match, dump.splitlines()) if m]


def locked_after(insns):
    """(sorted instruction addresses, the set of those right after a locked one)."""
    addrs, after, prev_locked = [], set(), False
    for addr, text in insns:
        if prev_locked:
            after.add(addr)
        addrs.append(addr)
        op, _, operands = text.partition(" ")
        prev_locked = op == "lock" or (op.startswith("xchg") and "(" in operands)
    return addrs, after


def probe_only(insns, syms):
    """Start addresses of the probe's symbols and of every function whose
    direct references all lie in those, to a fixed point."""
    starts = [a for a, _ in syms]
    entries = set(starts)
    callers = collections.defaultdict(set)  # function start -> referencing starts
    for addr, text in insns:
        m = TARGET.search(text)
        target = int(m.group(1), 16) if m else None
        if target not in entries:
            continue
        caller = starts[bisect.bisect_right(starts, addr) - 1]
        if caller != target:
            callers[target].add(caller)
    dropped = {a for a, name in syms if PROBE.search(name)}
    grew = True
    while grew:
        more = {t for t, c in callers.items() if t not in dropped and c <= dropped}
        dropped |= more
        grew = bool(more)
    return dropped


def report_atomics(offsets, insns, syms, total, dropped, top):
    """The samples that landed right after a locked instruction, by symbol."""
    addrs, after = locked_after(insns)
    sym_addrs = [a for a, _ in syms]
    hits = collections.Counter()
    for off in offsets:
        i = bisect.bisect_right(addrs, off) - 1
        if i < 0 or addrs[i] not in after:
            continue
        j = bisect.bisect_right(sym_addrs, off) - 1
        if j >= 0 and syms[j][0] in dropped:
            continue
        hits[syms[j][1] if j >= 0 else "[before first symbol]"] += 1
    n = sum(hits.values())
    share = 100 * n / total if total else 0.0
    print(f"\natomics: {share:.2f}% of samples ({n} of {total}) follow a locked instruction")
    for sym, k in hits.most_common(top):
        print(f"{100 * k / total:6.2f}%  {k:6d}  {sym}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--workload-only", action="store_true")
    ap.add_argument("--split-libc", action="store_true")
    ap.add_argument("--atomics", action="store_true")
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
    insns = disassemble(binary) if args.workload_only or args.atomics else []
    dropped = probe_only(insns, syms) if args.workload_only else set()

    counts = collections.Counter()
    libc = collections.defaultdict(list)  # path -> offsets of the samples in it
    own = []  # offsets of the samples in the binary
    for pc in samples:
        path = next((p for lo, hi, p in maps if lo <= pc < hi), "[unmapped]")
        if os.path.basename(path).startswith("libc.so"):
            libc[path].append(pc - min(lo for lo, _, p in maps if p == path))
        if path == binary:
            own.append(pc - base)
            i = bisect.bisect_right(addrs, pc - base) - 1
            if i >= 0 and syms[i][0] in dropped:
                continue
            counts[syms[i][1] if i >= 0 else "[before first symbol]"] += 1
        else:
            counts["[" + os.path.basename(path) + "]"] += 1

    total = sum(counts.values())
    print(f"{total} samples ({len(samples)} taken), {len(counts)} symbols")
    for sym, n in counts.most_common(args.top):
        print(f"{100 * n / total:6.2f}%  {n:6d}  {sym}")
    if args.split_libc:
        for path, offsets in libc.items():
            split_libc(offsets, path, total, top=6)
    if args.atomics:
        report_atomics(own, insns, syms, total, dropped, args.top)


if __name__ == "__main__":
    main()
