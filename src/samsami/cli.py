"""Command-line front end: build, query, stats, and benchmark."""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import persistence, stats, variants
from .errors import PatternTooShort, SamsamiError
from .minimizer import SamplingParams

# the canonical (q, p) evaluation grid for sampling-ratio reports
DEFAULT_PAIRS = [
    (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (8, 1), (8, 2),
    (10, 1), (10, 2), (10, 3), (12, 1), (12, 2), (12, 3),
    (16, 1), (16, 2), (16, 3), (24, 2), (24, 3), (32, 2), (32, 3),
    (40, 2), (40, 3), (64, 2), (64, 3), (64, 4), (80, 2), (80, 3), (80, 4),
]

# bench runs the first five by default; phrase, which needs m >= 2q-p+1,
# only when named
VARIANTS = ("samsami", "samsami2", "samsami-hash", "spasa", "sa", "phrase")


def _read_text(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _display(pattern: bytes) -> str:
    return pattern.decode("latin-1")


def _collect_patterns(args) -> list[bytes]:
    pats = [os.fsencode(p) for p in args.pattern]
    if args.patterns:
        with open(args.patterns, "rb") as fh:
            for line in fh.read().split(b"\n"):
                line = line.rstrip(b"\r")
                if line:
                    pats.append(line)
    return pats


def splitmix64(seed: int):
    """Deterministic 64-bit stream used for pattern extraction."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def extract_patterns(text: bytes, m: int, count: int, seed: int) -> list[bytes]:
    """count patterns of length m cut from uniform positions of text."""
    n = len(text)
    if m > n:
        raise SamsamiError(f"pattern length {m} exceeds text length {n}")
    gen = splitmix64(seed)
    span = n - m + 1
    out = []
    for _ in range(count):
        start = next(gen) % span  # 0-based
        out.append(text[start:start + m])
    return out


def cmd_build(args) -> int:
    text = _read_text(args.text)
    params = SamplingParams(args.q, args.p)
    variant = args.variant
    bundle = persistence.build_bundle(
        text, params,
        with_delta=(variant == "samsami2"),
        hash_k=(args.k if variant == "samsami-hash" else None),
    )
    nbytes = persistence.save(bundle, args.out)
    idx = bundle.index
    ratio = idx.n_sampled / idx.n
    print(f"{variant}\tq={params.q}\tp={params.p}\tn={idx.n}\t"
          f"n_sampled={idx.n_sampled}\tratio={ratio:.4f}\tbytes={nbytes}")
    return 0


def cmd_phrase_build(args) -> int:
    text = _read_text(args.text)
    params = SamplingParams(args.q, args.p)
    bundle = persistence.build_bundle(text, params, with_phrase=True)
    dict_bytes = sum(len(ph) for ph in bundle.dictionary.phrases)
    stream_bytes = len(bundle.encoded.stream)
    if dict_bytes > stream_bytes:
        print(f"warning: dictionary ({dict_bytes} B) outweighs the stream "
              f"({stream_bytes} B); consider a smaller q", file=sys.stderr)
    nbytes = persistence.save(bundle, args.out)
    print(f"phrase\tq={params.q}\tp={params.p}\tn={bundle.index.n}\t"
          f"phrases={bundle.encoded.phrase_count}\t"
          f"distinct={len(bundle.dictionary.phrases)}\tbytes={nbytes}")
    return 0


def cmd_locate(args, counting: bool = False, name: str | None = None) -> int:
    text = _read_text(args.text)
    variant = variants.from_bundle(persistence.load(args.index, text), name)
    for pattern in _collect_patterns(args):
        shown = _display(pattern)
        try:
            if counting:
                answer = variant.count(pattern)
            else:
                answer = ",".join(str(h) for h in variant.locate(pattern))
        except PatternTooShort as exc:
            print(f"{shown}\tERROR: {exc}")
            continue
        print(f"{shown}\t{answer}")
    return 0


def _parse_pairs(spec: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in spec.split(","):
        parts = chunk.split(":")
        if len(parts) != 2 or not all(s.strip().isdigit() for s in parts):
            raise SamsamiError(f"bad --pairs entry {chunk!r}, expected q:p")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def cmd_stats(args) -> int:
    text = _read_text(args.text)
    if args.mode == "sample-ratio":
        pairs = DEFAULT_PAIRS if not args.pairs else _parse_pairs(args.pairs)
        pairs = [(q, p) for q, p in pairs if q <= len(text)]
        for q, p in pairs:  # a bad pair fails before the header is printed
            SamplingParams(q, p)
        print("q,p,n_sampled,n,percent")
        for q, p, kept, n, pct in stats.sampling_report(text, pairs):
            print(f"{q},{p},{kept},{n},{pct:.4f}")
    else:
        if args.q_list:
            if not all(s.strip().isdigit() and int(s) > 0
                       for s in args.q_list.split(",")):
                raise SamsamiError(f"bad --q-list {args.q_list!r}")
            lengths = [int(v) for v in args.q_list.split(",")]
        else:
            lengths = range(1, 9)
        lengths = [q for q in lengths if q <= len(text)]
        print("q,count")
        for q, cnt in stats.qgram_report(text, lengths):
            print(f"{q},{cnt}")
    return 0


def _nearest_rank(ascending: list[float], percent: int) -> float:
    return ascending[max(1, -(-len(ascending) * percent // 100)) - 1]


def cmd_bench(args) -> int:
    if args.patterns < 1:
        raise SamsamiError(f"--patterns must be at least 1, got {args.patterns}")
    text = _read_text(args.text)
    if args.index:
        bundle = persistence.load(args.index, text)
        names = args.variant.split(",") if args.variant else [None]
        targets = [variants.from_bundle(bundle, name) for name in names]
    else:
        names = args.variant.split(",") if args.variant else VARIANTS[:5]
        for name in names:
            if name not in VARIANTS:
                raise SamsamiError(f"unknown variant {name!r}")
        targets = variants.build_variants(text, names, args.q, args.p,
                                          args.k, args.step)

    for target in targets:
        if args.m < target.min_len:
            raise SamsamiError(f"m={args.m} below the minimum "
                               f"{target.min_len} of {target.name}")
    patterns = extract_patterns(text, args.m, args.patterns, args.seed)
    print("variant,q,p,k,m,patterns,mean_us,p50_us,p99_us,index_bytes,"
          "index_text_ratio,matches_total")
    all_counts = {}
    for target in targets:
        # one untimed query builds the variant's fence list (spasa's
        # heads for step > 1, and the hash's group dict), a one-time
        # cost that would otherwise land in the first timed query
        target.count(patterns[0])
        counts, seconds = [], []
        for pat in patterns:
            t0 = time.perf_counter()
            counts.append(target.count(pat))
            seconds.append(time.perf_counter() - t0)
        all_counts[target.name] = counts
        mean_us = sum(seconds) * 1e6 / len(seconds)
        seconds.sort()
        p50_us, p99_us = (_nearest_rank(seconds, f) * 1e6 for f in (50, 99))
        q, p, k = target.qpk
        ratio = (target.index_bytes + len(text)) / len(text)
        print(f"{target.name},{q},{p},{k},{args.m},{len(patterns)},"
              f"{mean_us:.3f},{p50_us:.3f},{p99_us:.3f},{target.index_bytes},"
              f"{ratio:.4f},{sum(counts)}")

    names = list(all_counts)
    for name in names[1:]:
        if all_counts[name] != all_counts[names[0]]:
            bad = next(i for i, (a, b) in enumerate(
                zip(all_counts[name], all_counts[names[0]])) if a != b)
            print(f"error: {name} and {names[0]} disagree on pattern {bad}",
                  file=sys.stderr)
            return 1
    return 0


def _add_common_query_args(sub):
    sub.add_argument("--index", required=True)
    sub.add_argument("--text", required=True)
    sub.add_argument("--patterns", help="file with one pattern per line")
    sub.add_argument("pattern", nargs="*", help="patterns given inline")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samsami",
        description="Sampled suffix array with minimizers: build, query, "
                    "and benchmark full-text indexes.")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build and save an index")
    b.add_argument("--text", required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--k", type=int, default=4, help="hash prefix length")
    b.add_argument("--variant", default="samsami",
                   choices=["samsami", "samsami2", "samsami-hash"])
    b.add_argument("--out", required=True)

    pb = subs.add_parser("phrase-build", help="build a phrase-compressed index")
    pb.add_argument("--text", required=True)
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--p", type=int, required=True)
    pb.add_argument("--out", required=True)

    loc = subs.add_parser("locate", help="report occurrence positions")
    _add_common_query_args(loc)
    cnt = subs.add_parser("count", help="report occurrence counts")
    _add_common_query_args(cnt)
    ploc = subs.add_parser("phrase-locate", help="locate via the encoded text")
    _add_common_query_args(ploc)

    st = subs.add_parser("stats", help="corpus statistics as CSV")
    st.add_argument("--text", required=True)
    st.add_argument("--mode", choices=["sample-ratio", "qgrams"],
                    default="sample-ratio")
    st.add_argument("--pairs", help="comma list of q:p pairs")
    st.add_argument("--q-list", dest="q_list", help="comma list of q values")

    be = subs.add_parser("bench", help="time count queries over random patterns")
    be.add_argument("--text", required=True)
    be.add_argument("--index", help="benchmark one prebuilt index")
    be.add_argument("--variant", help="comma list of variants to build, or "
                    "to read from --index")
    be.add_argument("--q", type=int, default=8)
    be.add_argument("--p", type=int, default=2)
    be.add_argument("--k", type=int, default=4)
    be.add_argument("--step", type=int, default=8)
    be.add_argument("--m", type=int, default=20)
    be.add_argument("--patterns", type=int, default=1000,
                    help="number of random patterns to extract")
    be.add_argument("--seed", type=int, default=20240917)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "build": cmd_build,
        "phrase-build": cmd_phrase_build,
        "locate": cmd_locate,
        "count": lambda a: cmd_locate(a, counting=True),
        "phrase-locate": lambda a: cmd_locate(a, name="phrase"),
        "stats": cmd_stats,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except SamsamiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
