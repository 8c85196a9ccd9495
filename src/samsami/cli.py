"""Command-line front end: build, query, stats, and benchmark."""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import baselines, core, delta, hashindex, persistence, phrase, stats
from . import suffix_sort
from .errors import PatternTooShort, SamsamiError
from .minimizer import SamplingParams, sampled_positions

HEADER_BYTES = 48  # fixed header size, used for baseline size estimates

# the canonical (q, p) evaluation grid for sampling-ratio reports
DEFAULT_PAIRS = [
    (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (8, 1), (8, 2),
    (10, 1), (10, 2), (10, 3), (12, 1), (12, 2), (12, 3),
    (16, 1), (16, 2), (16, 3), (24, 2), (24, 3), (32, 2), (32, 3),
    (40, 2), (40, 3), (64, 2), (64, 3), (64, 4), (80, 2), (80, 3), (80, 4),
]

VARIANTS = ("samsami", "samsami2", "samsami-hash", "spasa", "sa")


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


def _query_one(bundle: persistence.IndexBundle, pattern: bytes):
    if bundle.table is not None:
        return hashindex.locate_hash(bundle.index, bundle.table, pattern)
    if bundle.delta is not None:
        return delta.locate2(bundle.index, bundle.delta, pattern)
    return core.locate(bundle.index, pattern)


def cmd_locate(args, counting: bool) -> int:
    text = _read_text(args.text)
    bundle = persistence.load(args.index, text)
    for pattern in _collect_patterns(args):
        name = _display(pattern)
        try:
            hits = _query_one(bundle, pattern)
        except PatternTooShort as exc:
            print(f"{name}\tERROR: {exc}")
            continue
        if counting:
            print(f"{name}\t{len(hits)}")
        else:
            print(f"{name}\t{','.join(str(h) for h in hits)}")
    return 0


def cmd_phrase_locate(args) -> int:
    text = _read_text(args.text)
    bundle = persistence.load(args.index, text)
    if bundle.dictionary is None:
        print("error: index has no phrase section", file=sys.stderr)
        return 1
    for pattern in _collect_patterns(args):
        name = _display(pattern)
        try:
            hits = phrase.encoded_locate(bundle.dictionary, bundle.encoded,
                                         bundle.index.n, pattern,
                                         bundle.index.params)
        except PatternTooShort as exc:
            print(f"{name}\tERROR: {exc}")
            continue
        print(f"{name}\t{','.join(str(h) for h in hits)}")
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
        print("q,p,n_sampled,n,percent")
        for q, p, kept, n, pct in stats.sampling_report(text, pairs):
            print(f"{q},{p},{kept},{n},{pct:.4f}")
    else:
        if args.q_list:
            if not all(s.strip().isdigit() for s in args.q_list.split(",")):
                raise SamsamiError(f"bad --q-list {args.q_list!r}")
            lengths = [int(v) for v in args.q_list.split(",")]
        else:
            lengths = range(1, 9)
        lengths = [q for q in lengths if q <= len(text)]
        print("q,count")
        for q, cnt in stats.qgram_report(text, lengths):
            print(f"{q},{cnt}")
    return 0


class _BenchTarget:
    """One variant wired up for timing: a name, params, counter, size."""

    def __init__(self, name, count_fn, q, p, k, index_bytes):
        self.name = name
        self.count_fn = count_fn
        self.q, self.p, self.k = q, p, k
        self.index_bytes = index_bytes


def _bench_targets(text, args) -> list[_BenchTarget]:
    requested = args.variant.split(",") if args.variant else list(VARIANTS)
    for name in requested:
        if name not in VARIANTS:
            raise SamsamiError(f"unknown variant {name!r}")

    # one suffix sort and one sampling pass feed every requested variant
    full_sa = None

    def full():
        nonlocal full_sa
        if full_sa is None:
            full_sa = suffix_sort.build_full_sa(text)
        return full_sa

    sam_idx = None

    def sam():
        nonlocal sam_idx
        if sam_idx is None:
            params = SamplingParams(args.q, args.p)
            sampled = sampled_positions(text, params)
            sam_idx = core.SamsamiIndex(
                text=text, params=params,
                sa=suffix_sort.extract_sampled(full(), sampled), n=len(text))
        return sam_idx

    def sam_size(bundle):
        return len(persistence.serialized_bytes(bundle))

    targets = []
    for name in requested:
        if name == "samsami":
            idx = sam()
            size = sam_size(persistence.IndexBundle(index=idx))
            targets.append(_BenchTarget(
                name, lambda pat, i=idx: core.count(i, pat),
                args.q, args.p, 0, size))
        elif name == "samsami2":
            idx = sam()
            ann = delta.annotate(idx)
            size = sam_size(persistence.IndexBundle(index=idx, delta=ann))
            targets.append(_BenchTarget(
                name, lambda pat, i=idx, a=ann: delta.count2(i, a, pat),
                args.q, args.p, 0, size))
        elif name == "samsami-hash":
            idx = sam()
            table = hashindex.build_table(idx, args.k)
            size = sam_size(persistence.IndexBundle(index=idx, table=table))
            targets.append(_BenchTarget(
                name, lambda pat, i=idx, t=table: hashindex.count_hash(i, t, pat),
                args.q, args.p, args.k, size))
        elif name == "spasa":
            sa = full().sa
            kept = sa[(sa.astype("int64") - 1) % args.step == 0]
            spasa = baselines.SparseSuffixArray(
                text=text, step=args.step, sa=kept, n=len(text))
            size = HEADER_BYTES + 4 * len(spasa.sa)
            targets.append(_BenchTarget(
                name, lambda pat, s=spasa: baselines.spasa_count(s, pat),
                args.step, 0, 0, size))
        elif name == "sa":
            plain = baselines.SparseSuffixArray(
                text=text, step=1, sa=full().sa, n=len(text))
            size = HEADER_BYTES + 4 * len(plain.sa)
            targets.append(_BenchTarget(
                name, lambda pat, s=plain: baselines.spasa_count(s, pat),
                1, 0, 0, size))
    return targets


def _loaded_target(bundle, args) -> _BenchTarget:
    idx = bundle.index
    size = len(persistence.serialized_bytes(bundle))
    if bundle.table is not None:
        return _BenchTarget(
            "samsami-hash",
            lambda pat: hashindex.count_hash(idx, bundle.table, pat),
            idx.params.q, idx.params.p, bundle.table.k, size)
    if bundle.delta is not None:
        return _BenchTarget(
            "samsami2", lambda pat: delta.count2(idx, bundle.delta, pat),
            idx.params.q, idx.params.p, 0, size)
    return _BenchTarget("samsami", lambda pat: core.count(idx, pat),
                        idx.params.q, idx.params.p, 0, size)


def _time_queries(count_fn, patterns) -> tuple[float, list[int]]:
    """Total seconds and per-pattern counts."""
    t0 = time.perf_counter()
    counts = [count_fn(pat) for pat in patterns]
    return time.perf_counter() - t0, counts


def cmd_bench(args) -> int:
    text = _read_text(args.text)
    if args.index:
        bundle = persistence.load(args.index, text)
        targets = [_loaded_target(bundle, args)]
    else:
        targets = _bench_targets(text, args)

    patterns = extract_patterns(text, args.m, args.patterns, args.seed)
    print("variant,q,p,k,m,patterns,mean_us,index_bytes,index_text_ratio,"
          "matches_total")
    all_counts = {}
    for target in targets:
        minimum = {
            "samsami": target.q, "samsami2": target.q,
            "samsami-hash": max(target.q - target.p + target.k, target.q),
            "spasa": target.q, "sa": 1,
        }[target.name]
        if args.m < minimum:
            raise SamsamiError(
                f"m={args.m} below the minimum {minimum} of {target.name}")
        seconds, counts = _time_queries(target.count_fn, patterns)
        all_counts[target.name] = counts
        mean_us = seconds * 1e6 / len(patterns)
        ratio = (target.index_bytes + len(text)) / len(text)
        print(f"{target.name},{target.q},{target.p},{target.k},{args.m},"
              f"{len(patterns)},{mean_us:.3f},{target.index_bytes},"
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
    be.add_argument("--variant", help="comma list of variants to build")
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
        "locate": lambda a: cmd_locate(a, counting=False),
        "count": lambda a: cmd_locate(a, counting=True),
        "phrase-locate": cmd_phrase_locate,
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
