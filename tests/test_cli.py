import random
import struct
import time

import pytest

from samsami import baselines, core
from samsami.cli import extract_patterns, main, splitmix64

from helpers import phrase_file_with_a_moved_cut, reseal


@pytest.fixture()
def corpus(tmp_path):
    rng = random.Random(0xC11)
    text = bytes(rng.choice(b"abcd ") for _ in range(2000))
    path = tmp_path / "corpus.txt"
    path.write_bytes(text)
    return path, text


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _bench_rows(report):
    """The rows of a bench CSV report, each a dict keyed by header."""
    header, *lines = report.strip().split("\n")
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


TIMING = ("mean_us", "p50_us", "p99_us", "first_us")  # vary run to run


def test_splitmix64_reference_values():
    # vectors from the published reference implementation, seed 0
    gen = splitmix64(0)
    assert [next(gen) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    gen = splitmix64(1234567)
    assert [next(gen) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_extract_patterns_deterministic():
    text = bytes(range(256)) * 10
    a = extract_patterns(text, 12, 50, seed=9)
    b = extract_patterns(text, 12, 50, seed=9)
    c = extract_patterns(text, 12, 50, seed=10)
    assert a == b
    assert a != c
    assert all(len(p) == 12 for p in a)
    assert all(p in text for p in a)


def test_build_locate_count_flow(corpus, tmp_path, capsys):
    path, text = corpus
    out = tmp_path / "c.ssmi"
    code, stdout, _ = _run(capsys, [
        "build", "--text", str(path), "--q", "4", "--p", "2",
        "--out", str(out)])
    assert code == 0
    assert "n_sampled=" in stdout
    probe = text[100:107].decode("latin-1")
    code, stdout, _ = _run(capsys, [
        "locate", "--index", str(out), "--text", str(path), probe])
    assert code == 0
    line = stdout.strip().split("\t")
    assert line[0] == probe
    assert "101" in line[1].split(",")
    code, stdout, _ = _run(capsys, [
        "count", "--index", str(out), "--text", str(path), probe])
    positions = line[1].split(",")
    assert stdout.strip().split("\t")[1] == str(len(positions))


def test_build_rejects_bad_params(corpus, tmp_path, capsys):
    path, _ = corpus
    code, _, err = _run(capsys, [
        "build", "--text", str(path), "--q", "0", "--p", "0",
        "--out", str(tmp_path / "x.ssmi")])
    assert code == 1
    assert "error" in err


def test_locate_reports_short_patterns_per_line(corpus, tmp_path, capsys):
    path, text = corpus
    out = tmp_path / "c.ssmi"
    _run(capsys, ["build", "--text", str(path), "--q", "6", "--p", "2",
                  "--out", str(out)])
    good = text[40:50].decode("latin-1")
    code, stdout, _ = _run(capsys, [
        "locate", "--index", str(out), "--text", str(path), "abc", good])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("abc\tERROR:")
    assert lines[1].startswith(good + "\t")


def test_locate_patterns_file(corpus, tmp_path, capsys):
    path, text = corpus
    out = tmp_path / "c.ssmi"
    _run(capsys, ["build", "--text", str(path), "--q", "4", "--p", "2",
                  "--out", str(out)])
    pats = tmp_path / "pats.txt"
    pats.write_bytes(text[10:16] + b"\n" + text[20:26] + b"\n")
    code, stdout, _ = _run(capsys, [
        "count", "--index", str(out), "--text", str(path),
        "--patterns", str(pats)])
    assert code == 0
    assert len(stdout.strip().split("\n")) == 2


def test_variant_dispatch(corpus, tmp_path, capsys):
    path, text = corpus
    probe = text[333:341].decode("latin-1")
    answers = []
    for variant in ("samsami", "samsami2", "samsami-hash"):
        out = tmp_path / f"{variant}.ssmi"
        code, stdout, _ = _run(capsys, [
            "build", "--text", str(path), "--q", "5", "--p", "2", "--k", "3",
            "--variant", variant, "--out", str(out)])
        assert code == 0
        code, stdout, _ = _run(capsys, [
            "locate", "--index", str(out), "--text", str(path), probe])
        assert code == 0
        answers.append(stdout)
    assert answers[0] == answers[1] == answers[2]


def test_phrase_build_and_locate(corpus, tmp_path, capsys):
    path, text = corpus
    out = tmp_path / "ph.ssmi"
    code, stdout, _ = _run(capsys, [
        "phrase-build", "--text", str(path), "--q", "4", "--p", "2",
        "--out", str(out)])
    assert code == 0
    assert "phrases=" in stdout
    probe = text[50:60].decode("latin-1")  # m=10 >= 2q-p+1=7
    code, stdout, _ = _run(capsys, [
        "phrase-locate", "--index", str(out), "--text", str(path), probe])
    assert code == 0
    assert "51" in stdout.strip().split("\t")[1].split(",")


def test_phrase_build_warns_when_dictionary_dominates(tmp_path, capsys):
    rng = random.Random(0xD1C7)
    text = bytes(rng.randrange(96) for _ in range(300))  # mostly unique phrases
    path = tmp_path / "noise.bin"
    path.write_bytes(text)
    code, _, err = _run(capsys, [
        "phrase-build", "--text", str(path), "--q", "16", "--p", "2",
        "--out", str(tmp_path / "n.ssmi")])
    assert code == 0
    assert "dictionary" in err


def test_stats_sample_ratio(corpus, capsys):
    path, _ = corpus
    code, stdout, _ = _run(capsys, [
        "stats", "--text", str(path), "--mode", "sample-ratio",
        "--pairs", "4:2,8:2"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "q,p,n_sampled,n,percent"
    assert len(lines) == 3
    assert lines[1].startswith("4,2,")


def test_stats_qgrams(corpus, capsys):
    path, text = corpus
    code, stdout, _ = _run(capsys, [
        "stats", "--text", str(path), "--mode", "qgrams", "--q-list", "1,2"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "q,count"
    assert lines[1] == f"1,{len(set(text))}"


def test_bench_determinism_and_agreement(corpus, capsys):
    path, _ = corpus
    argv = ["bench", "--text", str(path), "--q", "4", "--p", "2", "--k", "2",
            "--step", "4", "--m", "8", "--patterns", "40", "--seed", "77"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert code == 0
    lines = first.strip().split("\n")
    assert lines[0] == ("variant,q,p,k,m,patterns,mean_us,p50_us,p99_us,"
                        "index_bytes,index_text_ratio,matches_total,"
                        "first_us")
    assert len(lines) == 6  # header + five variants
    rows = _bench_rows(first)
    matches = [row["matches_total"] for row in rows]
    assert len(set(matches)) == 1  # identical counts across variants
    for row in rows:
        assert 0 < float(row["p50_us"]) <= float(row["p99_us"])

    def drop_timing(report):
        # the timing columns vary run to run; all else is pinned
        return [[v for name, v in row.items() if name not in TIMING]
                for row in _bench_rows(report)]

    assert drop_timing(first) == drop_timing(second)


def test_bench_single_variant(corpus, capsys):
    path, _ = corpus
    code, stdout, _ = _run(capsys, [
        "bench", "--text", str(path), "--variant", "samsami,sa", "--q", "4",
        "--p", "2", "--m", "8", "--patterns", "20"])
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("samsami,")
    assert lines[2].startswith("sa,")
    with pytest.raises(SystemExit):  # --jobs is gone
        main(["bench", "--text", str(path), "--jobs", "2"])


def test_bench_mean_leaves_out_the_fence_build(corpus, capsys, monkeypatch):
    # a variant's first search builds its fence list once; bench must not
    # count that build in the mean over its timed queries, and reports
    # it as the first query's time
    path, _ = corpus
    sleep_s, patterns = 0.2, 4
    built = []

    def slow_fences(text, sa):
        time.sleep(sleep_s)
        built.append(len(sa))
        return fences(text, sa)

    fences = core._fences
    for module in (core, baselines):  # every module that calls it by name
        monkeypatch.setattr(module, "_fences", slow_fences)
    code, stdout, _ = _run(capsys, [
        "bench", "--text", str(path), "--variant", "sa", "--m", "8",
        "--patterns", str(patterns)])
    assert code == 0
    assert built == [len(path.read_bytes())]  # the plain SA, built once
    row = _bench_rows(stdout)[0]
    assert float(row["mean_us"]) < sleep_s * 1e6 / patterns
    assert float(row["p99_us"]) < sleep_s * 1e6  # in no timed query
    assert float(row["first_us"]) >= sleep_s * 1e6


def test_bench_m_below_minimum_fails(corpus, capsys):
    path, _ = corpus
    code, _, err = _run(capsys, [
        "bench", "--text", str(path), "--variant", "samsami", "--q", "10",
        "--p", "2", "--m", "6", "--patterns", "5"])
    assert code == 1
    assert "minimum" in err


@pytest.mark.parametrize("argv", [
    ["bench", "--variant", "samsami,samsami-hash", "--q", "10", "--m", "9"],
    ["bench", "--variant", "samsami,fm-index"],
    ["stats", "--pairs", "4:2,0:0"],
    ["stats", "--mode", "qgrams", "--q-list", "1,0"],
])
def test_failed_run_prints_no_csv_header(corpus, capsys, argv):
    path, _ = corpus
    code, stdout, err = _run(capsys, [*argv, "--text", str(path)])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ")


def test_missing_text_file_is_an_error_line(tmp_path, capsys):
    code, stdout, err = _run(capsys, [
        "count", "--index", str(tmp_path / "c.ssmi"), "--text",
        str(tmp_path / "missing.txt"), "abc"])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "missing.txt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", ["delta flag", "hash flag", "n' - 1",
                                  "n' + 1", "stream cut", "moved cut"])
@pytest.mark.parametrize("command", ["count", "bench"])
def test_bad_phrase_only_file_is_an_error_line(corpus, tmp_path, capsys,
                                               edit, command):
    path, text = corpus
    out = tmp_path / "ph.ssmi"
    assert _run(capsys, ["phrase-build", "--text", str(path), "--q", "4",
                         "--p", "2", "--out", str(out)])[0] == 0
    data = bytearray(out.read_bytes())
    (n_sampled,) = struct.unpack_from("<I", data, 32)
    if edit == "stream cut":
        data = data[:-3]
    elif edit == "moved cut":  # loads; the first samsami search refuses it
        data = phrase_file_with_a_moved_cut(text, 4, 2)
    else:
        at, value = {"delta flag": (8, 4 | 8 | 1), "hash flag": (8, 4 | 8 | 2),
                     "n' - 1": (32, n_sampled - 1),
                     "n' + 1": (32, n_sampled + 1)}[edit]
        struct.pack_into("<I", data, at, value)
    out.write_bytes(reseal(data))
    argv = ([command, "--index", str(out), "--text", str(path), "abcab"]
            if command == "count" else
            [command, "--index", str(out), "--text", str(path), "--variant",
             "phrase,samsami", "--m", "8", "--patterns", "5"])
    code, stdout, err = _run(capsys, argv)
    assert code == 1
    if edit == "moved cut" and command == "bench":
        # the file loads, so the header is printed before the phrase
        # variant's first query refuses the file
        assert len(stdout.splitlines()) == 1
    else:
        assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "minimizer positions" in err or edit != "moved cut"
    assert "Traceback" not in err


def test_bench_exits_on_disagreement(corpus, capsys, monkeypatch):
    # sa answers one pattern off by one: the report is printed, then the
    # first pattern the two counts differ on is named
    path, text = corpus
    patterns = extract_patterns(text, 10, 20, seed=4)
    bad = patterns.index(patterns[7])
    real = baselines.spasa_count

    def off_by_one(spasa, pattern, stats=None):
        return real(spasa, pattern, stats) + (pattern == patterns[bad])

    monkeypatch.setattr(baselines, "spasa_count", off_by_one)
    code, stdout, err = _run(capsys, [
        "bench", "--text", str(path), "--variant", "samsami,sa", "--m", "10",
        "--patterns", "20", "--seed", "4"])
    assert code == 1
    assert [row["variant"] for row in _bench_rows(stdout)] == ["samsami",
                                                               "sa"]
    assert err == f"error: sa and samsami disagree on pattern {bad}\n"


def test_bench_prebuilt_index(corpus, tmp_path, capsys):
    path, _ = corpus
    for variant, lead in [("samsami", "samsami,4,2,0,10,10,"),
                          ("samsami2", "samsami2,4,2,0,10,10,"),
                          ("samsami-hash", "samsami-hash,4,2,3,10,10,")]:
        out = tmp_path / f"{variant}.ssmi"
        _run(capsys, ["build", "--text", str(path), "--q", "4", "--p", "2",
                      "--k", "3", "--variant", variant, "--out", str(out)])
        code, stdout, _ = _run(capsys, [
            "bench", "--text", str(path), "--index", str(out), "--m", "10",
            "--patterns", "10"])
        assert code == 0
        assert stdout.strip().split("\n")[1].startswith(lead)


@pytest.mark.parametrize("count", [0, -3])
def test_bench_rejects_pattern_count_below_one(corpus, capsys, count):
    path, _ = corpus
    code, stdout, err = _run(capsys, [
        "bench", "--text", str(path), "--patterns", str(count)])
    assert code == 1
    assert stdout == ""
    assert err == f"error: --patterns must be at least 1, got {count}\n"


@pytest.mark.parametrize("step", [0, -1])
def test_bench_rejects_spasa_step_outside_text(corpus, capsys, step):
    path, _ = corpus
    code, _, err = _run(capsys, [
        "bench", "--text", str(path), "--variant", "spasa,sa", "--step",
        str(step), "--m", "8", "--patterns", "20"])
    assert code == 1
    assert err == f"error: need 1 <= step <= 2000, got {step}\n"


def test_bench_phrase_variant(corpus, tmp_path, capsys):
    path, _ = corpus
    argv = ["bench", "--text", str(path), "--variant",
            "samsami,samsami2,samsami-hash,spasa,sa,phrase", "--q", "4",
            "--p", "2", "--k", "2", "--step", "4", "--m", "8",
            "--patterns", "40"]
    code, stdout, err = _run(capsys, argv)
    assert code == 0, err
    rows = _bench_rows(stdout)
    assert [row["variant"] for row in rows][-1] == "phrase"
    assert len({row["matches_total"] for row in rows}) == 1
    # phrase reports the bytes of the file phrase-build writes
    out = tmp_path / "corpus.phr"
    _run(capsys, ["phrase-build", "--text", str(path), "--q", "4", "--p", "2",
                  "--out", str(out)])
    assert rows[-1]["index_bytes"] == str(out.stat().st_size)
    # and --index reads the phrase variant from that file when named
    code, stdout, _ = _run(capsys, [
        "bench", "--text", str(path), "--index", str(out), "--variant",
        "samsami,phrase", "--m", "8", "--patterns", "40"])
    assert code == 0
    loaded = _bench_rows(stdout)
    assert [row["variant"] for row in loaded] == ["samsami", "phrase"]
    assert loaded[1]["index_bytes"] == rows[-1]["index_bytes"]
    assert loaded[1]["matches_total"] == rows[-1]["matches_total"]
    # below 2q-p+1 = 7 the phrase variant cannot answer
    code, _, err = _run(capsys, argv[:-4] + ["--m", "6", "--patterns", "5"])
    assert code == 1
    assert "below the minimum 7 of phrase" in err
