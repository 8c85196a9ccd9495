"""The benchmark's contract with the package.

perfbench/run.py reaches the package through set_up, variants and the
span sites in perfbench/tracing.py. A renamed entry point or site would
silently empty a per-layer metric there; here it fails a test instead.
Each workload runs on a small text with its own q, p, k, step and m.
"""

import sys
from pathlib import Path

import pytest

from samsami import naive_locate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import tracing  # noqa: E402

TEXT_BYTES = 32 * 1024
SEED = 1


def _text(wl) -> bytes:
    if wl.corpus == "stdlib":
        return run.stdlib_corpus(TEXT_BYTES)[0]
    return run.dna_text(SEED, TEXT_BYTES)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_variants_answer_like_naive_scan(name, tmp_path):
    sm = run.import_samsami()
    wl = run.WORKLOADS[name]
    text = _text(wl)
    ix = run.set_up(sm, text, wl)
    vs = run.variants(sm, ix, len(text))
    assert [v.name for v in vs] == [entry[0] for entry in run.VARIANTS]
    patterns = run.Patterns(wl, text, SEED, "contract").block(40)
    for v in vs:
        for pattern in patterns:
            expect = naive_locate(text, pattern)
            assert run.answer_ok(v, v.call(pattern), expect), (v.name, pattern)

    loaded = []
    for i, bundle in enumerate(ix.bundles()):
        path = tmp_path / f"index{i}.ssmi"
        sm.save(bundle, path)
        loaded.append(sm.load(path, text))
    tally = run.Tally()
    run.check_properties(sm, text, wl, SEED, ix, loaded, tally)
    assert tally.attempted > 0
    assert tally.failed == 0


def test_traced_run_reaches_every_span_site(tmp_path):
    sm = run.import_samsami()
    wl = run.WORKLOADS["code-anchor"]
    text = _text(wl)
    tracer = tracing.Tracer()
    with tracer.installed():
        ix = run.set_up(sm, text, wl, tracer.call)
        path = tmp_path / "index.ssmi"
        tracer.call("save", sm.save, ix.main, path)
        tracer.call("load", sm.load, path, text)
        patterns = run.Patterns(wl, text, SEED, "traced").block(4)
        for v in run.variants(sm, ix, len(text)):
            for pattern in patterns:
                tracer.call(v.entry, v.call, pattern, sm.QueryStats())
    assert not tracer.absent
    recorded = {span[0] for span in tracer.spans}
    assert set(tracing.SITES) <= recorded
