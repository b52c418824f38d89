import pytest

from cltwist import kernel
from cltwist.selftest import Mismatch, run_selftest


def test_clean_run():
    report = run_selftest(4)
    assert report.ok
    assert report.pair_count == 256
    assert report.triple_count == 4096
    assert report.algorithm_count == 4
    assert report.mismatches == ()


def test_summary_lines():
    lines = run_selftest(3).lines()
    assert lines == [
        "ok: 4x64 pairs x 2 mu, 0 mismatches",
        "ok: 512 triples x 2 mu, 0 mismatches",
    ]


def test_default_width_summary():
    report = run_selftest()
    assert report.lines()[0] == "ok: 4x65536 pairs x 2 mu, 0 mismatches"


def _broken_tree(p, q, mu):
    sign = kernel.twist_tree(p, q, mu)
    if p == 5 and q == 9:
        return -sign
    return sign


def test_fault_in_one_algorithm_is_caught():
    algos = dict(kernel.ALGORITHMS, tree=_broken_tree)
    report = run_selftest(4, algorithms=algos)
    assert not report.ok
    first = report.mismatches[0]
    assert first.kind == "pairs"
    assert first.indices == (5, 9)
    assert first.signs["tree"] == -first.signs["closed"]
    text = first.describe()
    assert "p=5" in text and "q=9" in text
    assert "tree=" in text and "oracle=" in text


def test_fault_in_closed_breaks_cocycle_too():
    # the cocycle table is built from the closed algorithm, so a fault
    # there must surface even if every algorithm agrees
    def broken(p, q, mu):
        if (p, q) == (3, 5):
            return -kernel.twist_closed(p, q, mu)
        return kernel.twist_closed(p, q, mu)

    report = run_selftest(3, algorithms={"closed": broken})
    kinds = {m.kind for m in report.mismatches}
    assert "triples" in kinds
    assert not report.ok
    assert any("cocycle violation" in m.describe() for m in report.mismatches)


def test_single_algorithm_cannot_disagree_on_pairs():
    report = run_selftest(3, algorithms={"closed": kernel.twist_closed})
    assert report.ok
    assert report.algorithm_count == 1


def test_mismatch_lines_precede_counts():
    algos = dict(kernel.ALGORITHMS, tree=_broken_tree)
    lines = run_selftest(4, algorithms=algos).lines()
    assert lines[0].startswith("mismatch:")
    assert all(not line.startswith("ok:") for line in lines)


def test_width_validation():
    for bad in (0, 13, "8", 2.5, True):
        with pytest.raises(ValueError):
            run_selftest(bad)


def test_empty_algorithm_map_rejected():
    with pytest.raises(ValueError):
        run_selftest(3, algorithms={})


def test_mismatch_describe_triple():
    m = Mismatch("triples", -1, (1, 2, 3), {})
    assert m.describe() == "cocycle violation: p=1 q=2 r=3 mu=-1"
