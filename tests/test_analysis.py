import math

import pytest
from hypothesis import given, settings, strategies as st

import rank_oracles as oracle
from econas.analysis import (
    AnalysisError,
    SettingColumns,
    acceleration_ratio,
    build_report,
    mean_entropy,
    rho_f_curve,
    write_report_files,
)
from econas.proxy import CIFAR10_TABLE, parse_label
from econas.records import EvaluationRecord


@pytest.fixture(scope="module")
def grid_report(grid_records):
    return build_report(grid_records, "c0r0s0e600", CIFAR10_TABLE, top_k=10, windows=(15, 20))


def test_report_covers_the_200_setting_universe(grid_report):
    assert len(grid_report.rows) == 200
    labels = [row.label for row in grid_report.rows]
    assert labels == sorted(labels, key=lambda l: parse_label(l))
    assert "c0r0s0e600" not in labels  # ground truth is the reference, not a row


def test_report_row_ranges(grid_report):
    for row in grid_report.rows:
        assert -1.0 <= row.rho_sp <= 1.0
        assert -1.0 <= row.tolerant_rho <= 1.0
        assert 0.0 <= row.hre <= 1.0
        assert 0 <= row.retained[0] <= 10
        assert 0 <= row.retained[1] <= 10
        assert row.retained[0] <= row.retained[1]  # window 15 vs 20
        assert row.overfit_gap is not None and row.overfit_gap > 0


def test_acceleration_semantics(grid_report):
    by_label = {row.label: row for row in grid_report.rows}
    assert by_label["c0r0s0e30"].speedup == 1
    assert by_label["c0r0s0e30"].acceleration == pytest.approx(600 / 30)
    assert by_label["c4r4s0e60"].speedup == 256
    assert by_label["c4r4s0e60"].acceleration == pytest.approx(256 * 10)
    assert acceleration_ratio("c1r1s1e60", "c0r0s0e600", CIFAR10_TABLE) == pytest.approx(80.0)


def test_recommendations_are_bucket_maxima(grid_report):
    buckets = {}
    for row in grid_report.rows:
        buckets.setdefault(math.floor(math.log2(row.acceleration)), []).append(row)
    assert len(grid_report.recommendations) == len(buckets)
    for rec in grid_report.recommendations:
        assert rec.row.rho_sp == max(r.rho_sp for r in buckets[rec.bucket])


def test_adopted_setting_recommended_in_its_bucket(grid_report):
    # the compact high-acceleration proxy should win its acceleration group
    picks = {rec.row.label: rec.bucket for rec in grid_report.recommendations}
    assert "c4r4s0e60" in picks
    recommended = [rec.row.label for rec in grid_report.recommendations]
    assert any("e120" in label for label in recommended)
    assert any(label.startswith("c4") for label in recommended)


def test_entropy_table_structure(grid_report):
    slices = {(e.s_idx, e.epochs) for e in grid_report.entropy_rows}
    assert slices == {(s, e) for s in (0, 1) for e in (30, 60, 90, 120)}
    # per slice: 5 fixed-r rows + mean for c, 5 fixed-c rows + mean for r
    assert len(grid_report.entropy_rows) == len(slices) * 12
    assert mean_entropy(grid_report, "c", 0, 60) == pytest.approx(
        sum(
            e.value
            for e in grid_report.entropy_rows
            if e.dimension == "c" and e.s_idx == 0 and e.epochs == 60 and e.fixed_index is not None
        )
        / 5.0
    )
    with pytest.raises(AnalysisError):
        mean_entropy(grid_report, "c", 0, 999)


def test_scatter_pairs(grid_report):
    assert len(grid_report.scatter) == 200 * 50
    first = grid_report.scatter[0]
    assert 1.0 <= first.gt_rank <= 50.0
    assert 1.0 <= first.red_rank <= 50.0
    per_label = {}
    for point in grid_report.scatter:
        per_label.setdefault(point.label, []).append(point.gt_rank)
    assert all(sorted(v) == sorted(range(1, 51)) for v in per_label.values())


def test_report_files_written_and_stable(grid_report, tmp_path, grid_records):
    rho_f = rho_f_curve(grid_records, "c0r0s0e600", sizes=(5, 10), trials=5, seed=0)
    paths_a = write_report_files(grid_report, str(tmp_path / "a"), rho_f=rho_f)
    paths_b = write_report_files(grid_report, str(tmp_path / "b"), rho_f=rho_f)
    assert [p.rsplit("/", 1)[-1] for p in paths_a] == [
        "report.tsv", "entropy.tsv", "recommendations.tsv", "rank_scatter.tsv", "rho_f.tsv",
    ]
    for pa, pb in zip(paths_a, paths_b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()
    with open(paths_a[0]) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2 + 200  # comment + header + one row per setting


# -- the report and rho_F against the code they replaced -------------------------

GRID_LABELS = sorted(
    "c%dr%ds%de%d" % (c, r, s, e)
    for c in range(5) for r in range(5) for s in range(2) for e in (30, 60, 90, 120)
)
# One (s, epochs) slice's full channel x resolution grid, for entropy rows.
SLICE = ["c%dr%ds0e30" % (c, r) for c in range(5) for r in range(5)]
SUBNORMAL = (0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1.0)


def _outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # AnalysisError, MetricError, SettingError
        return type(exc), str(exc)


@st.composite
def zoo_logs(draw):
    """Records of a small zoo over random settings, in random order. Values
    may tie heavily or differ by subnormal gaps; a reduced setting may cover
    a subset of the models; train accuracies may be missing; a key may
    repeat, and then its last record counts."""
    ids = ["m%02d" % i for i in range(draw(st.integers(3, 14)))]
    kind = draw(st.sampled_from(["spread", "ties", "subnormal"]))
    if kind == "spread":
        values = st.floats(0.0, 1.0)
    elif kind == "ties":
        values = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    else:
        values = st.sampled_from(SUBNORMAL)
    labels = draw(st.lists(st.sampled_from(GRID_LABELS), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        labels = sorted(set(labels) | set(SLICE))
    records = []
    for label in ["c0r0s0e600"] + labels:
        covered = ids
        if label != "c0r0s0e600" and draw(st.booleans()):
            covered = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        train = draw(st.sampled_from(["all", "none", "some"]))
        for mid in covered:
            has_train = train == "all" or (train == "some" and draw(st.booleans()))
            records.append(EvaluationRecord(
                mid, label, draw(values), draw(values) if has_train else None, 1
            ))
    if draw(st.booleans()):
        again = draw(st.sampled_from(records))
        records.append(EvaluationRecord(again.model_id, again.setting, draw(values), None, 2))
    return draw(st.permutations(records))


@settings(max_examples=150, deadline=None)
@given(
    zoo_logs(),
    st.sampled_from([0.0, 0.0015, 0.3]),
    st.sampled_from([((2,), 1), ((2, 3), 2), ((15,), 10)]),
)
def test_report_equals_the_oracle(records, b, windows_top_k):
    windows, top_k = windows_top_k
    args = ("c0r0s0e600", CIFAR10_TABLE)
    kwargs = dict(top_k=top_k, windows=windows, tolerant_b=b)
    expected = _outcome(oracle.build_report, records, *args, **kwargs)
    assert _outcome(build_report, records, *args, **kwargs) == expected
    assert _outcome(build_report, SettingColumns.of(records), *args, **kwargs) == expected


@settings(max_examples=100, deadline=None)
@given(zoo_logs(), st.lists(st.integers(3, 14), min_size=1, max_size=3), st.integers(0, 99))
def test_rho_f_curve_equals_the_oracle(records, sizes, seed):
    expected = _outcome(oracle.rho_f_curve, records, "c0r0s0e600", sizes, trials=3, seed=seed)
    assert _outcome(rho_f_curve, records, "c0r0s0e600", sizes, trials=3, seed=seed) == expected
    columns = SettingColumns.of(records)
    assert _outcome(rho_f_curve, columns, "c0r0s0e600", sizes, trials=3, seed=seed) == expected


def test_the_grid_report_equals_the_oracle(grid_records, grid_report):
    assert grid_report == oracle.build_report(
        grid_records, "c0r0s0e600", CIFAR10_TABLE, top_k=10, windows=(15, 20)
    )
    assert rho_f_curve(grid_records, "c0r0s0e600", (5, 50), trials=4, seed=1) == (
        oracle.rho_f_curve(grid_records, "c0r0s0e600", (5, 50), trials=4, seed=1)
    )
