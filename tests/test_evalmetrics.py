import numpy as np
import pytest
from conftest import make_dataset

from v2vbeam.errors import LengthMismatchError, ZeroGroundTruthPowerError
from v2vbeam.evalmetrics import (
    aggregate_reports,
    build_report,
    evaluate_predictions,
    received_power_ratio,
    topm_accuracy_inclusion,
    topm_accuracy_literal,
    write_report_csv,
    write_report_json,
    write_report_svg,
)


def brute_force_inclusion(preds, truths):
    count = 0
    for cands, truth in zip(preds, truths):
        hit = False
        for c in cands:
            if c == truth:
                hit = True
        if hit:
            count += 1
    return count / len(truths)


def brute_force_literal(preds, truths):
    total = 0.0
    for cands, truth in zip(preds, truths):
        overlap = len({truth} & set(cands))
        total += overlap / len(cands)
    return total / len(truths)


def brute_force_ratio(preds, powers, truths):
    total = 0.0
    for cands, p, truth in zip(preds, powers, truths):
        best = max(p[c] for c in cands)
        total += best / p[truth]
    return total / len(truths)


def random_case(rng, n=20, q=8, m=3):
    truths = rng.integers(0, q, n).tolist()
    preds = [rng.permutation(q)[:m].tolist() for _ in range(n)]
    powers = [rng.uniform(0.1, 1.0, q) for _ in range(n)]
    # ground truth must be the argmax of its vector
    for p, t in zip(powers, truths):
        p[t] = 2.0
    return preds, powers, truths


class TestInclusionAccuracy:
    def test_half_hit(self):
        assert topm_accuracy_inclusion([[3, 1, 2], [1, 2, 4]], [3, 7]) == 0.5

    def test_all_hit(self):
        assert topm_accuracy_inclusion([[3], [7]], [3, 7]) == 1.0

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            preds, _, truths = random_case(rng)
            assert topm_accuracy_inclusion(preds, truths) == brute_force_inclusion(
                preds, truths
            )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            topm_accuracy_inclusion([[1]], [1, 2])

    def test_one_dimensional_candidates_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, M\) array"):
            topm_accuracy_inclusion(np.array([3, 7]), [3, 7])


class TestLiteralAccuracy:
    def test_printed_formula_value(self):
        # (1/3 + 0) / 2 = 1/6
        assert topm_accuracy_literal([[3, 1, 2], [1, 2, 4]], [3, 7]) == pytest.approx(
            1.0 / 6.0, abs=1e-15
        )

    def test_equals_inclusion_at_m1(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds, _, truths = random_case(rng, m=1)
            assert topm_accuracy_literal(preds, truths) == topm_accuracy_inclusion(
                preds, truths
            )

    def test_all_miss(self):
        assert topm_accuracy_literal([[1, 2], [1, 2]], [3, 3]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            preds, _, truths = random_case(rng, m=4)
            assert topm_accuracy_literal(preds, truths) == brute_force_literal(
                preds, truths
            )


class TestCandidateArrays:
    def test_arrays_equal_per_row_loops_exactly(self):
        rng = np.random.default_rng(10)
        for m in (1, 5, 9, 13):
            preds, powers, truths = random_case(rng, n=2000, q=64, m=m)
            array = np.array(preds)
            assert topm_accuracy_inclusion(array, np.array(truths)) == (
                brute_force_inclusion(preds, truths)
            )
            assert topm_accuracy_literal(array, truths) == brute_force_literal(
                preds, truths
            )
            assert received_power_ratio(array, np.array(powers), truths) == (
                brute_force_ratio(preds, powers, truths)
            )


class TestReceivedPowerRatio:
    def test_hit_gives_unity(self):
        powers = [np.array([0.2, 1.0, 0.5])]
        assert received_power_ratio([[1, 0]], powers, [1]) == 1.0

    def test_single_miss_ratio(self):
        powers = [np.array([0.8, 1.0])]
        assert received_power_ratio([[0]], powers, [1]) == pytest.approx(0.8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            preds, powers, truths = random_case(rng)
            assert received_power_ratio(preds, powers, truths) == pytest.approx(
                brute_force_ratio(preds, powers, truths), rel=1e-15
            )

    def test_zero_ground_truth_power(self):
        powers = [np.array([0.0, 0.0])]
        with pytest.raises(ZeroGroundTruthPowerError):
            received_power_ratio([[0]], powers, [0])


class TestBuildReport:
    def test_identical_predictors_identical_columns(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 4)))
        preds = [[best, 0, 1] for best in ds.best.tolist()]
        model, baseline = build_report(preds, preds, ds, m_values=(1, 2, 3))
        assert model.accuracy_inclusion == baseline.accuracy_inclusion
        assert model.power_ratio == baseline.power_ratio

    def test_shape_four_m_values(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 16)))
        preds = [list(range(16)) for _ in range(len(ds))]
        model, _ = build_report(preds, preds, ds, m_values=(1, 5, 9, 13))
        assert model.m_values == (1, 5, 9, 13)
        assert len(model.accuracy_inclusion) == 4
        assert len(model.power_ratio) == 4

    def test_oracle_predictor_all_ones(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 4)))
        oracle = [[best] + [i for i in range(4) if i != best] for best in ds.best.tolist()]
        model, _ = build_report(oracle, oracle, ds, m_values=(1, 2, 4))
        assert model.accuracy_inclusion == (1.0, 1.0, 1.0)
        assert model.power_ratio == (1.0, 1.0, 1.0)

    def test_m_value_bounds_checked(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 4)))
        preds = [[0] for _ in range(len(ds))]
        with pytest.raises(ValueError):
            build_report(preds, preds, ds, m_values=(0,))
        with pytest.raises(ValueError):
            build_report(preds, preds, ds, m_values=(5,))

    def test_monotone_in_m_for_prefix_lists(self):
        ds = make_dataset(np.random.default_rng(4).uniform(0.1, 1.0, (30, 8)))
        rng = np.random.default_rng(5)
        preds = [rng.permutation(8).tolist() for _ in range(len(ds))]
        report = evaluate_predictions("model", preds, ds, m_values=(1, 2, 4, 8))
        assert list(report.accuracy_inclusion) == sorted(report.accuracy_inclusion)
        assert list(report.power_ratio) == sorted(report.power_ratio)
        assert report.accuracy_inclusion[-1] == 1.0
        assert report.power_ratio[-1] == 1.0

    def test_narrow_candidate_array_rejected(self):
        ds = make_dataset(np.random.default_rng(4).uniform(0.1, 1.0, (5, 8)))
        preds = np.tile(np.arange(3), (5, 1))
        with pytest.raises(ValueError, match="need 4 ranked candidates"):
            evaluate_predictions("model", preds, ds, m_values=(1, 4))
        report = evaluate_predictions("model", preds, ds, m_values=(1, 3))
        assert report.m_values == (1, 3)

    def test_literal_equals_inclusion_at_m1(self):
        ds = make_dataset(np.random.default_rng(6).uniform(0.1, 1.0, (25, 8)))
        rng = np.random.default_rng(7)
        preds = [rng.permutation(8).tolist() for _ in range(len(ds))]
        report = evaluate_predictions("model", preds, ds, m_values=(1,))
        assert report.accuracy_inclusion[0] == report.accuracy_literal[0]


class TestAggregationAndWriters:
    def _rows(self):
        ds = make_dataset(np.random.default_rng(8).uniform(0.1, 1.0, (10, 4)))
        rng = np.random.default_rng(9)
        reports = []
        for _ in range(3):
            preds = [rng.permutation(4).tolist() for _ in range(len(ds))]
            reports.append(evaluate_predictions("model", preds, ds, m_values=(1, 2)))
        return aggregate_reports(reports)

    def test_aggregate_single_report_zero_stddev(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 4)))
        preds = [[best] for best in ds.best.tolist()]
        report = evaluate_predictions("model", preds, ds, m_values=(1,))
        rows = aggregate_reports([report])
        assert all(r.stddev == 0.0 for r in rows)
        acc = [r for r in rows if r.metric == "accuracy" and r.variant == "inclusion"]
        assert acc[0].mean == 1.0

    def test_csv_schema(self, tmp_path):
        rows = self._rows()
        path = write_report_csv(rows, tmp_path / "report.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "predictor,metric,variant,M,mean,stddev"
        assert len(lines) == 1 + len(rows)

    def test_json_meta(self, tmp_path):
        import json

        rows = self._rows()
        path = write_report_json(rows, tmp_path / "report.json", {"seed": 5})
        doc = json.loads(path.read_text())
        assert doc["meta"]["seed"] == 5
        assert len(doc["rows"]) == len(rows)

    def test_svg_written_deterministically(self, tmp_path):
        rows = self._rows()
        a = write_report_svg(rows, tmp_path / "a.svg").read_bytes()
        b = write_report_svg(rows, tmp_path / "b.svg").read_bytes()
        assert a == b
        assert a.startswith(b"<svg")

    def test_mixed_predictors_rejected(self):
        ds = make_dataset(np.random.default_rng(0).uniform(0.1, 1.0, (6, 4)))
        preds = [[0] for _ in range(len(ds))]
        a = evaluate_predictions("model", preds, ds, m_values=(1,))
        b = evaluate_predictions("baseline", preds, ds, m_values=(1,))
        with pytest.raises(ValueError):
            aggregate_reports([a, b])
