import math

import numpy as np
import pytest

from crowdvol.cli import PROTOCOLS
from crowdvol.datamodel import csv_text
from crowdvol.metrics import (
    EvalRecord,
    compute_report,
    mae,
    mae_ppmae_scatter,
    ppmae,
    rmse,
)
from conftest import make_frame, make_person, scatter_ratio


def rec(fid, v, vh, n=1):
    return EvalRecord(frame_id=fid, v_true=v, v_pred=vh, n_persons=n)


# ---------------------------------------------------------------------------
# hand cases
# ---------------------------------------------------------------------------

def test_mae_hand_case():
    records = [rec("a", 1000.0, 1100.0), rec("b", 2000.0, 1900.0)]
    assert mae(records) == 100.0


def test_mae_perfect_and_single():
    assert mae([rec("a", 70.0, 70.0)]) == 0.0
    assert mae([rec("a", 70.0, 63.5)]) == pytest.approx(6.5, abs=0)


def test_ppmae_hand_case():
    records = [rec("a", 1000.0, 1100.0, n=10), rec("b", 2000.0, 1900.0, n=20)]
    assert ppmae(records) == 7.5


def test_ppmae_equals_mae_over_n_for_fixed_n():
    records = [rec(f"f{i}", 100.0 * i, 90.0 * i, n=4) for i in range(1, 6)]
    assert ppmae(records) == pytest.approx(mae(records) / 4.0, rel=1e-15)


def test_ppmae_rejects_empty_frames():
    with pytest.raises(ValueError, match="PP-MAE undefined"):
        ppmae([rec("a", 10.0, 10.0, n=0)])


def test_rmse_hand_cases():
    equal = [rec("a", 100.0, 0.0), rec("b", 300.0, 200.0)]  # AEs 100, 100
    assert rmse(equal) == 100.0 == mae(equal)
    spread = [rec("a", 100.0, 100.0), rec("b", 400.0, 200.0)]  # AEs 0, 200
    assert rmse(spread) == pytest.approx(math.sqrt(20000.0), rel=1e-15)
    assert mae(spread) == 100.0
    assert mae(spread) <= rmse(spread) <= math.sqrt(2) * mae(spread)


def test_single_record_all_metrics_equal():
    records = [rec("a", 70.0, 50.0)]
    assert mae(records) == rmse(records) == 20.0


def test_empty_input_errors():
    for fn in (mae, ppmae, rmse):
        with pytest.raises(ValueError):
            fn([])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _random_records(rng, k):
    return [
        rec(f"f{i}", float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)), n=int(rng.integers(1, 40)))
        for i in range(k)
    ]


def test_norm_equivalence_bounds():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        records = _random_records(rng, int(rng.integers(1, 30)))
        m, r = mae(records), rmse(records)
        k = len(records)
        assert m <= r * (1 + 1e-12)
        assert r <= math.sqrt(k) * m * (1 + 1e-12)


def test_equality_iff_all_aes_equal():
    records = [rec("a", 50.0, 0.0), rec("b", 100.0, 50.0), rec("c", 0.0, 50.0)]
    assert abs(mae(records) - rmse(records)) <= 1e-12 * mae(records)
    unequal = [rec("a", 50.0, 0.0), rec("b", 100.0, 0.0)]
    assert rmse(unequal) - mae(unequal) > 1e-12 * mae(unequal)


def test_permutation_invariance_is_exact():
    rng = np.random.default_rng(2)
    records = _random_records(rng, 200)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert mae(records) == mae(shuffled)
    assert ppmae(records) == ppmae(shuffled)
    assert rmse(records) == rmse(shuffled)


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    records = _random_records(rng, 50)
    c = 3.75
    scaled = [rec(r.frame_id, c * r.v_true, c * r.v_pred, r.n_persons) for r in records]
    assert mae(scaled) == pytest.approx(c * mae(records), rel=1e-12)
    assert ppmae(scaled) == pytest.approx(c * ppmae(records), rel=1e-12)
    assert rmse(scaled) == pytest.approx(c * rmse(records), rel=1e-12)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_excludes_empty_frames_from_ppmae():
    records = [rec("a", 100.0, 90.0, n=2), rec("b", 0.0, 10.0, n=0)]
    report = compute_report(records)
    assert report.k == 2
    assert report.ppmae_k == 1
    assert report.k - report.ppmae_k == 1  # the empty frame
    assert report.ppmae == 5.0
    assert report.mae == 10.0


def test_report_csv_shape(tmp_path):
    frames = [make_frame([make_person(volume=10.0)], frame_id="a")]
    name, rows = PROTOCOLS["full"](frames, {"a": 10.0}, None, tmp_path)
    lines = csv_text(rows).strip().splitlines()
    assert name == "report.csv"
    assert lines[0] == "subset,metric,value,k"
    assert lines[1].startswith("overall,mae,")
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------

def test_scatter_hand_point():
    points = mae_ppmae_scatter([rec("a", 140.0, 100.0, n=5)])
    assert points[0].ae == 40.0
    assert points[0].ppae == 8.0
    assert scatter_ratio(points[0]) == 5.0


def test_scatter_zero_error_flagged():
    points = mae_ppmae_scatter([rec("a", 100.0, 100.0, n=5)])
    assert points[0].ae == 0.0 and points[0].ppae == 0.0
    assert scatter_ratio(points[0]) is None


def test_scatter_fixed_n_collinear():
    rng = np.random.default_rng(4)
    records = [rec(f"f{i}", float(rng.uniform(100, 900)), float(rng.uniform(100, 900)), n=7) for i in range(50)]
    for p in mae_ppmae_scatter(records):
        assert p.ppae == p.ae / p.n_persons  # exact by construction
        if p.ae > 0:
            assert scatter_ratio(p) == pytest.approx(7.0, rel=1e-12)


def test_scatter_rejects_empty_frames():
    with pytest.raises(ValueError):
        mae_ppmae_scatter([rec("a", 1.0, 1.0, n=0)])
