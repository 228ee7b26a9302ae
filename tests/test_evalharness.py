import math
import tracemalloc

import numpy as np
import pytest

from crowdvol import evalharness as eh
from crowdvol import scenegen
from crowdvol.datamodel import write_vdm
from crowdvol.densitymap import SmoothingConfig, render_vdm
from conftest import make_frame, make_person

SIGMA0 = SmoothingConfig(sigma_px=0.0)


def generated_frames(n_frames=12, seed=21, persons=(1, 6)):
    cfg = scenegen.SceneConfig(
        frames_per_split=(("train", n_frames), ("val", 1), ("test", 1)),
        pool_sizes=(("train", 8), ("val", 2), ("test", 2)),
        persons_range=persons,
    )
    pools = scenegen.build_identity_pools(cfg, seed)
    return [scenegen.generate_frame(cfg, pools["train"], seed, i) for i in range(n_frames)]


# ---------------------------------------------------------------------------
# dataset stats
# ---------------------------------------------------------------------------

def test_dataset_stats_hand_mean():
    frame = make_frame(
        [make_person(person_id="a", head=(1, 1), volume=60.0), make_person(person_id="b", head=(2, 2), volume=80.0)]
    )
    stats = eh.dataset_stats([frame])
    assert stats.mean_person_volume_dm3 == 70.0
    assert stats.count_histogram == {2: 1}
    assert stats.n_persons == 2


def test_dataset_stats_single_person():
    stats = eh.dataset_stats([make_frame([make_person(volume=66.0)])])
    assert stats.mean_person_volume_dm3 == 66.0


def test_dataset_stats_order_invariant():
    frames = generated_frames()
    a = eh.dataset_stats(frames)
    b = eh.dataset_stats(list(reversed(frames)))
    assert a.mean_person_volume_dm3 == b.mean_person_volume_dm3
    assert a.count_histogram == b.count_histogram
    assert a.tag_counts == b.tag_counts


def test_dataset_stats_no_persons_error():
    with pytest.raises(eh.EvalError):
        eh.dataset_stats([make_frame([])])


# ---------------------------------------------------------------------------
# mean-volume estimator
# ---------------------------------------------------------------------------

def test_mean_volume_estimator_hand_case():
    frame = make_frame([make_person(person_id=f"p{i}", head=(float(1 + 2 * i), 5.0)) for i in range(30)], frame_id="f")
    preds = eh.oracular_count_estimator([frame], 65.2)
    assert preds.by_frame == {"f": 30 * 65.2} and 30 * 65.2 == 1956.0


def test_mean_volume_estimator_zero_count():
    preds = eh.oracular_count_estimator([make_frame([], frame_id="f")], 65.2)
    assert preds.by_frame == {"f": 0.0}


def test_oracular_estimator_ppmae_identity():
    # |n * vbar - V| / n == |vbar - V/n|, so the PP-MAE of the oracular
    # estimator equals the mean absolute deviation of per-frame mean volumes
    frames = [f for f in generated_frames() if f.n_persons >= 1]
    vbar = eh.dataset_stats(frames).mean_person_volume_dm3
    preds = eh.oracular_count_estimator(frames, vbar)
    report = eh.evaluate_full(frames, preds)
    brute = math.fsum(
        abs(vbar - f.total_volume_dm3 / f.n_persons) for f in frames
    ) / len(frames)
    assert abs(report.overall.ppmae - brute) <= 1e-9 * max(brute, 1.0)


# ---------------------------------------------------------------------------
# evaluate_full
# ---------------------------------------------------------------------------

def test_full_eval_gt_predictions_zero():
    frames = generated_frames()
    preds = eh.PredictionSet({f.frame_id: f.total_volume_dm3 for f in frames})
    report = eh.evaluate_full(frames, preds)
    assert report.overall.mae == 0.0
    assert report.overall.rmse == 0.0
    assert report.overall.ppmae == 0.0


def test_full_eval_rendered_maps_conserve():
    frames = generated_frames()
    for sigma in (0.0, 4.0):
        maps = {f.frame_id: render_vdm(f, SmoothingConfig(sigma_px=sigma)) for f in frames}
        report = eh.evaluate_full(frames, eh.PredictionSet(maps))
        mean_v = eh.dataset_stats(frames).mean_person_volume_dm3
        assert report.overall.mae <= 1e-6 * mean_v


def test_full_eval_missing_prediction_lists_frames():
    frames = generated_frames(n_frames=3)
    preds = eh.PredictionSet({frames[0].frame_id: 100.0})
    with pytest.raises(eh.EvalError, match=frames[1].frame_id):
        eh.evaluate_full(frames, preds)


def test_full_eval_per_tag_partition():
    frames = generated_frames(n_frames=30, seed=5)
    preds = eh.PredictionSet({f.frame_id: f.total_volume_dm3 + 1.0 for f in frames})
    report = eh.evaluate_full(frames, preds)
    for tag, rep in report.per_tag.items():
        assert rep.k == sum(1 for f in frames if tag in f.scene_tags)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def test_decoupling_oracle_zero_error():
    frames = generated_frames(seed=8)
    maps = eh.PredictionSet({f.frame_id: render_vdm(f, SIGMA0) for f in frames})
    report = eh.decoupling_eval(frames, maps)
    assert report.kept > 0
    assert report.misses == 0
    assert report.ppmae == 0.0


def test_decoupling_small_person_is_miss():
    # an isolated person whose bbox integrates to 8 dm3 falls below the
    # 10 dm3 threshold and must be excluded from the volume average
    small = make_person(person_id="small", head=(10.0, 10.0), volume=8.0, parts={0: 8.0}, bbox=(5.0, 5.0, 15.0, 15.0))
    big = make_person(person_id="big", head=(50.0, 50.0), volume=70.0, parts={0: 70.0}, bbox=(45.0, 45.0, 55.0, 55.0))
    frame = make_frame([small, big])
    maps = eh.PredictionSet({frame.frame_id: render_vdm(frame, SIGMA0)})
    report = eh.decoupling_eval([frame], maps)
    assert report.misses == 1
    assert report.kept == 2
    assert report.ppmae == 0.0  # the 70 dm3 person is recovered exactly


def test_decoupling_overlapping_pair_dropped():
    a = make_person(person_id="a", head=(10.0, 10.0), volume=70.0, parts={0: 70.0}, bbox=(5.0, 5.0, 20.0, 20.0))
    b = make_person(person_id="b", head=(18.0, 10.0), volume=60.0, parts={0: 60.0}, bbox=(15.0, 5.0, 30.0, 20.0))
    c = make_person(person_id="c", head=(50.0, 50.0), volume=80.0, parts={0: 80.0}, bbox=(45.0, 45.0, 55.0, 55.0))
    frame = make_frame([a, b, c])
    maps = eh.PredictionSet({frame.frame_id: render_vdm(frame, SIGMA0)})
    report = eh.decoupling_eval([frame], maps)
    assert report.dropped_overlap == 2
    assert report.kept == 1
    assert report.ppmae == 0.0


def test_decoupling_iou_threshold_keeps_light_overlap():
    a = make_person(person_id="a", head=(10.0, 10.0), volume=70.0, parts={0: 70.0}, bbox=(5.0, 5.0, 20.0, 20.0))
    b = make_person(person_id="b", head=(25.0, 10.0), volume=60.0, parts={0: 60.0}, bbox=(19.0, 5.0, 34.0, 20.0))
    frame = make_frame([a, b])
    maps = eh.PredictionSet({frame.frame_id: render_vdm(frame, SIGMA0)})
    strict = eh.decoupling_eval([frame], maps, iou_threshold=0.0)
    assert strict.dropped_overlap == 2
    loose = eh.decoupling_eval([frame], maps, iou_threshold=0.5)
    assert loose.dropped_overlap == 0
    assert loose.kept == 2


def test_decoupling_map_size_mismatch():
    frame = make_frame([make_person()])
    wrong = render_vdm(make_frame([make_person(head=(5.0, 5.0))], w=32, h=32), SIGMA0)
    with pytest.raises(eh.EvalError, match="size"):
        eh.decoupling_eval([frame], eh.PredictionSet({frame.frame_id: wrong}))
    with pytest.raises(eh.EvalError, match="size"):
        eh.evaluate_full([frame], eh.PredictionSet({frame.frame_id: wrong}))


# ---------------------------------------------------------------------------
# crowd-size bins
# ---------------------------------------------------------------------------

def test_bins_partition_rule():
    frames = [make_frame([make_person(person_id=f"p{i}", head=(float(2 + 3 * i), 5.0)) for i in range(7)], frame_id="f7")]
    preds = eh.PredictionSet({"f7": frames[0].total_volume_dm3})
    bins = eh.crowd_size_bins(frames, preds, [1, 10, 50, math.inf])
    assert bins[0].n_frames == 1
    assert bins[1].n_frames == 0 and bins[1].report is None
    assert bins[2].n_frames == 0


def test_bins_cover_all_crowd_frames():
    frames = generated_frames(n_frames=25, seed=6)
    preds = eh.PredictionSet({f.frame_id: f.total_volume_dm3 for f in frames})
    bins = eh.crowd_size_bins(frames, preds, [1, 3, 5, math.inf])
    assert sum(b.n_frames for b in bins) == sum(1 for f in frames if f.n_persons >= 1)


def test_bins_recombine_to_global_mae():
    frames = generated_frames(n_frames=25, seed=7)
    rng = np.random.default_rng(0)
    preds = eh.PredictionSet(
        {f.frame_id: max(0.0, f.total_volume_dm3 + rng.normal(scale=30.0)) for f in frames}
    )
    bins = eh.crowd_size_bins(frames, preds, [1, 3, 5, math.inf])
    weighted = math.fsum(b.report.mae * b.n_frames for b in bins if b.report is not None)
    count = sum(b.n_frames for b in bins)
    crowd = [f for f in frames if f.n_persons >= 1]
    global_report = eh.evaluate_full(crowd, preds)
    assert abs(weighted / count - global_report.overall.mae) <= 1e-9 * max(global_report.overall.mae, 1.0)


def test_bins_rejects_bad_edges():
    frames = generated_frames(n_frames=2)
    preds = eh.PredictionSet({f.frame_id: 0.0 for f in frames})
    with pytest.raises(eh.EvalError):
        eh.crowd_size_bins(frames, preds, [5, 5])


# ---------------------------------------------------------------------------
# subset filtering
# ---------------------------------------------------------------------------

def test_filter_identity():
    frames = generated_frames(n_frames=10, seed=9)
    assert eh.filter_subset(frames) == frames


def test_s2_preset_keeps_only_birds_eye():
    frames = generated_frames(n_frames=40, seed=10)
    s2 = eh.apply_subset_preset(frames, "S2")
    assert all("birds_eye" in f.scene_tags for f in s2)
    assert len(s2) == sum(1 for f in frames if "birds_eye" in f.scene_tags)


def test_s1_contains_s2_on_generated_data():
    # generated birds_eye frames never carry night/rain/heavy_occlusion
    frames = generated_frames(n_frames=60, seed=11)
    s1 = {f.frame_id for f in eh.apply_subset_preset(frames, "S1")}
    s2 = {f.frame_id for f in eh.apply_subset_preset(frames, "S2")}
    assert s2 and s2 <= s1


def test_unknown_tag_warns_not_errors():
    frames = generated_frames(n_frames=4, seed=12)
    with pytest.warns(UserWarning, match="nonexistent"):
        out = eh.filter_subset(frames, exclude_tags={"nonexistent"})
    assert out == frames


def test_unknown_preset_rejected():
    with pytest.raises(eh.EvalError):
        eh.apply_subset_preset([], "S3")


# ---------------------------------------------------------------------------
# prediction loading
# ---------------------------------------------------------------------------

def test_load_predictions_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("frame_id,V_pred_dm3\nf0,123.5\nf1,7\n")
    preds = eh.load_predictions_csv(path)
    assert preds.by_frame == {"f0": 123.5, "f1": 7.0}


def test_load_prediction_maps(tmp_path):
    frame = make_frame([make_person(volume=70.0)])
    write_vdm(render_vdm(frame, SIGMA0), tmp_path / "f0.vdm")
    preds = eh.load_prediction_maps(tmp_path)
    assert preds.map_for("f0").total() == 70.0  # float32-exact value survives the file


def test_protocol_csv_determinism():
    frames = generated_frames(n_frames=10, seed=13)
    preds = eh.PredictionSet({f.frame_id: f.total_volume_dm3 * 1.01 for f in frames})
    a = eh.full_report_to_csv(eh.evaluate_full(frames, preds))
    b = eh.full_report_to_csv(eh.evaluate_full(frames, preds))
    assert a == b


def test_map_protocols_hold_one_map_at_a_time(tmp_path):
    frames = generated_frames(n_frames=40)
    assert {(f.image_w, f.image_h) for f in frames} == {(640, 480)}
    for f in frames:
        write_vdm(render_vdm(f, SIGMA0), tmp_path / f"{f.frame_id}.vdm")
    tracemalloc.start()
    try:
        preds = eh.load_prediction_maps(tmp_path)
        eh.evaluate_full(frames, preds)
        eh.decoupling_eval(frames, preds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 640 * 480 * 8  # four float64 maps
