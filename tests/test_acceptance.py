"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines."""
import math
import time

import numpy as np
import pytest

from crowdvol import anthro, evalharness, meshvol, metrics, scenegen
from crowdvol.cli import main as cli_main
from crowdvol.datamodel import TriMesh, default_taxonomy, read_annotations
from crowdvol.densitymap import SmoothingConfig, render_ppvdm, render_vdm
from conftest import make_frame, make_icosphere, make_person, make_random_convex, make_tetrahedron

from crowdvol.datamodel import Keypoint


class _Budget:
    def __init__(self, number: int, name: str, limit_s: float):
        self.number, self.name, self.limit = number, name, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            verdict = "PASS" if elapsed < self.limit else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.number} [{self.name}]: {verdict} ({elapsed:.2f}s / {self.limit:.0f}s)")
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        else:
            print(f"ACCEPTANCE {self.number} [{self.name}]: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_mesh_volume():
    with _Budget(1, "mesh volume", 5.0):
        ball = 4.0 * math.pi / 3.0
        ico = meshvol.signed_volume(make_icosphere(radius=1.0, subdivisions=4))
        assert ico < ball and abs(ico - ball) / ball < 0.01

        tet = meshvol.signed_volume(make_tetrahedron())
        assert abs(tet - 1.0 / 6.0) <= 1e-12

        rng = np.random.default_rng(100)
        for seed in range(100):
            mesh, _ = make_random_convex(seed)
            base = meshvol.signed_volume(mesh)
            shift = rng.uniform(-100.0, 100.0, size=3)
            moved = meshvol.signed_volume(TriMesh(vertices=mesh.vertices + shift, faces=mesh.faces))
            assert abs(moved - base) <= 1e-9 * base
            sx, sy, sz = rng.uniform(0.3, 3.0, size=3)
            scaled = meshvol.signed_volume(TriMesh(vertices=mesh.vertices * [sx, sy, sz], faces=mesh.faces))
            assert abs(scaled - sx * sy * sz * base) <= 1e-9 * sx * sy * sz * base


def test_criterion_2_part_splitting():
    with _Budget(2, "part splitting", 30.0):
        rng = np.random.default_rng(200)
        for seed in range(100):
            mesh, _ = make_random_convex(seed)
            parent = meshvol.signed_volume(mesh)
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            origin = mesh.vertices.mean(axis=0) + rng.normal(scale=0.2, size=3)
            neg, pos = meshvol.split_by_plane(mesh, meshvol.Plane(normal=normal, offset=float(normal @ origin)))
            assert abs(meshvol.signed_volume(neg) + meshvol.signed_volume(pos) - parent) <= 1e-9 * parent

        taxonomy = default_taxonomy()
        samples = anthro.sample_population(anthro.default_model(), 100, seed=201)
        for i, sample in enumerate(samples):
            body = scenegen.build_humanoid(sample, seed=202 + i)
            parts = meshvol.split_parts(body.mesh, taxonomy)
            for pid, analytic in body.part_volumes_dm3.items():
                assert abs(parts.volumes[pid] - analytic) <= 5e-3 * analytic
            closure = math.fsum(body.part_volumes_dm3.values())
            assert abs(closure - body.total_volume_dm3) <= 1e-6 * body.total_volume_dm3


def test_criterion_3_density_maps():
    with _Budget(3, "density maps", 60.0):
        rng = np.random.default_rng(300)
        w, h = 96, 72
        tax = default_taxonomy()
        torso_ids = tax.keypoint_map[tax.id_of("torso")]
        for trial in range(1000):
            n = int(rng.integers(1, 7))
            persons = []
            for i in range(n):
                if rng.random() < 0.3:  # border-adjacent head
                    hx = float(rng.choice([rng.uniform(0, 2), rng.uniform(w - 2, w - 1e-9)]))
                    hy = float(rng.uniform(0, h))
                else:
                    hx, hy = float(rng.uniform(0, w)), float(rng.uniform(0, h))
                torso = float(rng.uniform(25, 45))
                rest = float(rng.uniform(20, 50))
                persons.append(
                    make_person(
                        person_id=f"p{i}",
                        head=(hx, hy),
                        volume=torso + rest,
                        parts={1: torso, 0: rest},
                        bbox=(0.0, 0.0, float(w), float(h)),
                        keypoints=tuple(
                            Keypoint(x=float(rng.uniform(0, w)), y=float(rng.uniform(0, h)), part_id=1, visible=True)
                            for _ in torso_ids
                        ),
                    )
                )
            frame = make_frame(persons, w=w, h=h)
            total = frame.total_volume_dm3
            sigma = (0.0, 2.0, 4.0, 8.0)[trial % 4]
            cfg = SmoothingConfig(sigma_px=sigma)
            vdm = render_vdm(frame, cfg)
            assert abs(vdm.total() - total) <= 1e-6 * total
            ppvdm = render_ppvdm(frame, tax, cfg)
            assert abs(ppvdm.total() - total) <= 1e-6 * total
            assert abs(ppvdm.total() - vdm.total()) <= 1e-6 * vdm.total()

        # torso fifths, exactly, at sigma 0
        torso_v = 31.25
        kps = tuple(Keypoint(x=10.0 + 7 * i, y=40.0, part_id=1, visible=True) for i in range(5))
        person = make_person(volume=torso_v, parts={1: torso_v}, keypoints=kps)
        dmap = render_ppvdm(make_frame([person]), tax, SmoothingConfig(sigma_px=0.0))
        for i in range(5):
            assert dmap.values[40, 10 + 7 * i] == torso_v / 5.0


def test_criterion_4_metrics():
    with _Budget(4, "metrics", 10.0):
        recs = [
            metrics.EvalRecord("a", 1000.0, 1100.0, 10),
            metrics.EvalRecord("b", 2000.0, 1900.0, 20),
        ]
        assert metrics.mae(recs) == 100.0
        assert metrics.ppmae(recs) == 7.5
        spread = [metrics.EvalRecord("a", 100.0, 100.0, 1), metrics.EvalRecord("b", 400.0, 200.0, 1)]
        assert metrics.rmse(spread) == pytest.approx(math.sqrt(20000.0), rel=1e-15)

        rng = np.random.default_rng(400)
        for trial in range(1000):
            k = int(rng.integers(1, 40))
            if trial % 10 == 0:  # equality case: all absolute errors identical
                ae = float(rng.uniform(1, 100))
                records = [metrics.EvalRecord(f"f{i}", 500.0 + ae, 500.0, 1) for i in range(k)]
            else:
                records = [
                    metrics.EvalRecord(f"f{i}", float(rng.uniform(0, 3000)), float(rng.uniform(0, 3000)), 1)
                    for i in range(k)
                ]
            m, r = metrics.mae(records), metrics.rmse(records)
            assert m <= r * (1 + 1e-12)
            assert r <= math.sqrt(k) * m * (1 + 1e-12)
            aes = [abs(rec.v_true - rec.v_pred) for rec in records]
            if max(aes) - min(aes) <= 1e-12 * max(aes, default=0.0):
                assert abs(m - r) <= 1e-12 * max(m, 1e-300)

        fixed_n = [metrics.EvalRecord(f"f{i}", float(rng.uniform(10, 99)), float(rng.uniform(10, 99)), 7) for i in range(200)]
        for p in metrics.mae_ppmae_scatter(fixed_n):
            assert p.ppae == p.ae / p.n_persons
            if p.ae > 0:
                assert p.ratio == pytest.approx(7.0, rel=1e-12)


def _generated(n_frames, seed, persons=(1, 6)):
    cfg = scenegen.SceneConfig(
        frames_per_split=(("train", n_frames), ("val", 1), ("test", 1)),
        pool_sizes=(("train", 10), ("val", 2), ("test", 2)),
        persons_range=persons,
    )
    pools = scenegen.build_identity_pools(cfg, seed)
    return [scenegen.generate_frame(cfg, pools["train"], seed, i) for i in range(n_frames)]


def test_criterion_5_oracular_baseline_identity():
    with _Budget(5, "oracular baseline identity", 10.0):
        frames = [f for f in _generated(40, seed=500) if f.n_persons >= 1]
        vbar = evalharness.dataset_stats(frames).mean_person_volume_dm3
        preds = evalharness.oracular_count_estimator(frames, vbar)
        report = evalharness.evaluate_full(frames, preds)
        brute = math.fsum(abs(vbar - f.total_volume_dm3 / f.n_persons) for f in frames) / len(frames)
        assert abs(report.overall.ppmae - brute) <= 1e-9 * max(brute, 1.0)


def test_criterion_6_decoupling_protocol():
    with _Budget(6, "decoupling protocol", 10.0):
        frames = _generated(25, seed=600)
        sigma0 = SmoothingConfig(sigma_px=0.0)
        maps = evalharness.PredictionSet({f.frame_id: render_vdm(f, sigma0) for f in frames})
        report = evalharness.decoupling_eval(frames, maps)
        assert report.kept > 0
        assert report.misses == 0
        assert report.ppmae == 0.0

        small = make_person(person_id="tiny", head=(10.0, 10.0), volume=8.0, parts={0: 8.0}, bbox=(5.0, 5.0, 15.0, 15.0))
        lone = make_person(person_id="big", head=(50.0, 50.0), volume=70.0, parts={0: 70.0}, bbox=(45.0, 45.0, 55.0, 55.0))
        injected = make_frame([small, lone], frame_id="inject")
        imap = evalharness.PredictionSet({"inject": render_vdm(injected, sigma0)})
        rep = evalharness.decoupling_eval([injected], imap, min_volume_dm3=10.0)
        assert rep.misses == 1  # the 8 dm3 person is a detection miss

        a = make_person(person_id="a", head=(10.0, 10.0), volume=70.0, parts={0: 70.0}, bbox=(5.0, 5.0, 20.0, 20.0))
        b = make_person(person_id="b", head=(18.0, 12.0), volume=60.0, parts={0: 60.0}, bbox=(15.0, 5.0, 30.0, 20.0))
        overlap = make_frame([a, b], frame_id="overlap")
        omap = evalharness.PredictionSet({"overlap": render_vdm(overlap, sigma0)})
        rep = evalharness.decoupling_eval([overlap], omap)
        assert rep.dropped_overlap == 2
        assert rep.kept == 0


def test_criterion_7_alignment_direction():
    with _Budget(7, "alignment direction", 30.0):
        model = anthro.default_model()
        narrow_of = lambda gp: anthro.GenderParams(
            mass=anthro.LogNormalParams(gp.mass.mu, gp.mass.sigma / 5.0),
            height=anthro.LogNormalParams(gp.height.mu, gp.height.sigma / 5.0),
        )
        narrow = anthro.AnthropometricModel(female=narrow_of(model.female), male=narrow_of(model.male))
        before = anthro.sample_population(narrow, 20_000, seed=700)
        tn = anthro.TruncatedNormal(mean=1.0, std=0.05, lower=0.84, upper=1.19)
        after = anthro.scale_samples(before, anthro.ScalingConfig(x=tn, y=tn, z=tn), seed=701)
        for gender in ("female", "male"):
            params = model.params_for(gender)
            bef = [s for s in before if s.gender == gender]
            aft = [s for s in after if s.gender == gender]
            h_rep = anthro.alignment_report([s.height_m for s in bef], [s.height_m for s in aft], params.height)
            m_rep = anthro.alignment_report([s.mass_kg for s in bef], [s.mass_kg for s in aft], params.mass)
            assert h_rep.kl_after < h_rep.kl_before
            assert m_rep.kl_after < m_rep.kl_before


def test_criterion_8_population_statistics():
    with _Budget(8, "population statistics", 60.0):
        model = anthro.default_model()
        samples = anthro.sample_population(model, 100_000, seed=800)
        lo, hi = model.bmi_range
        assert all(lo <= s.bmi <= hi for s in samples)
        for gender in ("female", "male"):
            heights = [s.height_m for s in samples if s.gender == gender]
            expected = math.exp(model.params_for(gender).height.mu)
            assert abs(float(np.median(heights)) - expected) <= 5e-3 * expected

        again = anthro.sample_population(model, 100_000, seed=800)
        assert again == samples

        cfg = scenegen.SceneConfig(
            frames_per_split=(("train", 6), ("val", 2), ("test", 2)),
            pool_sizes=(("train", 6), ("val", 2), ("test", 2)),
        )
        from crowdvol.datamodel import frame_to_json_line

        serial = scenegen.generate_dataset(cfg, seed=801, workers=1)
        parallel = scenegen.generate_dataset(cfg, seed=801, workers=4)
        for split in serial:
            assert [frame_to_json_line(f) for f in serial[split]] == [
                frame_to_json_line(f) for f in parallel[split]
            ]


def test_criterion_9_end_to_end(tmp_path):
    with _Budget(9, "end to end", 120.0):
        from crowdvol.datamodel import write_keyvalues

        cfg_path = tmp_path / "scene.cfg"
        write_keyvalues(
            {
                "image_w": "320",
                "image_h": "240",
                "frames.train": "2",
                "frames.val": "2",
                "frames.test": "200",
                "pool.train": "10",
                "pool.val": "4",
                "pool.test": "12",
                "persons.min": "1",
                "persons.max": "8",
            },
            cfg_path,
        )
        data_dir, maps_dir, eval_dir = tmp_path / "data", tmp_path / "maps", tmp_path / "eval"
        assert cli_main(["gen", "--config", str(cfg_path), "--seed", "9", "--out", str(data_dir)]) == 0
        gt = data_dir / "test.jsonl"
        assert len(read_annotations(gt)) == 200
        assert cli_main(["maps", str(gt), "--out", str(maps_dir), "--sigma", "0"]) == 0
        assert cli_main(
            ["eval", "--gt", str(gt), "--preds", str(maps_dir), "--protocol", "full", "--out", str(eval_dir)]
        ) == 0
        report = (eval_dir / "report.csv").read_text()
        lines = {tuple(l.split(",")[:2]): l.split(",")[2] for l in report.strip().splitlines()[1:]}
        assert lines[("overall", "mae")] == "0.0"
        assert lines[("overall", "rmse")] == "0.0"
        assert lines[("overall", "ppmae")] == "0.0"
