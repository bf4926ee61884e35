import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench.py"


def test_bench_file_shape(tmp_path):
    # the shape of the file at a tiny size; timings are not checked
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(SCRIPT), "--m-max", "3", "--repeats", "1", "--climbs", "2",
         "--out-dir", str(tmp_path)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    (path,) = tmp_path.glob("BENCH_*.json")
    data = json.loads(path.read_text())
    assert path.name.startswith(f"BENCH_{data['git']['sha'][:12]}")
    assert path.name.endswith("-dirty.json") == data["git"]["dirty"]
    assert isinstance(data["machine"]["nproc"], int)
    assert all(isinstance(data["machine"][k], str) for k in ("python", "numpy"))
    assert isinstance(data["git"]["sha"], str) and len(data["git"]["source_sha256"]) == 64
    assert data["settings"] == {"m_max": 3, "repeats": 1, "climbs": 2, "seed": 1}
    assert isinstance(data["sweep_s"], float) and len(data["sweep_runs_s"]) == 1
    layers = data["layers"]
    assert sorted(layers["catalog_level_s"]) == ["1", "2", "3"]
    assert all(isinstance(v, float) for v in layers["catalog_level_s"].values())
    assert sorted(layers["level_solve_s"]) == ["1", "2", "3"]
    assert all(isinstance(v, float) for v in layers["level_solve_s"].values())
    # up to k = 3 every piece can reach its cell maximum: K3 and K1,3 tie at 4
    assert layers["level_solved_pieces"] == {"1": 1, "2": 1, "3": 3}
    for key in ("canonical_graph_call_s", "q_radius_graph_s", "verdict_s", "verdict_cold_s",
                "lemma_status_s", "climb_step_s", "climb_p90_s", "climb_certified_per_step",
                "climb_admissions_per_step"):
        assert isinstance(layers[key], float), key
    # every step certifies the graphs it may apply and checks their matching numbers
    assert layers["climb_certified_per_step"] >= 1 and layers["climb_admissions_per_step"] >= 1
    # 3 verdicts with beta >= 2, one maximizer each; the catalog has 1 + 1 + 3
    # graphs up to k = 3
    assert data["samples"] == {"verdicts": 3, "lemma_status_calls": 3, "q_radius_graphs": 5,
                               "canonical_graph_calls": 5, "climbs_with_steps": 2}


def test_base_run_pairs_both_trees(tmp_path):
    # this tree against itself: both sides measure the same sources, and the
    # counts repeat exactly, so their ratios are 1
    subprocess.run(
        [sys.executable, str(SCRIPT), "--m-max", "3", "--repeats", "2", "--climbs", "2",
         "--out-dir", str(tmp_path), "--base", str(REPO)],
        check=True, capture_output=True, timeout=120,
    )
    (path,) = tmp_path.glob("BENCH_*.json")
    data = json.loads(path.read_text())
    base = data["base"]
    assert base["git"]["source_sha256"] == data["git"]["source_sha256"]
    assert sorted(base["layers"]) == sorted(data["layers"])
    assert len(base["sweep_runs_s"]) == len(data["sweep_runs_s"]) == 2
    assert isinstance(data["layers"]["control_eigh_s"], float)
    ratios = data["ratios"]
    assert sorted(ratios) == sorted(["sweep_s", *data["layers"]])
    for name in ("sweep_s", "control_eigh_s", "climb_p90_s"):
        assert len(ratios[name]["pairs"]) == 2 and ratios[name]["median"] > 0, name
        low, high = ratios[name]["quartiles"]
        assert low <= ratios[name]["median"] <= high, name
    assert sorted(ratios["catalog_level_s"]) == ["1", "2", "3"]
    for name in ("climb_certified_per_step", "climb_admissions_per_step"):
        assert ratios[name]["pairs"] == [1.0, 1.0], name
    assert all(r["pairs"] == [1.0, 1.0] for r in ratios["level_solved_pieces"].values())


def test_base_must_be_a_checkout(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "has no src/qspex" in done.stderr
