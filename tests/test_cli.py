import json
import xml.etree.ElementTree as ET

import numpy as np

from hardneg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_instance(path, points, variant=None):
    payload = {key: list(map(float, vec)) for key, vec in
               zip(("x1", "x2", "y1", "y2"), points)}
    if variant:
        payload["variant"] = variant
    path.write_text(json.dumps(payload))
    return path


def test_solve_shared_endpoint(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json",
        ([1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]),
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] < 1e-9
    assert set(payload) >= {"case_id", "alpha", "beta", "p1", "p2", "distance"}


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_solve_antipodal_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "anti.json", ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1])
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 2
    assert json.loads(out)["error"] == "DegenerateArc"


def test_solve_matches_oracle(tmp_path, capsys):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(4, 6))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    code, solve_out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    code, oracle_out = run_cli(
        capsys, "oracle", str(instance), "--resolution", "1e-3"
    )
    assert code == 0
    solver_d = json.loads(solve_out)["distance"]
    oracle_d = json.loads(oracle_out)["best_distance"]
    assert solver_d <= oracle_d + 1e-9
    assert oracle_d - solver_d <= 2e-3


def test_oracle_resolution_refinement(tmp_path, capsys):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(4, 4))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    _, coarse = run_cli(capsys, "oracle", str(instance), "--resolution", "2e-2")
    _, fine = run_cli(capsys, "oracle", str(instance), "--resolution", "1e-2")
    assert json.loads(fine)["best_distance"] <= json.loads(coarse)["best_distance"] + 1e-12


def test_segment_variant_from_instance_field(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "seg.json",
        ([-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1]),
        variant="segment",
    )
    code, out = run_cli(capsys, "solve", str(instance))
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "segment"
    assert abs(payload["k1"] - 0.5) < 1e-9
    assert abs(payload["distance"] - 1.0) < 1e-9


def test_cases_svg_is_valid_xml(tmp_path, capsys):
    rng = np.random.default_rng(2)
    points = rng.normal(size=(4, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    instance = write_instance(tmp_path / "inst.json", points)
    out_dir = tmp_path / "fig"
    code, out = run_cli(capsys, "cases", str(instance), "--out-dir", str(out_dir))
    assert code == 0
    svg_path = out_dir / "cases.svg"
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) >= 10  # nine cases (two interior roots) plus winner ring
    assert (out_dir / "manifest.json").exists()


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out = run_cli(
        capsys, "oracle", "--sweep", "6", "--resolution", "5e-3",
        "--seed", "1", "--out-dir", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 6
    assert summary["solver_above_oracle"] == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 7
    assert (out_dir / "sweep_summary.json").exists()


def test_sweep_without_out_dir_is_input_error(capsys):
    code, out = run_cli(capsys, "oracle", "--sweep", "3")
    assert code == 2


def test_experiment_zero_steps(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "spec": {"num_classes": 3, "samples_per_class": 4, "dimension": 6,
                 "concentration": 2.5, "seed": 0},
        "losses": ["triplet"],
        "loss_config": {"margin": 0.2},
        "steps": 0,
        "seeds": [0],
    }))
    out_dir = tmp_path / "exp"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert len(summary["runs"]) == 1
    history = (out_dir / "history_triplet_seed0.csv").read_text().strip().splitlines()
    assert len(history) == 2  # header plus the initial entry


def test_experiment_paired_losses(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "spec": {"num_classes": 3, "samples_per_class": 4, "dimension": 6,
                 "concentration": 2.5, "seed": 0},
        "losses": ["triplet", "loop_triplet"],
        "loss_config": {"margin": 0.2},
        "steps": 3,
        "learning_rate": 0.05,
        "seeds": [0, 1],
    }))
    out_dir = tmp_path / "exp"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert len(summary["runs"]) == 4
    assert set(summary["median_final_recall_at_1"]) == {"triplet", "loop_triplet"}
    for name in ("triplet", "loop_triplet"):
        for seed in (0, 1):
            lines = (out_dir / f"history_{name}_seed{seed}.csv").read_text().splitlines()
            assert len(lines) == 5  # header + steps 0..3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "experiment"


def test_experiment_unknown_loss(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"losses": ["nope"], "steps": 1}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"


def test_solve_out_dir_writes_solution_and_manifest(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    out_dir = tmp_path / "run"
    code, out = run_cli(capsys, "solve", str(instance), "--out-dir", str(out_dir))
    assert code == 0
    stored = json.loads((out_dir / "solution.json").read_text())
    assert stored == json.loads(out)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 0


def test_non_finite_instance_is_input_error(tmp_path, capsys):
    instance = tmp_path / "nan.json"
    instance.write_text('{"x1": [NaN, 0, 0], "x2": [0, 1, 0], "y1": [0, 0, 1], "y2": [1, 1, 0]}')
    for command in ("solve", "oracle"):
        code, out = run_cli(capsys, command, str(instance))
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def test_oracle_zero_resolution_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0])
    )
    for argv in (
        ("oracle", str(instance), "--resolution", "0"),
        ("oracle", "--sweep", "2", "--resolution", "0", "--out-dir", str(tmp_path / "s")),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "ParseError"


def test_experiment_unknown_variant(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"losses": ["loop_triplet"], "steps": 1, "variant": "cone"}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"


def test_misspelled_instance_variant_is_input_error(tmp_path, capsys):
    instance = write_instance(
        tmp_path / "inst.json", ([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]), variant="segmnet"
    )
    for command in ("solve", "oracle"):
        code, out = run_cli(capsys, command, str(instance))
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "ParseError"
        assert "segmnet" in payload["message"]


def _experiment_error(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "x"
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(out_dir))
    assert code == 2
    assert json.loads(out)["error"] == "ConfigError"
    assert not out_dir.exists()  # rejected before the manifest is written


SMALL_SPEC = {"num_classes": 3, "samples_per_class": 4, "dimension": 6}


def test_experiment_config_not_an_object(tmp_path, capsys):
    _experiment_error(tmp_path, capsys, ["triplet"])


def test_experiment_single_class_spec(tmp_path, capsys):
    spec = dict(SMALL_SPEC, num_classes=1)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_bad_learning_rate(tmp_path, capsys):
    for lr in ("nan", "inf", 0.0, -0.05):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "learning_rate": lr})


def test_experiment_steps_must_be_integer(tmp_path, capsys):
    for steps in (2.7, True):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": steps})


def test_experiment_empty_seeds(tmp_path, capsys):
    _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                         "steps": 1, "seeds": []})


def test_experiment_summary_records_run_timings(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"spec": SMALL_SPEC, "losses": ["triplet"], "steps": 2,
                                  "seeds": [0, 1]}))
    code, out = run_cli(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "exp"))
    assert code == 0
    for run in json.loads((tmp_path / "exp" / "summary.json").read_text())["runs"]:
        assert run["train_s"] > 0.0
        assert run["evaluate_s"] > 0.0


def test_experiment_losses_must_be_a_list_of_names(tmp_path, capsys):
    for losses in ("triplet", [], [["triplet"]]):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": losses, "steps": 1})


def test_experiment_seeds_must_be_nonnegative_integers(tmp_path, capsys):
    for seeds in ("12", 3, [-1], [0, -2], ["1"]):
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "seeds": seeds})


LOSS_CONFIG_FLOATS = ("margin", "ms_epsilon", "ms_margin", "ms_alpha", "ms_beta")


def test_experiment_nan_loss_config(tmp_path, capsys):
    # A NaN margin used to make every hinge test false: exit 0 and loss 0.
    for name in LOSS_CONFIG_FLOATS:
        _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                             "steps": 1, "loss_config": {name: float("nan")}})


def test_experiment_infinite_loss_config(tmp_path, capsys):
    for name in LOSS_CONFIG_FLOATS:
        for value in (float("inf"), float("-inf")):
            _experiment_error(tmp_path, capsys, {"spec": SMALL_SPEC, "losses": ["triplet"],
                                                 "steps": 1, "loss_config": {name: value}})


def test_experiment_zero_samples_per_class(tmp_path, capsys):
    spec = dict(SMALL_SPEC, samples_per_class=0)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_negative_samples_per_class(tmp_path, capsys):
    spec = dict(SMALL_SPEC, samples_per_class=-2)
    _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})


def test_experiment_non_finite_concentration(tmp_path, capsys):
    for value in (float("nan"), float("inf")):
        spec = dict(SMALL_SPEC, concentration=value)
        _experiment_error(tmp_path, capsys, {"spec": spec, "losses": ["triplet"], "steps": 1})
